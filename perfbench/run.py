"""Benchmark of dbtagger's training, question-to-SQL, join-search and
baseline-mapper paths.

    python3 perfbench/run.py --workload {train,tag,join,mappers} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout.  With ``--trace 0`` the run sets
up several times, then times the workload's ops with nothing wrapped and
prints the end-to-end metrics.  With ``--trace 1`` it sets up once, then
alternates untraced and traced passes over the same ops, checks that both
give the same outputs and prints the per-layer metrics and the tracing
overhead.  Every output is checked; the last line of stdout is the JSON
result.  Spans and a full result file go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
REQUIRED_FILES = ("src/dbtagger/__init__.py",) + tuple(
    f"tests/fixtures/{name}"
    for name in ("fixture_corpus.tsv", "fixture_embeddings.vec", "imdb_subset.json", "imdb_full.json", "yelp_full.json")
)
WORKLOAD_NAMES = ("train", "tag", "join", "mappers")


def _blas_threads() -> int | None:
    """Thread count reported by the loaded OpenBLAS, if any."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            libs = {line.split()[-1] for line in maps if "openblas" in line.lower() and "/" in line}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy as np

    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": info.get("name"), "version": info.get("version")}
    except (TypeError, KeyError):
        blas = {"name": None, "version": None}
    blas["threads"] = _blas_threads()
    blas["thread_env"] = {
        key: os.environ[key]
        for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        if key in os.environ
    }
    return {
        "cores": len(os.sched_getaffinity(0)),
        "blas": blas,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "git_commit": _git_commit(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def verify_all(wl, state, samples) -> dict[int, str]:
    """Sample index -> what is wrong with its output."""
    failures = {}
    for i, sample in enumerate(samples):
        problem = wl.verify(state, sample)
        if problem:
            failures[i] = f"{sample.kind} {sample.op!r:.120}: {problem}"
    return failures


def timed_run(wl, seed: int, seconds: float):
    from workloads import clocks, quantile

    setup_times = []
    state = None
    for _ in range(wl.setup_repeats):
        state = None
        gc.collect()
        start = clocks()
        state = wl.setup(ROOT, seed)
        setup_times.append([b - a for a, b in zip(start, clocks())])
    wl.prepare_checks(state)
    stream = wl.stream(state)
    wl.run(state, iter(wl.warmup_ops(state)), math.inf, 0)
    start = clocks()
    samples = wl.run(state, stream, start[1] + seconds, wl.min_ops)
    elapsed, wall_elapsed = (b - a for a, b in zip(start, clocks()))
    failures = verify_all(wl, state, samples)

    def summary(ms, setup, seconds):
        return {
            "setup_s": (statistics.median(setup), "s"),
            "p50_ms": (quantile(ms, 50), "ms"),
            "tail_ms": (quantile(ms, wl.tail_pct), "ms"),
            "ops_per_s": (len(samples) / seconds, "1/s"),
        }

    metrics = summary([s.ms for s in samples], [cpu for cpu, _ in setup_times], elapsed)
    metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
    named = dict(wl.named_metrics(state, samples, elapsed))
    named["setup_s"] = metrics["setup_s"]
    named["peak_rss_mb"] = metrics["peak_rss_mb"]
    wall = summary([s.wall_ms for s in samples], [w for _, w in setup_times], wall_elapsed)
    named.update({f"wall.{name}": value for name, value in wall.items()})
    info = {
        "samples": len(samples),
        "tail_percentile": wl.tail_pct,
        "measured_cpu_s": elapsed,
        "measured_wall_s": wall_elapsed,
        "setup_runs_cpu_wall_s": setup_times,
    }
    return samples, failures, metrics, named, info


def traced_run(wl, seed: int, seconds: float):
    import layers
    from tracing import Tracer
    from workloads import quantile

    tracer = Tracer()
    layers.patch(tracer, layers.SETUP_TARGETS)
    try:
        state = wl.setup(ROOT, seed)
    finally:
        tracer.unpatch()
    wl.prepare_checks(state)
    ops = wl.trace_ops(state)
    wl.run(state, iter(wl.warmup_ops(state)), math.inf, 0)
    plain, traced = [], []
    passes = 0
    deadline = time.perf_counter() + seconds
    while True:
        passes += 1
        plain += wl.run(state, iter(ops), math.inf, 0)
        layers.patch(tracer, layers.RUN_TARGETS)
        try:
            traced += wl.run(state, iter(ops), math.inf, 0, tracer)
        finally:
            tracer.unpatch()
        if time.perf_counter() >= deadline:
            break
    failures = verify_all(wl, state, plain + traced)
    for i, (a, b) in enumerate(zip(plain, traced)):
        if (a.op, a.output) != (b.op, b.output):
            failures[len(plain) + i] = f"{b.kind} {b.op!r:.120}: traced output differs from untraced"
    metrics = layers.per_layer_metrics(tracer, len(traced))
    for label, pct in (("p50", 50), ("tail", wl.tail_pct)):
        overhead = quantile([s.ms for s in traced], pct) - quantile([s.ms for s in plain], pct)
        metrics[f"trace.overhead_{label}_ms"] = (overhead, "ms")
    info = {
        "samples": len(plain) + len(traced),
        "passes": passes,
        "missing_layers": sorted(set(tracer.missing)),
    }
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write_jsonl(OUT_DIR / f"trace-{wl.name}-seed{seed}.jsonl")
    return plain + traced, failures, metrics, {}, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in REQUIRED_FILES if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: not a dbtagger source tree, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    run = traced_run if args.trace else timed_run
    samples, failures, metrics, named, info = run(wl, args.seed, args.seconds)
    named["error_rate"] = (len(failures) / len(samples), "ratio")
    env = environment()

    print(f"perfbench workload={wl.name} seed={args.seed} trace={args.trace} samples={info['samples']}")
    print("env " + json.dumps(env, sort_keys=True))
    for name, (value, unit) in {**named, **metrics}.items():
        print(f"metric {name} {value!r} {unit}")
    if info.get("missing_layers"):
        print("layers missing: " + ", ".join(info["missing_layers"]))
    for failure in list(failures.values())[:20]:
        print("failure " + failure)

    result = {
        "correct": not failures,
        "attempted": len(samples),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    detail = {**result, "named": {k: {"value": v, "unit": u} for k, (v, u) in named.items()},
              "info": info, "env": env, "failures": list(failures.values())}
    (OUT_DIR / f"result-{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1, sort_keys=True), encoding="utf-8"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
