"""Command-line entry point: train, tag, eval, cv, bench, stats and
translate subcommands.

All randomness funnels through --seed; identical argv and input files
produce byte-identical outputs (benchmark timings excepted, they measure
the wall clock).  DBTAG_THREADS caps fold parallelism.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import baselines, corpus, evaluation, schema as schema_mod, translate as translate_mod
from .corpus import CorpusError, parse_corpus, train_val_split
from .embeddings import load_embeddings
from .evaluation import bench_scaling, render_report, report_as_dict, scaling_csv
from .schema import load_schema, synthetic_snapshot
from .tagger import (
    TaggedQuery, TaggedToken, load_model, merge_value_spans, save_model, tag_queries, tag_query,
)
from .training import TrainConfig, cross_validate, fit_variant, history_lines
from .variants import VARIANTS


def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _parse_weights(raw: str) -> tuple[float, float, float]:
    parts = raw.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("weights must be three comma-separated numbers")
    return tuple(float(p) for p in parts)  # type: ignore[return-value]


def _parse_rows(raw: str) -> list[int]:
    return [int(p) for p in raw.split(",") if p]


# TrainConfig fields set by flags of the same name (``--switch-epoch`` for
# switch_epoch), each defaulting to the field's default; --seed is global.
_TRAIN_FLAGS = (
    ("epochs", int),
    ("switch_epoch", int),
    ("batch_size", int),
    ("hidden", int),
    ("dropout", float),
    ("weights", _parse_weights),
    ("patience", int),
)


def _config_from_args(args) -> TrainConfig:
    return TrainConfig(seed=args.seed, **{name: getattr(args, name) for name, _ in _TRAIN_FLAGS})


def _add_train_flags(parser: argparse.ArgumentParser):
    """The inputs read by ``_read_training_inputs`` and the training flags."""
    for flag in ("--corpus", "--schema", "--emb"):
        parser.add_argument(flag, required=True)
    for name, kind in _TRAIN_FLAGS:
        flag = "--" + name.replace("_", "-")
        parser.add_argument(flag, type=kind, default=getattr(TrainConfig, name))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dbtagger",
        description="Schema-aware keyword mapping for natural-language database queries.",
    )
    parser.add_argument("--seed", type=int, default=TrainConfig.seed)
    parser.add_argument("--format", choices=("text", "json"), default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="fit a tagging model and save it")
    _add_train_flags(p)
    p.add_argument("--out", required=True)
    p.add_argument("--history", default=None)

    p = sub.add_parser("tag", help="tag whitespace-tokenized queries, one per line")
    p.add_argument("--model", required=True)
    p.add_argument("--input", default=None, help="query file; stdin when omitted")

    p = sub.add_parser("eval", help="score a model against an annotated corpus")
    p.add_argument("--model", required=True)
    p.add_argument("--corpus", required=True)

    p = sub.add_parser("cv", help="k-fold cross-validated training and scoring")
    _add_train_flags(p)
    p.add_argument("--k", type=int, default=6)
    p.add_argument("--variant", default="DBTagger", choices=VARIANTS + ("all",))

    p = sub.add_parser("bench", help="latency/memory scaling over synthetic snapshots")
    p.add_argument("--schema", required=True)
    p.add_argument("--model", default=None)
    p.add_argument("--rows", type=_parse_rows, default=[1000, 10000, 100000])
    p.add_argument("--queries", default=None, help="file of queries, one per line")
    p.add_argument("--reps", type=int, default=3)
    p.add_argument("--out", default=None, help="CSV path; stdout when omitted")

    p = sub.add_parser("stats", help="schema statistics and the derived tag count")
    p.add_argument("--schema", required=True)
    p.add_argument("--expected-tags", type=int, default=None, dest="expected_tags")

    p = sub.add_parser("translate", help="render the SQL skeleton for a tagged query")
    p.add_argument("--schema", required=True)
    p.add_argument("--tagged", default=None, help="3-column TSV: token, type, schema")
    p.add_argument("--model", default=None)
    p.add_argument("--query", default=None, help="whitespace-tokenized query text")
    return parser


def _read_training_inputs(args):
    """The corpus, schema and embeddings named by --corpus, --schema, --emb."""
    return (
        parse_corpus(_read(args.corpus), name=Path(args.corpus).stem),
        load_schema(_read(args.schema)),
        load_embeddings(_read(args.emb)),
    )


def _cmd_train(args) -> int:
    history_path = args.history or f"{args.out}.history.csv"
    for path in (args.out, history_path):
        if not Path(path).parent.is_dir():
            raise ValueError(f"cannot write {path}: no directory {Path(path).parent}")
    dataset, db_schema, embeddings = _read_training_inputs(args)
    config = _config_from_args(args)
    if len(dataset) >= 6:
        train_ds, val_ds = train_val_split(dataset, config.seed)
    else:
        train_ds, val_ds = dataset, None
    model, history = fit_variant(
        "DBTagger", train_ds, dataset, db_schema, embeddings, config, val=val_ds
    )
    Path(args.out).write_bytes(save_model(model))
    Path(history_path).write_text(history_lines(history), encoding="utf-8")
    print(f"saved model to {args.out} ({len(history)} epochs; history in {history_path})")
    return 0


def _emit_tagged(tagged: TaggedQuery, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(
            {
                "tokens": [t.text for t in tagged.tokens],
                "type_tags": [t.type_tag for t in tagged.tokens],
                "schema_tags": [t.schema_tag for t in tagged.tokens],
                "value_spans": [
                    {"start": s.start, "end": s.end, "attribute": s.attribute, "text": s.text}
                    for s in tagged.value_spans
                ],
            },
            sort_keys=True,
        ) + "\n"
    lines = [f"{t.text}\t{t.type_tag}\t{t.schema_tag}" for t in tagged.tokens]
    return "\n".join(lines) + "\n"


def _cmd_tag(args) -> int:
    model = load_model(Path(args.model).read_bytes())
    text = _read(args.input) if args.input else sys.stdin.read()
    sentences = [tokens for tokens in map(str.split, text.splitlines()) if tokens]
    tagged = [_emit_tagged(query, args.format) for query in tag_queries(model, sentences)]
    # text blocks are separated by a blank line, JSON objects are one a line
    print(("" if args.format == "json" else "\n").join(tagged), end="")
    return 0


def _cmd_eval(args) -> int:
    model = load_model(Path(args.model).read_bytes())
    dataset = parse_corpus(_read(args.corpus), name=Path(args.corpus).stem)
    report = evaluation.score(model.predict_tags([q.words for q in dataset.queries]), dataset)
    _print_report(report, args.format, title=f"eval {dataset.name}")
    return 0


def _print_report(report, fmt: str, title: str):
    if fmt == "json":
        print(json.dumps(report_as_dict(report), sort_keys=True))
    else:
        print(render_report(report, title=title), end="")


def _cmd_cv(args) -> int:
    dataset, db_schema, embeddings = _read_training_inputs(args)
    config = _config_from_args(args)
    variants = VARIANTS if args.variant == "all" else (args.variant,)
    for variant in variants:
        folds, mean = cross_validate(
            dataset, db_schema, embeddings, config, k=args.k, variant=variant
        )
        if args.format == "json":
            print(
                json.dumps(
                    {
                        "variant": variant,
                        "folds": [report_as_dict(r) for r in folds],
                        "mean": report_as_dict(mean),
                    },
                    sort_keys=True,
                )
            )
        else:
            for i, fold in enumerate(folds):
                print(f"{variant}\tfold{i}\taccuracy={fold.token_accuracy:.4f}\tf1={fold.macro_f1:.4f}")
            print(f"{variant}\tmean\taccuracy={mean.token_accuracy:.4f}\tf1={mean.macro_f1:.4f}")
    return 0


def _cmd_bench(args) -> int:
    db_schema = load_schema(_read(args.schema))
    if args.queries:
        query_lines = [ln.split() for ln in _read(args.queries).splitlines() if ln.strip()]
    else:
        query_lines = [
            ["what", "is", "the", "maple", "grove"],
            ["find", "the", "velvet", "raven", "records"],
        ]

    def build_scan(snapshot):
        def run(tokens: list[str]):
            grams = [
                (i, min(i + 3, len(tokens)), " ".join(tokens[i : min(i + 3, len(tokens))]))
                for i in range(0, len(tokens), 3)
            ]
            return baselines.scan_map(snapshot, grams)

        return run, snapshot.estimated_bytes()

    def build_index(snapshot):
        index = baselines.build_value_index(snapshot, db_schema)

        def run(tokens: list[str]):
            return baselines.tfidf_map(index, tokens)

        return run, index.estimated_bytes()

    mappers = [("scan", build_scan), ("inv_index", build_index)]

    if args.model:
        model = load_model(Path(args.model).read_bytes())

        def build_model(snapshot):
            return (lambda tokens: tag_query(model, tokens)), model.estimated_bytes()

        mappers.append(("tagger", build_model))

    reports = bench_scaling(
        mappers,
        lambda rows: synthetic_snapshot(db_schema, rows, seed=args.seed),
        args.rows,
        query_lines,
        repetitions=args.reps,
    )
    csv = scaling_csv(reports)
    if args.out:
        Path(args.out).write_text(csv, encoding="utf-8")
        print(f"wrote {args.out}")
    else:
        print(csv, end="")
    return 0


def _cmd_stats(args) -> int:
    db_schema = load_schema(_read(args.schema))
    stats = schema_mod.schema_stats(db_schema, expected_tags=args.expected_tags)
    rows = [  # (text label, JSON key, value); text omits the None values
        ("schema", "schema", stats.schema_name),
        ("entity tables", "entity_tables", stats.entity_tables),
        ("relation tables", "relation_tables", stats.relation_tables),
        ("total tables", "total_tables", stats.total_tables),
        ("total attributes", "total_attributes", stats.total_attributes),
        ("nonPK-FK attributes", "nonPK_FK_attributes", stats.non_pk_fk_attributes),
        ("derived tags", "derived_tags", stats.derived_tag_count),
        ("expected tags", "expected_tags", stats.expected_tag_count),
        ("WARNING", "warning", stats.warning),
    ]
    if args.format == "json":
        print(json.dumps({key: value for _, key, value in rows}, sort_keys=True))
    else:
        for label, _, value in rows:
            if value is not None:
                print(f"{label}\t{value}")
    return 0


def _parse_tagged_tsv(text: str) -> TaggedQuery:
    tokens = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip() or line.startswith("#"):
            continue
        cols = line.split("\t")
        if len(cols) != 3:
            raise CorpusError("expected 3 tab-separated columns (token, type, schema)", line=lineno)
        token, type_tag, schema_tag = cols[0], cols[1], corpus.canonical_schema_tag(cols[2])
        try:
            corpus.check_tag_pair(token, type_tag, schema_tag)
        except CorpusError as exc:
            raise CorpusError(str(exc), line=lineno) from None
        tokens.append(TaggedToken(text=token, type_tag=type_tag, schema_tag=schema_tag))
    if not tokens:
        raise CorpusError("no tagged tokens")
    return TaggedQuery(tokens=tuple(tokens), value_spans=merge_value_spans(tokens))


def _cmd_translate(args) -> int:
    db_schema = load_schema(_read(args.schema))
    if args.tagged:
        tagged = _parse_tagged_tsv(_read(args.tagged))
    elif args.model and args.query:
        model = load_model(Path(args.model).read_bytes())
        tagged = tag_query(model, args.query.split())
    else:
        print("error: translate needs --tagged or both --model and --query", file=sys.stderr)
        return 2
    mappings = translate_mod.mappings_from_tags(tagged)
    graph = schema_mod.build_schema_graph(db_schema)
    try:
        path = translate_mod.infer_join_path(graph, mappings)
    except translate_mod.JoinPathError:
        print("INACCURATE: no join path")
        return 0
    print(translate_mod.render_sql(path, mappings))
    return 0


_COMMANDS = {
    "train": _cmd_train,
    "tag": _cmd_tag,
    "eval": _cmd_eval,
    "cv": _cmd_cv,
    "bench": _cmd_bench,
    "stats": _cmd_stats,
    "translate": _cmd_translate,
}


def run(argv: list[str]) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.seed < 0:
            raise ValueError(f"--seed must be >= 0, got {args.seed}")
        return _COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
