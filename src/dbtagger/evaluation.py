"""Scoring of schema-tag predictions (token accuracy, macro-F1 over
gold-present tags, relation vs non-relation splits) and wall-clock /
memory benchmarking of arbitrary mappers.

Macro-F1 averages the per-tag F1 over the tags present in the gold data,
unweighted; the report header states this.  Benchmark numbers are only
ever asserted ordinally (faster/slower, grows/flat).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from statistics import median

from .corpus import Dataset, RELATION_TYPE_TAGS


@dataclass(frozen=True)
class TagScore:
    precision: float
    recall: float
    f1: float
    support: int


@dataclass(frozen=True)
class MetricsReport:
    token_accuracy: float
    macro_f1: float
    relation_accuracy: float
    nonrelation_accuracy: float
    per_tag: dict[str, TagScore] = field(default_factory=dict)
    total_tokens: int = 0
    correct_tokens: int = 0
    relation_tokens: int = 0
    relation_correct: int = 0
    nonrelation_tokens: int = 0
    nonrelation_correct: int = 0

    def __post_init__(self):
        for name in ("token_accuracy", "macro_f1", "relation_accuracy", "nonrelation_accuracy"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} = {rate} outside [0, 1]")
        if self.correct_tokens > self.total_tokens:
            raise ValueError("correct token count exceeds total")


def score(predictions: list[list[str]], gold: Dataset) -> MetricsReport:
    """Token-level scoring of predicted schema tags against the gold corpus.

    Relation tokens are those whose *gold* type is TABLE/TABLEREF/ATTR/
    ATTRREF; non-relation tokens are gold VALUEs.  COND and O count toward
    overall accuracy only.
    """
    if len(predictions) != len(gold.queries):
        raise ValueError(
            f"{len(predictions)} prediction sequences for {len(gold.queries)} gold queries"
        )
    total = correct = 0
    rel_total = rel_correct = 0
    val_total = val_correct = 0
    tp: dict[str, int] = {}
    fp: dict[str, int] = {}
    fn: dict[str, int] = {}
    support: dict[str, int] = {}

    for qi, (pred_tags, query) in enumerate(zip(predictions, gold.queries)):
        if len(pred_tags) != len(query):
            raise ValueError(
                f"query {qi}: {len(pred_tags)} predictions for {len(query)} tokens"
            )
        for pred, token in zip(pred_tags, query.tokens):
            gold_tag = token.schema_tag
            hit = pred == gold_tag
            total += 1
            correct += hit
            support[gold_tag] = support.get(gold_tag, 0) + 1
            if hit:
                tp[gold_tag] = tp.get(gold_tag, 0) + 1
            else:
                fn[gold_tag] = fn.get(gold_tag, 0) + 1
                fp[pred] = fp.get(pred, 0) + 1
            if token.type_tag in RELATION_TYPE_TAGS:
                rel_total += 1
                rel_correct += hit
            elif token.type_tag == "VALUE":
                val_total += 1
                val_correct += hit

    per_tag = {}
    for tag in sorted(support):
        tp_t, fp_t, fn_t = tp.get(tag, 0), fp.get(tag, 0), fn.get(tag, 0)
        precision = tp_t / (tp_t + fp_t) if tp_t + fp_t else 0.0
        recall = tp_t / (tp_t + fn_t) if tp_t + fn_t else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        per_tag[tag] = TagScore(precision=precision, recall=recall, f1=f1, support=support[tag])

    return MetricsReport(
        token_accuracy=correct / total if total else 1.0,
        macro_f1=(sum(s.f1 for s in per_tag.values()) / len(per_tag)) if per_tag else 1.0,
        relation_accuracy=rel_correct / rel_total if rel_total else 1.0,
        nonrelation_accuracy=val_correct / val_total if val_total else 1.0,
        per_tag=per_tag,
        total_tokens=total,
        correct_tokens=correct,
        relation_tokens=rel_total,
        relation_correct=rel_correct,
        nonrelation_tokens=val_total,
        nonrelation_correct=val_correct,
    )


def average_reports(reports: list[MetricsReport]) -> MetricsReport:
    """Unweighted mean of the headline rates over folds; counts are summed."""
    if not reports:
        raise ValueError("no reports to average")
    n = len(reports)
    return MetricsReport(
        token_accuracy=sum(r.token_accuracy for r in reports) / n,
        macro_f1=sum(r.macro_f1 for r in reports) / n,
        relation_accuracy=sum(r.relation_accuracy for r in reports) / n,
        nonrelation_accuracy=sum(r.nonrelation_accuracy for r in reports) / n,
        total_tokens=sum(r.total_tokens for r in reports),
        correct_tokens=sum(r.correct_tokens for r in reports),
        relation_tokens=sum(r.relation_tokens for r in reports),
        relation_correct=sum(r.relation_correct for r in reports),
        nonrelation_tokens=sum(r.nonrelation_tokens for r in reports),
        nonrelation_correct=sum(r.nonrelation_correct for r in reports),
    )


def render_report(report: MetricsReport, title: str = "metrics") -> str:
    lines = [
        f"# {title} (macro-F1 = unweighted mean F1 over gold-present schema tags)",
        f"token_accuracy\t{report.token_accuracy:.4f}",
        f"macro_f1\t{report.macro_f1:.4f}",
        f"relation_accuracy\t{report.relation_accuracy:.4f}",
        f"nonrelation_accuracy\t{report.nonrelation_accuracy:.4f}",
        f"tokens\t{report.correct_tokens}/{report.total_tokens}",
        f"relation_tokens\t{report.relation_correct}/{report.relation_tokens}",
        f"nonrelation_tokens\t{report.nonrelation_correct}/{report.nonrelation_tokens}",
    ]
    if report.per_tag:
        lines.append("tag\tprecision\trecall\tf1\tsupport")
        for tag, s in report.per_tag.items():
            lines.append(f"{tag}\t{s.precision:.4f}\t{s.recall:.4f}\t{s.f1:.4f}\t{s.support}")
    return "\n".join(lines) + "\n"


def report_as_dict(report: MetricsReport) -> dict:
    out = {
        "token_accuracy": report.token_accuracy,
        "macro_f1": report.macro_f1,
        "relation_accuracy": report.relation_accuracy,
        "nonrelation_accuracy": report.nonrelation_accuracy,
        "total_tokens": report.total_tokens,
        "correct_tokens": report.correct_tokens,
        "relation_tokens": report.relation_tokens,
        "relation_correct": report.relation_correct,
        "nonrelation_tokens": report.nonrelation_tokens,
        "nonrelation_correct": report.nonrelation_correct,
    }
    if report.per_tag:
        out["per_tag"] = {
            tag: {"precision": s.precision, "recall": s.recall, "f1": s.f1, "support": s.support}
            for tag, s in report.per_tag.items()
        }
    return out


# ---------------------------------------------------------------------------
# benchmarking


@dataclass(frozen=True)
class BenchReport:
    mapper: str
    samples: int
    min_ms: float
    median_ms: float
    p95_ms: float
    mem_bytes: int = 0
    rows: int | None = None

    def __post_init__(self):
        if self.min_ms < 0:
            raise ValueError("latencies must be non-negative")


@dataclass(frozen=True)
class MapperFamily:
    """A named way to build a per-query mapper from a content snapshot.

    ``build(snapshot)`` returns ``(mapper_fn, mem_bytes)`` where the
    estimate is structure-size accounting, kept deterministic on purpose.
    """

    name: str
    build: object  # Callable[[ContentSnapshot], tuple[Callable, int]]


def bench_latency(
    mapper_fn,
    queries: list,
    repetitions: int = 5,
    name: str = "mapper",
    mem_bytes: int = 0,
    rows: int | None = None,
) -> BenchReport:
    """Per-call wall-clock distribution of ``mapper_fn`` over the queries,
    after one untimed warm-up sweep."""
    if repetitions < 1:
        raise ValueError(f"repetitions must be >= 1, got {repetitions}")
    for q in queries:
        mapper_fn(q)
    samples = []
    for _ in range(repetitions):
        for q in queries:
            start = time.perf_counter()
            mapper_fn(q)
            samples.append((time.perf_counter() - start) * 1000.0)
    ordered = sorted(samples)
    p95 = ordered[min(len(ordered) - 1, round(0.95 * (len(ordered) - 1)))]
    return BenchReport(
        mapper=name,
        samples=len(samples),
        min_ms=ordered[0],
        median_ms=median(samples),
        p95_ms=p95,
        mem_bytes=mem_bytes,
        rows=rows,
    )


def bench_scaling(
    families: list[MapperFamily],
    snapshot_generator,
    row_counts: list[int],
    queries: list,
    repetitions: int = 3,
) -> list[BenchReport]:
    """One report per (row count, mapper family), with the same queries at
    every size so latencies are comparable across sizes."""
    reports = []
    for rows in row_counts:
        snapshot = snapshot_generator(rows)
        for family in families:
            mapper_fn, mem = family.build(snapshot)
            reports.append(
                bench_latency(
                    mapper_fn,
                    queries,
                    repetitions=repetitions,
                    name=family.name,
                    mem_bytes=mem,
                    rows=rows,
                )
            )
    return reports


def scaling_csv(reports: list[BenchReport]) -> str:
    lines = ["rows,mapper,median_ms,mem_bytes"]
    for r in reports:
        lines.append(f"{r.rows},{r.mapper},{r.median_ms:.6f},{r.mem_bytes}")
    return "\n".join(lines) + "\n"
