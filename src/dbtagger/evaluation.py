"""Scoring of schema-tag predictions (token accuracy, macro-F1 over
gold-present tags, relation vs non-relation splits) and wall-clock /
memory benchmarking of arbitrary mappers.

Macro-F1 averages the per-tag F1 over the tags present in the gold data,
unweighted; the report header states this.  Benchmark numbers are only
ever asserted ordinally (faster/slower, grows/flat).
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field, fields
from statistics import median

from .corpus import Dataset, RELATION_TYPE_TAGS


@dataclass(frozen=True)
class TagScore:
    precision: float
    recall: float
    f1: float
    support: int


RATES = ("token_accuracy", "macro_f1", "relation_accuracy", "nonrelation_accuracy")


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
        for name in RATES:
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
    totals = {
        f.name: sum(getattr(r, f.name) for r in reports)
        for f in fields(MetricsReport)
        if f.name != "per_tag"
    }
    return MetricsReport(**{k: v / n if k in RATES else v for k, v in totals.items()})


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
    out = asdict(report)
    if not report.per_tag:
        del out["per_tag"]
    return out


# ---------------------------------------------------------------------------
# benchmarking


@dataclass(frozen=True)
class BenchReport:
    mapper: str
    rows: int
    median_ms: float
    mem_bytes: int


def bench_latency(mapper_fn, queries: list, repetitions: int) -> float:
    """Median per-call wall-clock milliseconds of ``mapper_fn`` over the
    queries, each timed ``repetitions`` times after one untimed warm-up
    sweep."""
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
    return median(samples)


def bench_scaling(
    mappers: list, snapshot_generator, row_counts: list[int], queries: list, repetitions: int
) -> list[BenchReport]:
    """One report per (row count, mapper), with the same queries at every
    size so latencies are comparable across sizes.  ``mappers`` holds
    (name, build) pairs: ``build(snapshot)`` returns ``(mapper_fn,
    mem_bytes)``, the estimate being structure-size accounting, kept
    deterministic on purpose."""
    if not row_counts or min(row_counts) < 1:
        raise ValueError(f"row counts must be >= 1, got {min(row_counts, default='none')}")
    reports = []
    for rows in row_counts:
        snapshot = snapshot_generator(rows)
        for name, build in mappers:
            mapper_fn, mem = build(snapshot)
            median_ms = bench_latency(mapper_fn, queries, repetitions)
            reports.append(BenchReport(name, rows, median_ms, mem))
    return reports


def scaling_csv(reports: list[BenchReport]) -> str:
    lines = ["rows,mapper,median_ms,mem_bytes"]
    for r in reports:
        lines.append(f"{r.rows},{r.mapper},{r.median_ms:.6f},{r.mem_bytes}")
    return "\n".join(lines) + "\n"
