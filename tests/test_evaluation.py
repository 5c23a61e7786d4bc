import time

import pytest

from dbtagger.corpus import Dataset, parse_corpus
from dbtagger.evaluation import (
    MetricsReport,
    average_reports,
    bench_latency,
    bench_scaling,
    render_report,
    report_as_dict,
    scaling_csv,
    score,
)


def _gold(text):
    return parse_corpus(text)


TEN_TOKENS = (
    "a\tNN\tTABLE\tmovie\n"
    "b\tNN\tTABLE\tmovie\n"
    "c\tNN\tATTR\tmovie.title\n"
    "d\tNN\tATTR\tmovie.title\n"
    "e\tNNP\tVALUE\tmovie.title\n"
    "f\tNNP\tVALUE\tmovie.title\n"
    "g\tNNP\tVALUE\tcast.role\n"
    "h\tIN\tCOND\tCOND\n"
    "i\tDT\tO\tO\n"
    "j\tDT\tO\tO\n"
)


def test_score_eight_of_ten():
    gold = _gold(TEN_TOKENS)
    predictions = [["movie", "movie", "movie.title", "movie.title", "movie.title",
                    "movie.title", "cast.role", "COND", "movie", "movie"]]
    report = score(predictions, gold)
    assert report.token_accuracy == pytest.approx(0.8)
    assert report.total_tokens == 10 and report.correct_tokens == 8


def test_score_perfect():
    gold = _gold(TEN_TOKENS)
    predictions = [[t.schema_tag for t in gold.queries[0].tokens]]
    report = score(predictions, gold)
    assert report.token_accuracy == 1.0
    assert report.macro_f1 == 1.0
    assert report.relation_accuracy == 1.0
    assert report.nonrelation_accuracy == 1.0


def test_score_relation_and_value_subsets():
    gold = _gold(TEN_TOKENS)
    # miss every relation token (gold types TABLE/ATTR, 4 of them), hit the rest
    predictions = [["O", "O", "O", "O", "movie.title",
                    "movie.title", "cast.role", "COND", "O", "O"]]
    report = score(predictions, gold)
    assert report.relation_tokens == 4 and report.relation_correct == 0
    assert report.nonrelation_tokens == 3 and report.nonrelation_correct == 3
    assert report.relation_accuracy == 0.0
    assert report.nonrelation_accuracy == 1.0
    # COND and O count only toward the overall rate
    assert report.token_accuracy == pytest.approx(0.6)


def test_macro_f1_hand_confusion_matrix():
    gold = _gold("a\tNN\tTABLE\tmovie\nb\tNN\tTABLE\tmovie\nc\tNN\tTABLE\tpeople\n")
    predictions = [["movie", "movie", "movie"]]
    report = score(predictions, gold)
    # movie: tp=2 fp=1 fn=0 -> p=2/3, r=1, f1=0.8 ; people: fully missed -> 0
    assert report.per_tag["movie"].f1 == pytest.approx(0.8)
    assert report.per_tag["people"].f1 == 0.0
    assert report.macro_f1 == pytest.approx((0.8 + 0.0) / 2)


def test_score_permutation_invariant_over_queries():
    text = "a\tNN\tTABLE\tmovie\n\nb\tNNP\tVALUE\tmovie.title\n"
    gold = _gold(text)
    preds = [["movie"], ["cast"]]
    fwd = score(preds, gold)
    swapped_gold = Dataset(queries=(gold.queries[1], gold.queries[0]), name="swap")
    rev = score(list(reversed(preds)), swapped_gold)
    assert fwd.token_accuracy == rev.token_accuracy
    assert fwd.macro_f1 == rev.macro_f1


def test_score_accuracy_equals_one_minus_hamming():
    gold = _gold(TEN_TOKENS)
    predictions = [["movie", "x", "movie.title", "y", "movie.title",
                    "z", "cast.role", "COND", "O", "O"]]
    report = score(predictions, gold)
    hamming = sum(
        p != t.schema_tag for p, t in zip(predictions[0], gold.queries[0].tokens)
    )
    assert report.token_accuracy == 1.0 - hamming / report.total_tokens


def test_score_alignment_errors():
    gold = _gold(TEN_TOKENS)
    with pytest.raises(ValueError, match="prediction sequences"):
        score([], gold)
    with pytest.raises(ValueError, match="10 tokens"):
        score([["movie"]], gold)


def test_metrics_report_validates_rates():
    with pytest.raises(ValueError):
        MetricsReport(token_accuracy=1.2, macro_f1=0, relation_accuracy=0, nonrelation_accuracy=0)


def test_average_reports():
    a = MetricsReport(1.0, 1.0, 1.0, 1.0, total_tokens=4, correct_tokens=4)
    b = MetricsReport(0.5, 0.3, 0.2, 0.1, total_tokens=6, correct_tokens=3)
    mean = average_reports([a, b])
    assert mean.token_accuracy == pytest.approx(0.75)
    assert mean.macro_f1 == pytest.approx(0.65)
    assert mean.total_tokens == 10 and mean.correct_tokens == 7


REPORT_KEYS = {
    "token_accuracy", "macro_f1", "relation_accuracy", "nonrelation_accuracy",
    "total_tokens", "correct_tokens", "relation_tokens", "relation_correct",
    "nonrelation_tokens", "nonrelation_correct",
}


def test_report_as_dict_keys_of_a_fold_and_an_averaged_report():
    gold = _gold(TEN_TOKENS)
    fold = score([[t.schema_tag for t in gold.queries[0].tokens]], gold)
    as_dict = report_as_dict(fold)
    assert set(as_dict) == REPORT_KEYS | {"per_tag"}
    assert set(as_dict["per_tag"]) == {"COND", "O", "cast.role", "movie", "movie.title"}
    assert all(
        set(scores) == {"precision", "recall", "f1", "support"}
        for scores in as_dict["per_tag"].values()
    )
    assert as_dict["per_tag"]["movie"] == {"precision": 1.0, "recall": 1.0, "f1": 1.0, "support": 2}
    mean = average_reports([fold, fold])
    assert set(report_as_dict(mean)) == REPORT_KEYS
    assert report_as_dict(mean)["total_tokens"] == 20


def test_render_report_mentions_macro_choice():
    report = MetricsReport(1.0, 1.0, 1.0, 1.0)
    assert "unweighted mean F1" in render_report(report)


def test_bench_latency_calibrated_stub():
    delay = 0.004
    calls = []

    def stub(query):
        calls.append(query)
        time.sleep(delay)

    median_ms = bench_latency(stub, ["q1", "q2"], repetitions=4)
    assert len(calls) == 2 + 4 * 2  # one warm-up sweep, then 4 timed sweeps
    assert median_ms == pytest.approx(delay * 1000, rel=0.5)
    assert median_ms >= delay * 1000 * 0.8


def test_bench_latency_monotone_under_added_delay():
    def fast(query):
        time.sleep(0.001)

    def slow(query):
        time.sleep(0.004)

    assert bench_latency(slow, ["q"], repetitions=5) > bench_latency(fast, ["q"], repetitions=5)


def test_bench_scaling_structure():
    built = []

    def family_build(snapshot):
        built.append(snapshot)
        return (lambda q: None), snapshot  # snapshot doubles as the size

    reports = bench_scaling(
        [("noop", family_build)],
        snapshot_generator=lambda rows: rows * 10,
        row_counts=[10, 100],
        queries=["q"],
        repetitions=2,
    )
    assert [r.rows for r in reports] == [10, 100]
    assert [r.mem_bytes for r in reports] == [100, 1000]
    assert built == [100, 1000]
    csv = scaling_csv(reports)
    lines = csv.splitlines()
    assert lines[0] == "rows,mapper,median_ms,mem_bytes"
    assert lines[1].startswith("10,noop,") and lines[1].endswith(",100")


def test_trained_tagger_latency_regression_bound(overfit_model, table1_query):
    # first measurement came in around 3-6 ms per 10-token query; pinned
    # here with an order-of-magnitude cushion as a regression bound
    from dbtagger.tagger import tag_query

    model, _ = overfit_model
    median_ms = bench_latency(
        lambda tokens: tag_query(model, tokens), [table1_query.words], repetitions=5
    )
    assert median_ms < 100.0


def test_bench_latency_rejects_zero_repetitions():
    calls = []
    with pytest.raises(ValueError, match="repetitions must be >= 1, got 0"):
        bench_latency(calls.append, ["q"], repetitions=0)
    assert calls == []
