"""Acceptance suite.  One test per criterion, each printing a PASS/FAIL
line (run with ``pytest tests/test_acceptance.py -s`` to see them live).
Tolerances are pinned here, not configurable."""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import train_fixture_model
from dbtagger.baselines import (
    InvertedValueIndex,
    build_value_index,
    edit_distance_relation_map,
    scan_map,
    tfidf_map,
    word_ngrams,
)
from dbtagger.corpus import Dataset, TagLevel, build_tag_vocab, parse_corpus, serialize
from dbtagger.embeddings import EmbeddingTable
from dbtagger.evaluation import bench_scaling
from dbtagger.numerics import Tensor
from dbtagger.schema import load_schema, schema_stats, synthetic_snapshot
from dbtagger.tagger import (
    DBTaggerModel,
    TaskWeights,
    crf_log_partition,
    crf_nll,
    fresh_crf,
    load_model,
    model_forward,
    prepare_queries,
    query_inputs,
    save_model,
    tag_query,
    total_loss,
    viterbi_decode,
)
from dbtagger.training import TrainConfig, cross_validate, train
from dbtagger.translate import MappingSet, infer_join_path, JoinPathError
from dbtagger.variants import make_variant
from oracles import edge_pairs, finite_diff_check, random_schema_graph, steiner_min_edges
from test_baselines import reference_edit_distance

RNG = np.random.default_rng


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} FAIL {name}", flush=True)
        raise
    print(f"ACCEPTANCE {number:02d} PASS {name}", flush=True)


def enumerate_all_scores(G, A, k):
    """Vectorized score of every k^n tag sequence."""
    n = G.shape[0]
    seqs = np.indices((k,) * n).reshape(n, -1).T  # (k^n, n)
    scores = G[np.arange(n)[None, :], seqs].sum(axis=1)
    scores += A[k, seqs[:, 0]] + A[seqs[:, -1], k + 1]
    if n > 1:
        scores += A[seqs[:, :-1], seqs[:, 1:]].sum(axis=1)
    return seqs, scores


def test_criterion_1_crf_matches_enumeration():
    with criterion(1, "CRF log-partition and Viterbi match exhaustive enumeration"):
        started = time.perf_counter()
        rng = RNG(202)
        for trial in range(200):
            n = int(rng.integers(1, 7))
            k = int(rng.integers(1, 6))
            crf = fresh_crf(k, 2, rng)
            crf.transitions.data = rng.standard_normal((k + 2, k + 2))
            G = Tensor(rng.standard_normal((n, k)))
            seqs, scores = enumerate_all_scores(G.data, crf.transitions.data, k)

            shift = scores.max()
            want_log_z = shift + np.log(np.exp(scores - shift).sum())
            got_log_z = crf_log_partition(crf, G)[0].item()
            assert abs(got_log_z - want_log_z) <= 1e-8

            [(tags, got_best)] = viterbi_decode(crf, G)
            best = scores.max()
            assert abs(got_best - best) <= 1e-8
            winners = seqs[scores >= best - 1e-12]
            lexical_min = min(map(tuple, winners))
            assert tuple(tags) == lexical_min

            # distribution sanity: sequence probabilities sum to one
            assert abs(np.exp(scores - got_log_z).sum() - 1.0) <= 1e-8
        elapsed = time.perf_counter() - started
        assert elapsed < 10.0, f"enumeration check took {elapsed:.1f}s"


def _three_token_setup(seed=7):
    text = (
        "who\tWP\tO\tO\nacted\tVBD\tTABLEREF\tcast\nNash\tNNP\tVALUE\tcast.role\n"
    )
    ds = parse_corpus(text)
    rng = RNG(seed)
    words = {t.text for q in ds.queries for t in q.tokens}
    emb = EmbeddingTable(8, {w: rng.standard_normal(8) * 0.4 for w in words})
    vocabs = {lvl: build_tag_vocab(ds, lvl) for lvl in TagLevel}
    model = DBTaggerModel.build(emb, vocabs, hidden=8, seed=seed)
    return ds.queries[0], model


def test_criterion_2_gradients_match_finite_differences():
    with criterion(2, "model gradients match central finite differences"):
        started = time.perf_counter()
        query, model = _three_token_setup()
        params = [t for _, t in model.parameters()]

        def build():
            # dropout off: no mask stream
            loss, _, tape = total_loss(model, prepare_queries(model, [query]))
            return loss, tape

        err = finite_diff_check(build, params, h=1e-5, max_coords=200, rng=RNG(11))
        elapsed = time.perf_counter() - started
        assert err < 1e-4, f"max relative error {err}"
        assert elapsed < 60.0, f"gradient check took {elapsed:.1f}s"


def test_criterion_3_loss_composition_exact():
    with criterion(3, "total loss equals the weighted per-task sum exactly"):
        for seed in (7, 8, 9):
            query, model = _three_token_setup(seed)
            model.weights = TaskWeights(0.1, 0.2, 0.7)
            loss, _, _ = total_loss(model, prepare_queries(model, [query]))
            emissions = model_forward(model, query_inputs(model, [query.words]))[:3]
            parts = []
            for head, G in zip(model.heads, emissions):
                gold = [
                    model.vocabs[head.level].index_of(t) for t in query.tags(head.level)
                ]
                parts.append(crf_nll(head.crf, G, [gold]).item())
            hand = (0.1 * parts[0] + 0.2 * parts[1]) + 0.7 * parts[2]
            assert loss.item() == hand


def test_criterion_4_memorization(
    table1_text, fixture_corpus, imdb_subset, fixture_embeddings, overfit_model
):
    with criterion(4, "single-query and fixture-corpus memorization"):
        # single query, schema task only, within 500 epochs
        ds = parse_corpus(table1_text)
        rng = RNG(3)
        emb = EmbeddingTable(
            8, {t.text: rng.standard_normal(8) * 0.4 for t in ds.queries[0].tokens}
        )
        vocabs = {lvl: build_tag_vocab(ds, lvl) for lvl in TagLevel}
        config = TrainConfig(
            hidden=100, weights=(0.0, 0.0, 1.0), epochs=500, switch_epoch=50,
            seed=5, stop_at_accuracy=1.0,
        )
        histories = []
        for _ in range(2):
            (model,) = make_variant("DBTagger", vocabs, emb, config)
            histories.append(train(model, ds, config))
        assert histories[0][-1].val_accuracy == 1.0
        assert len(histories[0]) <= 500
        assert histories[0] == histories[1]  # deterministic under seed

        # bundled 50-query fixture, default config, >= 99% within 200 epochs
        model, history = overfit_model
        assert history[-1].val_accuracy >= 0.99
        assert len(history) <= 200
        retrain_model, retrain_history = train_fixture_model(
            fixture_corpus, imdb_subset, fixture_embeddings
        )
        assert retrain_history == history  # deterministic under seed
        assert save_model(retrain_model) == save_model(model)


def test_criterion_5_architecture_ablations(
    fixture_corpus, imdb_subset, fixture_embeddings, monkeypatch
):
    with criterion(5, "five architecture variants run; ST_Bi >= ST_Uni per fold"):
        monkeypatch.setenv("DBTAG_THREADS", "2")
        config = TrainConfig(hidden=32, epochs=40, switch_epoch=10, seed=13)
        accuracies = {}
        for variant in ("CRF", "ST_Uni", "ST_Bi", "MT_Seq", "DBTagger"):
            folds, mean = cross_validate(
                fixture_corpus, imdb_subset, fixture_embeddings, config, k=6,
                variant=variant,
            )
            assert len(folds) == 6
            assert 0.0 <= mean.token_accuracy <= 1.0
            accuracies[variant] = [f.token_accuracy for f in folds]
        wins = sum(
            b >= u for b, u in zip(accuracies["ST_Bi"], accuracies["ST_Uni"])
        )
        assert wins >= 4, f"ST_Bi >= ST_Uni in only {wins}/6 folds"


def test_criterion_6_schema_tag_vocabulary(imdb_full, yelp_full):
    with criterion(6, "schema tag composition with surfaced count discrepancies"):
        stats = schema_stats(imdb_full, expected_tags=31)
        assert stats.derived_tag_count == stats.total_tables + stats.non_pk_fk_attributes + 2
        assert stats.derived_tag_count == 33
        assert stats.warning is not None and "31" in stats.warning
        stats = schema_stats(yelp_full, expected_tags=20)
        assert stats.derived_tag_count == 25
        assert stats.warning is not None and "20" in stats.warning


def test_criterion_7_baseline_rules(imdb_subset):
    with criterion(7, "tf-idf, n-gram limit, scan cap and edit-distance rules"):
        # biggest tf wins, exactly
        index = InvertedValueIndex(
            postings={"matt demon": {"actor.name": 5, "writer.name": 2}},
            columns=("actor.name", "writer.name"),
        )
        results = tfidf_map(index, ["Matt", "Demon"])
        assert [(r.start, r.end, r.target) for r in results] == [(0, 2, "actor.name")]

        # n-gram limit 3: a four-word value indexes no 4-gram
        import json as _json

        from dbtagger.schema import ContentSnapshot, load_schema

        raw = {
            "name": "t",
            "tables": [{"name": "m", "kind": "entity", "attributes": [{"name": "v"}]}],
        }
        schema = load_schema(_json.dumps(raw))
        snapshot = ContentSnapshot(schema, {"m": {"v": ["the full monty show"]}})
        built = build_value_index(snapshot, schema)
        assert "the full monty show" not in built.postings
        assert "full monty show" in built.postings
        grams = word_ngrams("the full monty show".split())
        assert max(len(g.split()) for g in grams) == 3

        # scan row cap at exactly 2000
        big = ContentSnapshot(schema, {"m": {"v": ["heat"] * 2600}})
        hits = scan_map(big, [(0, 1, "heat")])
        assert hits[0].score == 2000.0

        # edit-distance selection against the DP oracle
        for token, best in (("written", "written_by"), ("movie", "movie")):
            hit = edit_distance_relation_map(token, imdb_subset, max_distance=3)
            assert hit is not None and hit.target == best
            want = min(
                reference_edit_distance(
                    token.lower().replace("_", " "), cand.lower().replace("_", " ")
                )
                for cand in _all_names(imdb_subset)
            )
            assert hit.score == float(want)
        assert edit_distance_relation_map("director", imdb_subset, max_distance=2) is None


def _all_names(schema):
    names = []
    for table in schema.tables:
        names.append(table.name)
        names.extend(a.name for a in table.attributes)
    return names


def test_criterion_8_scaling_behavior(imdb_subset, overfit_model):
    with criterion(8, "scan latency grows with rows; tagger latency does not"):
        started = time.perf_counter()
        model, _ = overfit_model
        queries = [
            "who acted John Nash in the movie A Beautiful Mind".split(),
            "who wrote Green Book".split(),
        ]

        def build_scan(snapshot):
            def run(tokens):
                grams = [(0, min(3, len(tokens)), " ".join(tokens[:3]))]
                grams.append((len(tokens) - 2, len(tokens), " ".join(tokens[-2:])))
                return scan_map(snapshot, grams)

            return run, snapshot.estimated_bytes()

        def build_index(snapshot):
            index = build_value_index(snapshot, imdb_subset)
            return (lambda tokens: tfidf_map(index, tokens)), index.estimated_bytes()

        def build_tagger(snapshot):
            return (lambda tokens: tag_query(model, tokens)), model.estimated_bytes()

        reports = bench_scaling(
            [("scan", build_scan), ("inv_index", build_index), ("tagger", build_tagger)],
            lambda rows: synthetic_snapshot(imdb_subset, rows, seed=1),
            row_counts=[1000, 10000, 100000],
            queries=queries,
            repetitions=3,
        )
        by_name = {}
        for report in reports:
            by_name.setdefault(report.mapper, []).append(report)
        scan_medians = [r.median_ms for r in by_name["scan"]]
        assert scan_medians[0] < scan_medians[1] < scan_medians[2], scan_medians
        tagger_medians = [r.median_ms for r in by_name["tagger"]]
        assert max(tagger_medians) / min(tagger_medians) < 2.0, tagger_medians
        index_sizes = [r.mem_bytes for r in by_name["inv_index"]]
        assert index_sizes[0] < index_sizes[1] < index_sizes[2]
        elapsed = time.perf_counter() - started
        assert elapsed < 300.0, f"scaling benchmark took {elapsed:.1f}s"


def test_criterion_9_join_path_optimality():
    with criterion(9, "join-path search equals exhaustive Steiner optimum"):
        rng = RNG(909)
        for _ in range(100):
            _, graph = random_schema_graph(rng, max_tables=8)
            nodes = list(graph.nodes)
            k = int(rng.integers(1, min(4, len(nodes)) + 1))
            required = list(rng.choice(nodes, size=k, replace=False))
            want = steiner_min_edges(edge_pairs(graph), required)
            mappings = MappingSet(
                tables=frozenset(required), attributes=frozenset(),
                value_spans=(), conditions=(),
            )
            try:
                path = infer_join_path(graph, mappings)
                got = len(path.joins)
                assert set(required) <= set(path.tables)
            except JoinPathError:
                got = None
            assert got == want


def test_criterion_10_determinism_and_roundtrip(
    overfit_model, fixture_corpus, table1_text, imdb_subset, fixture_embeddings
):
    with criterion(10, "bit-exact model round-trip, seeded determinism, corpus round-trip"):
        model, _ = overfit_model
        blob = save_model(model)
        again = load_model(blob)
        assert save_model(again) == blob
        tokens = fixture_corpus.queries[3].words
        assert np.array_equal(
            model_forward(model, query_inputs(model, [tokens]))[2].data,
            model_forward(again, query_inputs(again, [tokens]))[2].data,
        )

        small = Dataset(queries=fixture_corpus.queries[:10], name="small")
        config = TrainConfig(hidden=12, epochs=8, switch_epoch=4, seed=99)
        histories = []
        for _ in range(2):
            rng = RNG(1)
            emb = EmbeddingTable(
                6,
                {t.text: rng.standard_normal(6) for q in small.queries for t in q.tokens},
            )
            vocabs = {lvl: build_tag_vocab(small, lvl) for lvl in TagLevel}
            (m,) = make_variant("DBTagger", vocabs, emb, config)
            histories.append(train(m, small, config))
        assert histories[0] == histories[1]

        for text in (table1_text, serialize(fixture_corpus)):
            ds = parse_corpus(text)
            assert parse_corpus(serialize(ds)).queries == ds.queries
