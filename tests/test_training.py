import gc
import math
import weakref

import numpy as np
import pytest

from dbtagger import training, variants
from dbtagger.corpus import Dataset, TagLevel, build_tag_vocab, parse_corpus
from dbtagger.embeddings import EmbeddingTable
from dbtagger.numerics import Tensor
from dbtagger.tagger import DBTaggerModel, TaskWeights
from dbtagger.training import (
    AdadeltaState,
    NadamState,
    TrainConfig,
    TrainingError,
    adadelta_step,
    cross_validate,
    history_lines,
    nadam_step,
    token_accuracy,
    train,
)

RNG = np.random.default_rng


def test_adadelta_zero_gradient_leaves_parameters():
    p = Tensor(np.array([[1.5, -2.0]]))
    state = AdadeltaState([p])
    state.acc_grad[0][:] = 0.4
    adadelta_step(state, [p], [np.zeros((1, 2))])
    assert np.array_equal(p.data, [[1.5, -2.0]])
    # accumulators only decay
    assert np.allclose(state.acc_grad[0], 0.4 * 0.95)


def test_adadelta_scalar_first_step_hand_value():
    p = Tensor(np.array([[0.0]]))
    state = AdadeltaState([p])
    adadelta_step(state, [p], [np.array([[1.0]])])
    # hand evaluation of the update rule at the first step
    acc_grad = 0.05 * 1.0
    want = -(math.sqrt(0.0 + 1e-6) / math.sqrt(acc_grad + 1e-6)) * 1.0
    assert p.data[0, 0] == pytest.approx(want, rel=1e-12)
    assert want == pytest.approx(-4.4721e-3, abs=1e-7)


def test_adadelta_per_parameter_independence():
    a, b = Tensor(np.array([[0.0]])), Tensor(np.array([[0.0]]))
    state = AdadeltaState([a, b])
    g = np.array([[0.3]])
    adadelta_step(state, [a, b], [g, g.copy()])
    assert a.data[0, 0] == b.data[0, 0] != 0.0


def test_nadam_zero_gradient_zero_moment_no_update():
    p = Tensor(np.array([[2.0]]))
    state = NadamState([p])
    nadam_step(state, [p], [np.zeros((1, 1))])
    assert p.data[0, 0] == 2.0


def test_nadam_scalar_first_step_reference():
    alpha, b1, b2, eps = 0.002, 0.9, 0.999, 1e-8
    p = Tensor(np.array([[0.0]]))
    state = NadamState([p])
    nadam_step(state, [p], [np.array([[1.0]])])
    # independent evaluation of the update formula, t = 1
    g = 1.0
    m = (1 - b1) * g
    v = (1 - b2) * g * g
    m_hat = m / (1 - b1 ** 2)
    v_hat = v / (1 - b2)
    direction = b1 * m_hat + (1 - b1) * g / (1 - b1)
    want = -alpha * direction / (math.sqrt(v_hat) + eps)
    assert p.data[0, 0] == pytest.approx(want, rel=1e-15)
    assert state.step_count == 1


def test_nadam_first_step_opposes_gradient():
    rng = RNG(0)
    for seed in range(5):
        g = float(RNG(seed).standard_normal()) or 1.0
        p = Tensor(np.array([[0.0]]))
        state = NadamState([p])
        nadam_step(state, [p], [np.array([[g]])])
        assert np.sign(p.data[0, 0]) == -np.sign(g)


def test_optimizer_states_mirror_parameter_shapes():
    rng = RNG(1)
    params = [Tensor(rng.standard_normal((3, 4))), Tensor(rng.standard_normal((1, 2)))]
    ada = AdadeltaState(params)
    nad = NadamState(params)
    for _ in range(4):
        grads = [rng.standard_normal(p.shape) for p in params]
        adadelta_step(ada, params, grads)
        nadam_step(nad, params, grads)
    for i, p in enumerate(params):
        assert ada.acc_grad[i].shape == p.shape
        assert ada.acc_update[i].shape == p.shape
        assert nad.m[i].shape == p.shape
        assert nad.v[i].shape == p.shape
        assert np.all(nad.v[i] >= 0) and np.all(ada.acc_grad[i] >= 0)


def test_optimizer_shape_mismatch_rejected():
    p = Tensor(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        adadelta_step(AdadeltaState([p]), [p], [np.zeros((1, 2))])
    with pytest.raises(ValueError):
        nadam_step(NadamState([p]), [p], [np.zeros((3, 2))])


def _mini_model(dataset, hidden=6, seed=3, weights=(0.1, 0.2, 0.7), dropout=0.5):
    rng = RNG(seed)
    words = {t.text for q in dataset.queries for t in q.tokens}
    emb = EmbeddingTable(6, {w: rng.standard_normal(6) * 0.4 for w in words})
    vocabs = {lvl: build_tag_vocab(dataset, lvl) for lvl in TagLevel}
    return DBTaggerModel.build(
        emb, vocabs, hidden=hidden, weights=TaskWeights(*weights), dropout_rate=dropout, seed=seed
    )


def test_single_query_memorization(table1_text):
    ds = parse_corpus(table1_text)
    model = _mini_model(ds, weights=(0.0, 0.0, 1.0))
    config = TrainConfig(
        hidden=6, weights=(0.0, 0.0, 1.0), epochs=500, switch_epoch=50, seed=5,
        stop_at_accuracy=1.0,
    )
    history = train(model, ds, config)
    assert history[-1].val_accuracy == 1.0
    assert len(history) <= 500
    assert model.predict_tags([ds.queries[0].words]) == [ds.queries[0].tags(TagLevel.SCHEMA)]


def test_training_is_deterministic(fixture_corpus):
    small = Dataset(queries=fixture_corpus.queries[:8], name="small")
    config = TrainConfig(hidden=8, epochs=6, switch_epoch=3, seed=21)
    histories = []
    finals = []
    for _ in range(2):
        model = _mini_model(small, hidden=8, seed=21)
        histories.append(train(model, small, config))
        finals.append(np.concatenate([t.data.ravel() for _, t in model.parameters()]))
    assert histories[0] == histories[1]  # bit-identical loss history
    assert np.array_equal(finals[0], finals[1])


def test_adadelta_state_released_at_the_switch(fixture_corpus, monkeypatch):
    small = Dataset(queries=fixture_corpus.queries[:8], name="small")
    config = TrainConfig(hidden=8, epochs=4, switch_epoch=2, seed=21)
    unpatched = train(_mini_model(small, hidden=8, seed=21), small, config)
    refs, dead_at_nadam = [], []

    class TrackedAdadelta(training.AdadeltaState):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            refs.append(weakref.ref(self))

    class TrackedNadam(training.NadamState):
        def __init__(self, *args, **kwargs):
            gc.collect()
            dead_at_nadam.append(refs[0]() is None)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(training, "AdadeltaState", TrackedAdadelta)
    monkeypatch.setattr(training, "NadamState", TrackedNadam)
    history = train(_mini_model(small, hidden=8, seed=21), small, config)
    assert dead_at_nadam == [True]
    assert history == unpatched


@pytest.mark.parametrize("name", variants.VARIANTS)
def test_seeded_fits_of_each_variant_agree(name, fixture_corpus, imdb_subset, fixture_embeddings):
    small = Dataset(queries=fixture_corpus.queries[:6], name="small")
    config = TrainConfig(hidden=4, epochs=2, switch_epoch=1, seed=3)
    runs = []
    for _ in range(2):
        vocabs = variants.build_vocabs(fixture_corpus, imdb_subset)
        stages = variants.make_variant(name, vocabs, fixture_embeddings, config)
        history = [train(stage, small, config) for stage in stages]
        params = [(f"{i}.{n}", t) for i, stage in enumerate(stages) for n, t in stage.parameters()]
        runs.append((history, params))
    (history_a, params_a), (history_b, params_b) = runs
    assert history_a == history_b
    assert [n for n, _ in params_a] == [n for n, _ in params_b]
    assert all(np.array_equal(a.data, b.data) for (_, a), (_, b) in zip(params_a, params_b))


def test_train_draws_masks_at_the_models_dropout_rate(fixture_corpus):
    small = Dataset(queries=fixture_corpus.queries[:8], name="small")
    histories = []
    for rate in (0.0, 0.5):
        config = TrainConfig(hidden=8, epochs=3, switch_epoch=2, seed=21, dropout=rate)
        model = _mini_model(small, hidden=8, seed=21, dropout=0.0)
        histories.append(train(model, small, config))
    assert histories[0] == histories[1]


def test_patience_stops_after_that_many_epochs_without_a_gain(monkeypatch):
    scripted = iter([0.5, 0.6, 0.6, 0.6, 0.6, 0.6, 0.7, 0.8])
    monkeypatch.setattr(training, "token_accuracy", lambda model, dataset: next(scripted))
    ds = parse_corpus("movie\tNN\tTABLE\tmovie\n")
    config = TrainConfig(hidden=4, epochs=8, switch_epoch=1, seed=0, patience=2)
    history = train(_mini_model(ds, hidden=4), ds, config)
    assert [r.epoch for r in history] == [1, 2, 3, 4, 5]
    assert [r.val_accuracy for r in history] == [0.5, 0.6, 0.6, 0.6, 0.6]


def test_loss_trend_on_fixture(fixture_corpus):
    config = TrainConfig(hidden=16, epochs=20, switch_epoch=10, seed=7)
    model = _mini_model(fixture_corpus, hidden=16, seed=7)
    history = train(model, fixture_corpus, config)
    assert history[19].mean_loss < history[0].mean_loss


def test_history_lines_format():
    config = TrainConfig(hidden=4, epochs=2, switch_epoch=1, seed=0)
    ds = parse_corpus("movie\tNN\tTABLE\tmovie\n")
    model = _mini_model(ds, hidden=4)
    history = train(model, ds, config)
    lines = history_lines(history).splitlines()
    assert lines[0] == "epoch,phase,mean_loss,val_accuracy"
    assert lines[1].startswith("1,adadelta,")
    assert lines[2].startswith("2,nadam,")


def test_non_finite_loss_aborts_with_diagnostics():
    ds = parse_corpus("movie\tNN\tTABLE\tmovie\n")
    model = _mini_model(ds, hidden=4)
    crf = model.heads[-1].crf
    crf.transitions.data[crf.start_index, 0] = np.nan
    with pytest.raises(TrainingError, match="non-finite loss"):
        train(model, ds, TrainConfig(hidden=4, epochs=1, switch_epoch=1, seed=0))


def test_cross_validate_twelve_queries(fixture_corpus, imdb_subset, fixture_embeddings):
    ds = Dataset(queries=fixture_corpus.queries[:12], name="twelve")
    config = TrainConfig(hidden=4, epochs=2, switch_epoch=1, seed=2)
    folds, mean = cross_validate(
        ds, imdb_subset, fixture_embeddings, config, k=6, variant="DBTagger"
    )
    assert len(folds) == 6
    # the six test folds partition the 12 queries, 2 per fold
    assert sum(r.total_tokens for r in folds) == sum(len(q) for q in ds.queries)
    assert all(r.total_tokens > 0 for r in folds)
    assert 0.0 <= mean.token_accuracy <= 1.0


def test_cross_validate_symmetry_on_duplicated_query(table1_text, imdb_subset, fixture_embeddings):
    one = parse_corpus(table1_text).queries[0]
    ds = Dataset(queries=(one,) * 6, name="six-copies")
    config = TrainConfig(hidden=4, epochs=2, switch_epoch=1, seed=4)
    folds, mean = cross_validate(
        ds, imdb_subset, fixture_embeddings, config, k=6, variant="DBTagger"
    )
    first = folds[0]
    for report in folds[1:]:
        assert report == first
    assert mean.token_accuracy == first.token_accuracy


def test_cv_parallelism_does_not_change_results(
    fixture_corpus, imdb_subset, fixture_embeddings, monkeypatch
):
    ds = Dataset(queries=fixture_corpus.queries[:12], name="twelve")
    config = TrainConfig(hidden=4, epochs=2, switch_epoch=1, seed=6)
    monkeypatch.setenv("DBTAG_THREADS", "1")
    serial, serial_mean = cross_validate(
        ds, imdb_subset, fixture_embeddings, config, k=6, variant="DBTagger"
    )
    monkeypatch.setenv("DBTAG_THREADS", "2")
    parallel, parallel_mean = cross_validate(
        ds, imdb_subset, fixture_embeddings, config, k=6, variant="DBTagger"
    )
    assert serial == parallel
    assert serial_mean == parallel_mean


def test_cv_mean_accuracy_stable_across_seeds(
    fixture_corpus, imdb_subset, fixture_embeddings, monkeypatch
):
    # measured on the fixture: converged runs land within a few thousandths
    # of each other (0.9224 vs 0.9166 at seeds 13/14); 0.02 is the pinned band
    monkeypatch.setenv("DBTAG_THREADS", "2")
    means = []
    for seed in (13, 14):
        config = TrainConfig(
            hidden=48, epochs=150, switch_epoch=25, seed=seed, stop_at_accuracy=1.0
        )
        _, mean = cross_validate(
            fixture_corpus, imdb_subset, fixture_embeddings, config, k=6, variant="DBTagger"
        )
        means.append(mean.token_accuracy)
    assert abs(means[0] - means[1]) <= 0.02


def test_token_accuracy_horizon(table1_text):
    ds = parse_corpus(table1_text)
    model = _mini_model(ds)
    acc = token_accuracy(model, ds)
    assert 0.0 <= acc <= 1.0


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)
    with pytest.raises(ValueError):
        TrainConfig(switch_epoch=0)
    with pytest.raises(ValueError):
        TrainConfig(switch_epoch=10, epochs=5)
    with pytest.raises(ValueError):
        TrainConfig(weights=(0.5, 0.5, 0.5))


def test_config_rejects_hidden_below_one():
    with pytest.raises(ValueError, match="hidden size must be >= 1, got 0"):
        TrainConfig(hidden=0)
    with pytest.raises(ValueError, match="hidden size"):
        TrainConfig(hidden=-3)
