import ast
import itertools
import random
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import tape_ops as ops
from dbtagger import numerics as nm
from dbtagger import tagger, variants
from dbtagger.corpus import AnnotatedQuery, TagLevel, TagVocab, Token, build_tag_vocab, parse_corpus
from dbtagger.embeddings import EmbeddingTable
from dbtagger.numerics import Tape, Tensor, backward
from dbtagger.tagger import (
    CrfLayer,
    DBTaggerModel,
    GruCell,
    MaskStream,
    ModelFormatError,
    TaggedToken,
    TaskHead,
    TaskWeights,
    crf_log_partition,
    crf_nll,
    crf_score,
    fresh_crf,
    fresh_gru,
    gru_layer,
    load_model,
    merge_value_spans,
    model_forward,
    prepare_queries,
    query_inputs,
    save_model,
    tag_queries,
    tag_query,
    total_loss,
    viterbi_decode,
)
from dbtagger.training import TrainConfig
from dbtagger.variants import build_vocabs
import model_files
import oracles
from oracles import finite_diff_check

RNG = np.random.default_rng


def fresh_bigru(input_size, hidden_size, rng):
    """A two-cell layer, the forward cell drawn first."""
    return tuple(fresh_gru(input_size, hidden_size, rng) for _ in range(2))


def layer_parameters(layer, prefix):
    return [p for i, cell in enumerate(layer) for p in cell.parameters(f"{prefix}{i}")]


# ---------------------------------------------------------------------------
# oracles, written independently of the implementation under test


def reference_gru(cell, x, h, mask=None):
    """Separately coded GRU evaluation used as the oracle; ``mask`` drops
    entries of the previous state where it feeds a weight matrix."""
    sig = lambda v: 1.0 / (1.0 + np.exp(-v))
    hm = h if mask is None else h * mask
    u = cell.hidden_size
    (Uz, Ur, Uc), (Wz, Wr, Wc), (bz, br, bc) = (
        (t.data[:u], t.data[u : 2 * u], t.data[2 * u :])
        for t in (cell.input, cell.recurrent, cell.bias)
    )
    z = sig(Uz.dot(x) + Wz.dot(hm) + bz)
    r = sig(Ur.dot(x) + Wr.dot(hm) + br)
    cand = np.tanh(Uc.dot(x) + Wc.dot(r * hm) + bc)
    return (1.0 - z) * h + z * cand


def enumerate_scores(G, A, k):
    """Score of every tag sequence, by explicit summation."""
    n = G.shape[0]
    start, stop = k, k + 1
    out = {}
    for seq in itertools.product(range(k), repeat=n):
        s = A[start, seq[0]] + A[seq[-1], stop]
        s += sum(G[i, t] for i, t in enumerate(seq))
        s += sum(A[seq[i], seq[i + 1]] for i in range(n - 1))
        out[seq] = s
    return out


def enum_log_partition(G, A, k):
    scores = np.array(list(enumerate_scores(G, A, k).values()))
    m = scores.max()
    return m + np.log(np.exp(scores - m).sum())


def loss_and_tape(model, query, mask_stream=None):
    """total_loss of a one-query chunk as the (loss, tape) pair the
    gradient checks take."""
    loss, _, tape = total_loss(model, prepare_queries(model, [query]), mask_stream)
    return loss, tape


def random_crf(n, k, seed, feature_size=3):
    rng = RNG(seed)
    crf = fresh_crf(k, feature_size, rng)
    crf.transitions.data = rng.standard_normal((k + 2, k + 2))
    return crf, Tensor(rng.standard_normal((n, k)))


# ---------------------------------------------------------------------------
# GRU


# A one-row GRU layer is a single GRU step from the zero state.


def test_gru_step_zero_everything():
    cell = fresh_gru(2, 3, RNG(0))
    for _, p in cell.parameters("c"):
        p.data[:] = 0.0
    out = gru_layer((cell,), np.ones((1, 2)))
    assert np.array_equal(out.data, np.zeros((1, 3)))


def test_gru_step_candidate_bias_closed_form():
    cell = fresh_gru(2, 3, RNG(0))
    for _, p in cell.parameters("c"):
        p.data[:] = 0.0
    cell.bias.data[2 * cell.hidden_size :] = 5.0  # the candidate rows
    out = gru_layer((cell,), np.ones((1, 2)))
    assert np.allclose(out.data, 0.5 * np.tanh(5.0), atol=1e-15)


def test_gru_cell_draws_gate_blocks_in_seeded_order():
    d, u = 4, 3
    cell = fresh_gru(d, u, RNG(5))
    rng = RNG(5)
    draws = [tagger._glorot(rng, shape) for _ in range(3) for shape in ((u, d), (u, u))]
    for gate in range(3):
        rows = slice(gate * u, (gate + 1) * u)
        assert np.array_equal(cell.input.data[rows], draws[2 * gate])
        assert np.array_equal(cell.recurrent.data[rows], draws[2 * gate + 1])
    assert np.array_equal(cell.bias.data, np.zeros((3 * u, 1)))
    assert [name for name, _ in cell.parameters("c")] == ["c.input", "c.recurrent", "c.bias"]


def test_gru_step_matches_reference_implementation():
    rng = RNG(11)
    cell = fresh_gru(4, 5, rng)
    x = rng.standard_normal((4, 1))
    got = gru_layer((cell,), x.T).data.T
    assert np.allclose(got, reference_gru(cell, x, np.zeros((5, 1))), atol=1e-12)


def test_gru_step_shape_errors():
    cell = fresh_gru(4, 5, RNG(0))
    with pytest.raises(nm.ShapeError):
        gru_layer((cell,), np.zeros((1, 3)))
    with pytest.raises(nm.ShapeError):
        gru_layer((cell,), np.zeros((1, 4)), rec_masks=(np.ones((4, 1)),))


def test_gru_step_gradients_match_fd():
    rng = RNG(12)
    cell = fresh_gru(3, 4, rng)
    x = Tensor(rng.standard_normal((1, 3)))
    weights = Tensor(rng.standard_normal((4, 1)))
    params = [x] + [t for _, t in cell.parameters("c")]

    def build():
        tape = Tape()
        out = gru_layer((cell,), x, tape)
        return ops.sum_all(ops.matmul(out, weights, tape), tape), tape

    assert finite_diff_check(build, params, h=1e-6) < 1e-8


def test_gru_step_recurrent_mask_gradients():
    rng = RNG(13)
    cell = fresh_gru(3, 4, rng)
    x = Tensor(rng.standard_normal((1, 3)))
    mask = (rng.random((4, 1)) > 0.5).astype(float) * 2.0
    weights = Tensor(rng.standard_normal((4, 1)))
    params = [x] + [t for _, t in cell.parameters("c")]

    def build():
        tape = Tape()
        out = gru_layer((cell,), x, tape, rec_masks=(mask,))
        return ops.sum_all(ops.matmul(out, weights, tape), tape), tape

    assert finite_diff_check(build, params, h=1e-6) < 1e-8


@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("masked", [False, True])
def test_gru_sequence_matches_reference_loop(reverse, masked):
    rng = RNG(14)
    cell = fresh_gru(3, 4, rng)
    X = rng.standard_normal((6, 3))
    mask = (rng.random((4, 1)) > 0.5) * 2.0 if masked else None
    got = ops.gru_direction(cell, X, rec_mask=mask, reverse=reverse).data
    h = np.zeros((4, 1))
    for t in (range(5, -1, -1) if reverse else range(6)):
        h = reference_gru(cell, X[t].reshape(-1, 1), h, mask)
        assert np.allclose(got[t], h.ravel(), atol=1e-12)


@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("masked", [False, True])
def test_gru_sequence_gradients_match_fd(reverse, masked):
    rng = RNG(15)
    cell = fresh_gru(3, 4, rng)
    X = Tensor(rng.standard_normal((5, 3)))
    mask = (rng.random((4, 1)) > 0.5) * 2.0 if masked else None
    weights = Tensor(rng.standard_normal((5, 4)))
    params = [X] + [t for _, t in cell.parameters("c")]

    def build():
        tape = Tape()
        out = ops.gru_direction(cell, X, tape, rec_mask=mask, reverse=reverse)
        return ops.sum_all(ops.hadamard(out, weights, tape), tape), tape

    assert finite_diff_check(build, params, h=1e-6) < 1e-8


def test_stacked_bigru_passes_gradient_to_first_layer():
    # two stacked layers as in ST_Bi: the second consumes the first's tape output
    rng = RNG(17)
    first = fresh_bigru(3, 2, rng)
    second = fresh_bigru(4, 2, rng)
    X = rng.standard_normal((4, 3))
    weights = Tensor(rng.standard_normal((4, 4)))
    masks = (np.array([[2.0], [0.0]]), np.array([[0.0], [2.0]]))
    params = [t for _, t in layer_parameters(first, "a") + layer_parameters(second, "b")]

    def build():
        tape = Tape()
        H = gru_layer(second, gru_layer(first, X, tape, masks), tape)
        return ops.sum_all(ops.hadamard(H, weights, tape), tape), tape

    assert finite_diff_check(build, params, h=1e-6) < 1e-8
    assert all(np.any(t.grad != 0.0) for _, t in layer_parameters(first, "a") if t.shape[1] == 3)


def test_bigru_single_token_shape():
    layer = fresh_bigru(3, 4, RNG(1))
    H = gru_layer(layer, np.ones((1, 3)))
    assert H.shape == (1, 8)


def test_bigru_zero_weights():
    layer = fresh_bigru(3, 4, RNG(1))
    for _, p in layer_parameters(layer, "b"):
        p.data[:] = 0.0
    H = gru_layer(layer, RNG(2).standard_normal((5, 3)))
    assert np.array_equal(H.data, np.zeros((5, 8)))


def test_bigru_reversal_symmetry_with_shared_cells():
    rng = RNG(3)
    layer = fresh_bigru(3, 4, rng)
    # make both directions use identical parameters
    for (_, a), (_, b) in zip(layer[0].parameters("f"), layer[1].parameters("b")):
        b.data = a.data.copy()
    X = rng.standard_normal((6, 3))
    H = gru_layer(layer, X).data
    H_rev = gru_layer(layer, X[::-1]).data
    # explicit double evaluation: forward half of reversed input equals the
    # row-reversed backward half of the original (and vice versa)
    assert np.allclose(H_rev[:, :4], H[::-1, 4:], atol=1e-12)
    assert np.allclose(H_rev[:, 4:], H[::-1, :4], atol=1e-12)


def test_bigru_matches_stepwise_evaluation():
    rng = RNG(4)
    layer = fresh_bigru(2, 3, rng)
    X = rng.standard_normal((4, 2))
    H = gru_layer(layer, X).data
    h = np.zeros((3, 1))
    for t in range(4):
        h = reference_gru(layer[0], X[t].reshape(-1, 1), h)
        assert np.allclose(H[t, :3], h.ravel(), atol=1e-12)
    h = np.zeros((3, 1))
    for t in range(3, -1, -1):
        h = reference_gru(layer[1], X[t].reshape(-1, 1), h)
        assert np.allclose(H[t, 3:], h.ravel(), atol=1e-12)


@pytest.mark.parametrize(
    "cells, lengths, masked, tensor_input",
    [
        (1, None, False, True),
        (1, [3, 5, 1], True, True),
        (2, None, False, False),
        (2, [3, 5, 1], False, True),
        (2, [3, 5, 1], True, True),
        (2, [3, 5, 1], True, False),
    ],
)
def test_gru_layer_equals_the_record_by_record_composition_bit_for_bit(
    cells, lengths, masked, tensor_input
):
    rng = RNG(70)
    layer = fresh_bigru(3, 4, rng)[:cells]
    B = 1 if lengths is None else len(lengths)
    X = rng.standard_normal((5 * B, 3))
    X = Tensor(X) if tensor_input else X
    chunks = []
    for _ in range(2):
        rec = tuple((rng.random((4, B)) > 0.4) * 2.0 for _ in layer) if masked else None
        out = (rng.random((B, 4 * cells)) > 0.4) * 2.0 if masked else None
        chunks.append((rec, out, Tensor(rng.standard_normal((5 * B, 4 * cells)))))
    params = [t for _, t in layer_parameters(layer, "c")] + ([X] if tensor_input else [])

    def run(layer_fn):
        for p in params:
            p.zero_grad()
        values = []
        for rec, out, weights in chunks:  # both chunks add into the same grad slots
            tape = Tape()
            H = layer_fn(layer, X, tape, rec, lengths, out)
            backward(tape, ops.sum_all(ops.hadamard(H, weights, tape), tape))
            values.append(H.data)
        return values + [p.grad for p in params]

    got, want = run(gru_layer), run(oracles.gru_layer_by_records)
    assert len(got) == len(want) == 2 + len(params)
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


# ---------------------------------------------------------------------------
# CRF


def test_crf_score_no_transitions():
    crf, G = random_crf(2, 3, seed=20)
    crf.transitions.data[:] = 0.0
    tags = [2, 0]
    assert crf_score(crf, G, [tags])[0].item() == pytest.approx(
        G.data[0, 2] + G.data[1, 0], abs=1e-12
    )


def test_crf_score_transitions_only():
    crf, G = random_crf(1, 3, seed=21)
    G.data[:] = 0.0
    A = crf.transitions.data
    assert crf_score(crf, G, [[1]])[0].item() == pytest.approx(A[3, 1] + A[1, 4], abs=1e-12)


def test_crf_score_matches_loop_oracle():
    crf, G = random_crf(4, 3, seed=22)
    tags = [2, 0, 1, 1]
    scores = enumerate_scores(G.data, crf.transitions.data, 3)
    assert crf_score(crf, G, [tags])[0].item() == pytest.approx(scores[tuple(tags)], abs=1e-10)


def test_crf_score_rejects_bad_tags():
    crf, G = random_crf(2, 3, seed=23)
    with pytest.raises(ValueError):
        crf_score(crf, G, [[0, 7]])
    with pytest.raises(ValueError):
        crf_score(crf, G, [[0]])


def test_log_partition_uniform_closed_form():
    crf, G = random_crf(2, 3, seed=24)
    crf.transitions.data[:] = 0.0
    G.data[:] = 0.0
    assert crf_log_partition(crf, G)[0].item() == pytest.approx(np.log(9.0), abs=1e-12)


def test_log_partition_single_token():
    crf, G = random_crf(1, 4, seed=25)
    crf.transitions.data[:] = 0.0
    want = ops.logsumexp_rows(Tensor(G.data[0:1])).item()
    assert crf_log_partition(crf, G)[0].item() == pytest.approx(want, abs=1e-12)


def test_log_partition_matches_enumeration():
    crf, G = random_crf(5, 4, seed=26)
    want = enum_log_partition(G.data, crf.transitions.data, 4)
    assert crf_log_partition(crf, G)[0].item() == pytest.approx(want, abs=1e-8)


def test_sequence_probabilities_sum_to_one():
    for seed in (30, 31, 32):
        rng = RNG(seed)
        n, k = int(rng.integers(1, 7)), int(rng.integers(1, 6))
        crf, G = random_crf(n, k, seed=seed + 100)
        log_z = crf_log_partition(crf, G)[0].item()
        total = sum(
            np.exp(s - log_z) for s in enumerate_scores(G.data, crf.transitions.data, k).values()
        )
        assert total == pytest.approx(1.0, abs=1e-8)


def test_crf_nll_single_tag_vocabulary():
    rng = RNG(33)
    crf = fresh_crf(1, 2, rng)
    crf.transitions.data[:] = 0.0
    G = Tensor(rng.standard_normal((3, 1)))
    assert crf_nll(crf, G, [[0, 0, 0]]).item() == pytest.approx(0.0, abs=1e-12)


def test_crf_nll_nonnegative_and_matches_enumeration():
    crf, G = random_crf(4, 3, seed=34)
    tags = [0, 2, 1, 0]
    nll = crf_nll(crf, G, [tags]).item()
    assert nll >= 0.0
    scores = enumerate_scores(G.data, crf.transitions.data, 3)
    log_z = enum_log_partition(G.data, crf.transitions.data, 3)
    prob = np.exp(scores[tuple(tags)] - log_z)
    assert nll == pytest.approx(-np.log(prob), abs=1e-8)


def test_crf_gradients_match_fd():
    crf, G = random_crf(4, 3, seed=35)
    tags = [1, 0, 2, 2]

    def build():
        tape = Tape()
        return crf_nll(crf, G, [tags], tape), tape

    assert finite_diff_check(build, [G, crf.transitions], h=1e-6) < 1e-8


def test_viterbi_onehot_rows_argmax():
    crf, _ = random_crf(3, 3, seed=36)
    crf.transitions.data[:] = 0.0
    G = Tensor(np.array([[0.0, 5.0, 0.0], [9.0, 0.0, 0.0], [0.0, 0.0, 4.0]]))
    [(tags, score)] = viterbi_decode(crf, G)
    assert tags == [1, 0, 2]
    assert score == pytest.approx(18.0, abs=1e-12)


def test_viterbi_single_tag():
    crf, G = random_crf(3, 1, seed=37)
    [(tags, _)] = viterbi_decode(crf, G)
    assert tags == [0, 0, 0]


def test_viterbi_matches_enumeration_with_tie_policy():
    for seed in (40, 41, 42, 43):
        crf, G = random_crf(6, 5, seed=seed)
        [(tags, score)] = viterbi_decode(crf, G)
        scores = enumerate_scores(G.data, crf.transitions.data, 5)
        best = max(scores.values())
        assert score == pytest.approx(best, abs=1e-9)
        # lowest-index tie policy: the decoded sequence is the lexicographic
        # minimum among the argmax set
        winners = sorted(seq for seq, s in scores.items() if abs(s - best) < 1e-12)
        assert tuple(tags) == winners[0]


def test_viterbi_ties_break_to_lowest_index():
    crf, _ = random_crf(2, 3, seed=44)
    crf.transitions.data[:] = 0.0
    [(tags, _)] = viterbi_decode(crf, Tensor(np.zeros((2, 3))))
    assert tags == [0, 0]


def test_log_partition_row_shift_invariance():
    crf, G = random_crf(4, 3, seed=45)
    base_z = crf_log_partition(crf, G)[0].item()
    [(base_tags, _)] = viterbi_decode(crf, G)
    shifted = Tensor(G.data.copy())
    shifted.data[2] += 7.5
    assert crf_log_partition(crf, shifted)[0].item() == pytest.approx(base_z + 7.5, rel=1e-12)
    assert viterbi_decode(crf, shifted)[0][0] == base_tags


def test_crf_never_reads_transitions_out_of_stop_or_into_start():
    # a ragged chunk of two queries, lengths 4 and 2, packed time-major
    crf, G = random_crf(8, 3, seed=46)
    lengths, tags = [4, 2], [[0, 2, 1, 0], [1, 2]]

    def run():
        crf.transitions.zero_grad()
        tape = Tape()
        backward(tape, ops.sum_all(crf_nll(crf, G, tags, tape), tape))
        log_z, score = crf_log_partition(crf, G, lengths)[0], crf_score(crf, G, tags)[0]
        return log_z.data, score.data, viterbi_decode(crf, G, lengths), crf.transitions.grad

    log_z, score, decoded, grad = run()
    rng = RNG(47)
    crf.transitions.data[crf.stop_index, :] = rng.standard_normal(5) * 10
    crf.transitions.data[:, crf.start_index] = rng.standard_normal(5) * 10
    log_z2, score2, decoded2, grad2 = run()
    assert np.array_equal(log_z, log_z2) and np.array_equal(score, score2)
    assert decoded == decoded2
    masked = np.zeros((5, 5), dtype=bool)
    masked[crf.stop_index, :] = masked[:, crf.start_index] = True
    assert np.all(grad2[masked] == 0.0)
    assert np.array_equal(grad, grad2) and np.any(grad[~masked] != 0.0)


def _chunk(rng, lengths, k):
    G = Tensor(tagger.pack([rng.standard_normal((n, k)) for n in lengths]))
    tags = [[int(t) for t in rng.integers(0, k, n)] for n in lengths]
    return G, tags, Tensor(rng.standard_normal((len(lengths), 1)))


def _weighted_crf_grads(crf, chunks, nll):
    """The emission and transition grads after backpropagating each
    chunk's query-weighted loss in turn into the same grad slots."""
    crf.transitions.zero_grad()
    for G, _, _ in chunks:
        G.zero_grad()
    for G, tags, weights in chunks:
        tape = Tape()
        backward(tape, ops.sum_all(ops.hadamard(nll(crf, G, tags, tape), weights, tape), tape))
    return [G.grad for G, _, _ in chunks] + [crf.transitions.grad]


@pytest.mark.parametrize("case", ["full", "ragged", "two chunks"])
def test_crf_nll_gradients_equal_the_record_by_record_loss_bit_for_bit(case):
    rng = RNG(67)
    crf, _ = random_crf(1, 6, seed=68)
    ragged = _chunk(rng, [4, 1, 6, 2], 6)
    reweighted = (*ragged[:2], Tensor([[0.3], [-1.2], [2.0], [0.7]]))
    chunks = {
        "full": [_chunk(rng, [5, 5, 5], 6)],
        "ragged": [ragged],
        # the ragged emissions come back, so every grad slot sums two chunks
        "two chunks": [ragged, _chunk(rng, [3, 3], 6), reweighted],
    }[case]
    want = _weighted_crf_grads(crf, chunks, oracles.crf_nll_by_records)
    got = _weighted_crf_grads(crf, chunks, crf_nll)
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


def test_crf_nll_at_300_tags_keeps_one_step_of_pair_marginals():
    # the pair marginals of all 14 steps alone would take 161 MB
    rng = RNG(69)
    L, B, k = 15, 16, 300
    crf, _ = random_crf(1, k, seed=70)
    G, tags, _ = _chunk(rng, [L] * B, k)
    tracemalloc.start()
    try:
        tape = Tape()
        backward(tape, ops.sum_all(crf_nll(crf, G, tags, tape), tape))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 60e6


# ---------------------------------------------------------------------------
# model


def tiny_setup(seed=0, hidden=5):
    text = (
        "who\tWP\tO\tO\nacted\tVBD\tTABLEREF\tcast\nNash\tNNP\tVALUE\tcast.role\n"
        "\n"
        "movie\tNN\tTABLE\tmovie\ntitle\tNN\tATTR\tmovie.title\n"
    )
    ds = parse_corpus(text)
    rng = RNG(seed)
    words = {t.text for q in ds.queries for t in q.tokens}
    emb = EmbeddingTable(4, {w: rng.standard_normal(4) * 0.5 for w in words})
    vocabs = {lvl: build_tag_vocab(ds, lvl) for lvl in TagLevel}
    model = DBTaggerModel.build(emb, vocabs, hidden=hidden, seed=seed)
    return ds, model


def test_task_weights_validation():
    TaskWeights(0.1, 0.2, 0.7)
    TaskWeights(1 / 3, 1 / 3, 1 / 3)
    with pytest.raises(ValueError, match="sum to 1"):
        TaskWeights(0.5, 0.2, 0.2)
    with pytest.raises(ValueError, match="non-negative"):
        TaskWeights(-0.2, 0.5, 0.7)


def test_model_forward_infer_is_pure():
    ds, model = tiny_setup()
    tokens = ds.queries[0].words
    a = model_forward(model, query_inputs(model, [tokens]))
    b = model_forward(model, query_inputs(model, [tokens]))
    for x, y in zip(a[:3], b[:3]):
        assert np.array_equal(x.data, y.data)


def test_model_forward_emission_widths_at_100_units():
    ds, model = tiny_setup(hidden=100)
    pos_head, type_head, schema_head = model.heads
    assert pos_head.crf.feature_size == 100
    assert type_head.crf.feature_size == 200
    assert schema_head.crf.feature_size == 200
    g_pos, g_type, g_schema, _ = model_forward(model, query_inputs(model, [ds.queries[0].words]))
    assert g_pos.shape == (3, model.vocabs[TagLevel.POS].size)
    assert g_type.shape == (3, model.vocabs[TagLevel.TYPE].size)
    assert g_schema.shape == (3, model.vocabs[TagLevel.SCHEMA].size)


class AllDropped:
    rate = 0.999

    def draw(self, count, width):
        return np.zeros((count, width))


def test_all_dropped_masks_leave_only_biases():
    ds, model = tiny_setup()
    for head in model.heads:
        head.crf.emit_bias.data[:] = RNG(9).standard_normal((1, head.crf.tag_count))
    g_pos, g_type, g_schema, _ = model_forward(
        model, query_inputs(model, [ds.queries[0].words]), mask_stream=AllDropped()
    )
    for head, G in zip(model.heads, (g_pos, g_type, g_schema)):
        assert np.allclose(G.data, np.tile(head.crf.emit_bias.data, (3, 1)), atol=1e-15)


def test_total_loss_schema_only_weighting():
    ds, model = tiny_setup()
    model.weights = TaskWeights(0.0, 0.0, 1.0)
    query = ds.queries[0]
    loss, _, _ = total_loss(model, prepare_queries(model, [query]))
    _, _, g_schema, tape = model_forward(model, query_inputs(model, [query.words]))
    want = crf_nll(
        model.heads[2].crf,
        g_schema,
        [[model.vocabs[TagLevel.SCHEMA].index_of(t) for t in query.tags(TagLevel.SCHEMA)]],
    ).item()
    assert loss.item() == want


def test_total_loss_uniform_weights_on_equal_nlls():
    # every tag level has exactly two symbols here; zeroed parameters force
    # emissions and transitions to zero, so each task's NLL is n * log(2)
    ds = parse_corpus("movie\tNN\tTABLE\tmovie\nruns\tVB\tO\tO\n")
    rng = RNG(2)
    emb = EmbeddingTable(4, {w: rng.standard_normal(4) for w in ("movie", "runs")})
    vocabs = {lvl: build_tag_vocab(ds, lvl) for lvl in TagLevel}
    model = DBTaggerModel.build(emb, vocabs, hidden=5, seed=0)
    for _, p in model.parameters():
        p.data[:] = 0.0
    model.weights = TaskWeights(1 / 3, 1 / 3, 1 / 3)
    k = model.vocabs[TagLevel.POS].size
    assert all(model.vocabs[lvl].size == k for lvl in TagLevel)
    v = 2 * np.log(k)
    loss, _, _ = total_loss(model, prepare_queries(model, [ds.queries[0]]))
    assert loss.item() == v


def test_total_loss_paper_weights_exact_composition():
    ds, model = tiny_setup()
    model.weights = TaskWeights(0.1, 0.2, 0.7)
    query = ds.queries[0]
    loss, _, _ = total_loss(model, prepare_queries(model, [query]))
    g_pos, g_type, g_schema, _ = model_forward(model, query_inputs(model, [query.words]))
    parts = []
    for head, G in zip(model.heads, (g_pos, g_type, g_schema)):
        gold = [model.vocabs[head.level].index_of(t) for t in query.tags(head.level)]
        parts.append(crf_nll(head.crf, G, [gold]).item())
    hand = (0.1 * parts[0] + 0.2 * parts[1]) + 0.7 * parts[2]
    assert loss.item() == hand


def test_total_loss_rejects_unknown_tag():
    ds, model = tiny_setup()
    bad = AnnotatedQuery(
        tokens=(Token(text="unknown", pos="NN", type_tag="TABLE", schema_tag="people"),)
    )
    with pytest.raises(KeyError, match="people"):
        total_loss(model, prepare_queries(model, [bad]))


def test_total_loss_gradients_match_fd():
    ds, model = tiny_setup()
    query = ds.queries[0]
    params = [t for _, t in model.parameters()]

    def build():
        return loss_and_tape(model, query)

    err = finite_diff_check(build, params, h=1e-5, max_coords=150, rng=RNG(5))
    assert err < 1e-6


def test_tape_length_does_not_grow_with_query_length(
    fixture_corpus, imdb_subset, fixture_embeddings
):
    # every GRU layer is one record, so no record is per token
    model = DBTaggerModel.build(
        fixture_embeddings, build_vocabs(fixture_corpus, imdb_subset), hidden=5, seed=0
    )
    longest = next(q for q in fixture_corpus.queries if len(q) == 10)
    short = AnnotatedQuery(tokens=longest.tokens[:3])
    for stream in (None, MaskStream(0.5, RNG(0))):
        lengths = {
            len(total_loss(model, prepare_queries(model, [q]), stream)[2]) for q in (short, longest)
        }
        assert len(lengths) == 1


@pytest.mark.parametrize("name", ["CRF", "ST_Uni", "ST_Bi"])
def test_single_head_loss_is_its_crf_nll(name):
    ds, model = tiny_setup()
    config = TrainConfig(hidden=3, seed=4)
    (net,) = variants.make_variant(name, model.vocabs, model.embeddings, config)
    (head,) = net.heads
    query = ds.queries[0]
    gold = [net.vocabs[head.level].index_of(t) for t in query.tags(head.level)]

    def value_and_grads(build):
        for _, p in net.parameters():
            p.zero_grad()
        value, tape = build()
        backward(tape, value)
        return value.item(), [p.grad for _, p in net.parameters()]

    def nll():
        emissions, tape = model_forward(net, query_inputs(net, [query.words]))
        return crf_nll(head.crf, emissions, [gold], tape), tape

    want, want_grads = value_and_grads(nll)
    got, got_grads = value_and_grads(lambda: loss_and_tape(net, query))
    assert got == want
    assert all(np.array_equal(a, b) for a, b in zip(got_grads, want_grads))


def test_st_bi_train_forward_draws_masks_layer_by_layer(monkeypatch):
    ds, model = tiny_setup()
    u = 3
    words = ds.queries[0].words
    (net,) = variants.make_variant("ST_Bi", model.vocabs, model.embeddings, TrainConfig(hidden=u))
    applied = []
    real_gru = tagger.gru_layer

    def spy(layer, X, tape=None, rec_masks=None, lengths=None, out_mask=None):
        if out_mask is not None:
            applied.append(out_mask)
        return real_gru(layer, X, tape, rec_masks, lengths, out_mask)

    monkeypatch.setattr(tagger, "gru_layer", spy)
    rng = RNG(11)
    model_forward(net, query_inputs(net, [words]), mask_stream=MaskStream(0.5, rng))
    replay_rng = RNG(11)
    replay = MaskStream(0.5, replay_rng)
    # forward, backward recurrent mask of each bi-GRU layer, then the
    # encoder output, drawn last
    out_mask = replay.draw(1, 4 * u + 2 * u)[:, 4 * u :]
    assert rng.bit_generator.state == replay_rng.bit_generator.state
    (mask,) = applied
    assert np.array_equal(mask, out_mask)


def test_merge_value_spans():
    tagged = [
        TaggedToken("who", "O", "O"),
        TaggedToken("John", "VALUE", "cast.role"),
        TaggedToken("Nash", "VALUE", "cast.role"),
        TaggedToken("title", "ATTR", "movie.title"),
        TaggedToken("Heat", "VALUE", "movie.title"),
    ]
    spans = merge_value_spans(tagged)
    assert [(s.start, s.end, s.attribute, s.text) for s in spans] == [
        (1, 3, "cast.role", "John Nash"),
        (4, 5, "movie.title", "Heat"),
    ]


def test_merge_value_spans_breaks_on_schema_change():
    tagged = [
        TaggedToken("a", "VALUE", "movie.title"),
        TaggedToken("b", "VALUE", "cast.role"),
    ]
    spans = merge_value_spans(tagged)
    assert len(spans) == 2


def test_tag_query_shapes_and_untrained_output():
    ds, model = tiny_setup()
    tagged = tag_query(model, ds.queries[0].words)
    assert len(tagged.tokens) == 3
    for token in tagged.tokens:
        assert token.type_tag in model.vocabs[TagLevel.TYPE].symbols
        assert token.schema_tag in model.vocabs[TagLevel.SCHEMA].symbols


def test_decoding_records_no_tape(monkeypatch):
    ds, model = tiny_setup()
    words = ds.queries[0].words
    (stage,) = variants.make_variant("ST_Bi", model.vocabs, model.embeddings, TrainConfig(hidden=3))
    expected = (tag_query(model, words), model.predict_tags([words]), stage.predict_tags([words]))

    def no_tape():
        raise AssertionError("decoding built a tape")

    monkeypatch.setattr(tagger, "Tape", no_tape)
    assert model_forward(model, query_inputs(model, [words]), record=False)[3] is None
    assert (tag_query(model, words), model.predict_tags([words]), stage.predict_tags([words])) == expected
    assert expected[1] == [[t.schema_tag for t in expected[0].tokens]]


def test_save_load_roundtrip_bit_exact():
    ds, model = tiny_setup(seed=8)
    blob = save_model(model)
    again = load_model(blob)
    for (name_a, a), (name_b, b) in zip(model.parameters(), again.parameters()):
        assert name_a == name_b
        assert np.array_equal(a.data, b.data)
    assert save_model(again) == blob
    tokens = ds.queries[0].words
    first = model_forward(model, query_inputs(model, [tokens]))[2].data
    second = model_forward(again, query_inputs(again, [tokens]))[2].data
    assert np.array_equal(first, second)


def test_load_model_draws_no_random_numbers(monkeypatch):
    ds, model = tiny_setup(seed=8)
    blob = save_model(model)

    def no_draw(*args):
        raise AssertionError("load_model drew fresh parameters")

    for name in ("_glorot", "fresh_gru", "fresh_crf"):
        monkeypatch.setattr(tagger, name, no_draw)
    again = load_model(blob)
    assert save_model(again) == blob
    for (name_a, a), (name_b, b) in zip(model.parameters(), again.parameters()):
        assert name_a == name_b and np.array_equal(a.data, b.data)


def test_load_model_rejects_each_tensor_reshaped():
    # same element count, so the file stays well-formed byte for byte
    _, model = tiny_setup(seed=8)
    blob = save_model(model)
    offsets = model_files.shape_offsets(blob)
    assert list(offsets) == [name for name, _ in model.parameters()] and len(offsets) == 24
    accepted = []
    for name, offset in offsets.items():
        rows, cols = model_files.u32s(blob, offset, 2)
        shape = (cols, rows) if rows != cols else (1, rows * cols)
        reshaped = model_files.with_u32(blob, offset, shape[0])
        reshaped = model_files.with_u32(reshaped, offset + 4, shape[1])
        try:
            load_model(reshaped)
        except ModelFormatError:
            continue
        accepted.append(name)
    assert accepted == []


def test_load_model_rejects_a_missing_or_an_extra_parameter():
    _, model = tiny_setup(seed=8)
    blob = save_model(model)
    renamed = blob.replace(b"head.POS.crf.transitions", b"head.POS.crf.transitionz")
    with pytest.raises(ModelFormatError, match="no parameter head.POS.crf.transitions"):
        load_model(renamed)
    fields = dict(model_files.size_fields(blob))
    extra = model_files.with_u32(blob, fields["parameter count"], 25)
    extra += b"\x05\0\0\0extra" + model_files.matrix_bytes([[0.0]])
    with pytest.raises(ModelFormatError, match=r"parameters the network lacks: \['extra'\]"):
        load_model(extra)


def test_layers_and_model_check_the_widths_they_chain():
    cell = fresh_gru(3, 4, RNG(0))
    crf = fresh_crf(5, 4, RNG(0))
    with pytest.raises(nm.ShapeError):
        GruCell(cell.input.data, cell.recurrent.data[:, :3], cell.bias.data)
    with pytest.raises(nm.ShapeError):
        GruCell(cell.input.data, cell.recurrent.data, cell.bias.data.T)
    with pytest.raises(nm.ShapeError):
        CrfLayer(crf.emit_weight.data, crf.emit_bias.data[:, :4], crf.transitions.data)
    with pytest.raises(nm.ShapeError):
        gru_layer((cell, fresh_gru(2, 4, RNG(0))), np.zeros((1, 3)))
    _, model = tiny_setup(hidden=5)  # embedding width 4, vocabulary sizes 4, 5, 5
    pos, type_, schema = model.heads
    encoder = [("shared", model.encoder[0][1])]

    def assemble(encoder, heads, previous=None, vocabs=model.vocabs):
        return DBTaggerModel(model.embeddings, encoder, heads, vocabs, model.weights, 0.5, previous)

    assemble(encoder, [pos, type_, schema])
    three_tags = {**model.vocabs, TagLevel.POS: TagVocab(TagLevel.POS, ("a", "b", "c"))}
    previous = assemble([], [TaskHead(TagLevel.POS, None, fresh_crf(3, 4, RNG(0)))], vocabs=three_tags)
    with pytest.raises(nm.ShapeError, match="shared takes 4 inputs, gets 7"):
        assemble(encoder, [pos], previous=previous)
    with pytest.raises(nm.ShapeError, match="enc1 takes 3 inputs, gets 10"):
        assemble(encoder + [("enc1", (cell,))], [pos])
    with pytest.raises(nm.ShapeError, match="POS GRU takes 10 inputs, gets 4"):
        assemble([], [pos])
    with pytest.raises(nm.ShapeError, match=r"SCHEMA CRF \(skip 5\) takes 5 inputs, gets 10"):
        assemble(encoder, [pos, TaskHead(TagLevel.SCHEMA, schema.cell, fresh_crf(5, 5, RNG(0)))])
    with pytest.raises(ValueError, match="POS vocabulary size 4 != CRF tag count 5"):
        assemble(encoder, [TaskHead(TagLevel.POS, pos.cell, fresh_crf(5, 5, RNG(0)))])


def test_a_stage_and_its_previous_stage_share_one_embedding_table():
    _, model = tiny_setup(hidden=5)
    emb, vocabs = model.embeddings, model.vocabs
    twin = EmbeddingTable(
        emb.dimension, dict(emb.vectors), bucket_count=emb.bucket_count, subword_seed=emb.subword_seed
    )

    def stage(table, level, width, previous=None):
        head = TaskHead(level, None, fresh_crf(vocabs[level].size, width, RNG(0)))
        return DBTaggerModel(table, [], [head], vocabs, model.weights, 0.5, previous)

    previous = stage(twin, TagLevel.POS, emb.dimension)
    width = emb.dimension + vocabs[TagLevel.POS].size
    stage(twin, TagLevel.SCHEMA, width, previous)
    with pytest.raises(ValueError, match="share its previous stage's embedding table"):
        stage(emb, TagLevel.SCHEMA, width, previous)


def test_load_model_rejects_bad_magic():
    with pytest.raises(ValueError, match="magic"):
        load_model(b"NOTAMODEL")


def test_load_model_rejects_trailing_bytes():
    _, model = tiny_setup(seed=8)
    blob = save_model(model)
    with pytest.raises(ValueError, match="trailing bytes"):
        load_model(blob + b"garbage")


def test_full_model_has_three_tensors_per_gru_cell():
    _, model = tiny_setup()
    # five GRU cells (two encoder directions, three heads) and three CRFs
    assert len(model.parameters()) == 5 * 3 + 3 * 3


def test_load_model_rejects_version_1():
    _, model = tiny_setup(seed=8)
    blob = save_model(model)
    v1 = blob[:5] + (1).to_bytes(4, "little") + blob[9:]
    with pytest.raises(ValueError, match="unsupported model version 1"):
        load_model(v1)


def test_load_model_rejects_zero_buckets():
    _, model = tiny_setup(seed=8)
    blob = save_model(model)
    # magic, version and the u32 dimension precede the u64 bucket count
    crafted = blob[:13] + (0).to_bytes(8, "little") + blob[21:]
    with pytest.raises(ValueError, match="bucket count"):
        load_model(crafted)


@pytest.mark.parametrize("case", ["hidden 0", "hidden 100000", "300000 POS symbols"])
def test_load_model_checks_sizes_before_building(monkeypatch, case):
    _, model = tiny_setup(seed=8)
    blob = model_files.crafted(save_model(model))[case]

    def no_draw(*args):
        raise AssertionError("load_model drew fresh parameters")

    for name in ("_glorot", "fresh_gru", "fresh_crf"):
        monkeypatch.setattr(tagger, name, no_draw)
    with pytest.raises(ModelFormatError):
        load_model(blob)


@pytest.mark.parametrize("rate", [np.nan, np.inf, 1.5, -3.0])
def test_load_model_rejects_a_dropout_rate_outside_0_1(rate):
    _, model = tiny_setup(seed=8)
    blob = save_model(model)
    assert load_model(model_files.with_dropout_rate(blob, 0.25)).dropout_rate == 0.25
    with pytest.raises(ModelFormatError, match="dropout rate must be in"):
        load_model(model_files.with_dropout_rate(blob, rate))


def test_load_model_rejects_an_empty_vocabulary():
    # well-formed otherwise: no TYPE symbols and 2 x 2 TYPE transitions
    _, model = tiny_setup(seed=8)
    vocabs = dict(model.vocabs)
    vocabs[TagLevel.TYPE] = TagVocab(TagLevel.TYPE, ())
    empty = DBTaggerModel.build(model.embeddings, vocabs, hidden=3)
    with pytest.raises(ModelFormatError, match="TYPE vocabulary is empty"):
        load_model(save_model(empty))


def test_load_model_rejects_non_finite_values():
    _, model = tiny_setup(seed=8)
    model.heads[2].crf.emit_bias.data[0, 1] = np.nan
    with pytest.raises(ModelFormatError, match=r"parameter head\.SCHEMA\.crf\.emit_bias"):
        load_model(save_model(model))
    _, model = tiny_setup(seed=8)
    model.embeddings.vectors["Nash"] = np.full(4, np.inf)
    with pytest.raises(ModelFormatError, match="token 'Nash'"):
        load_model(save_model(model))


def test_tag_query_rejects_a_model_whose_scores_overflow():
    ds, model = tiny_setup(seed=8)
    model.heads[2].crf.transitions.data[:] = 1e308
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="not finite"):
        tag_query(model, ds.queries[0].words)


def test_tag_query_reproduces_table1(overfit_model, table1_query):
    model, _ = overfit_model
    tagged = tag_query(model, table1_query.words)
    assert [t.type_tag for t in tagged.tokens] == table1_query.tags(TagLevel.TYPE)
    assert [t.schema_tag for t in tagged.tokens] == table1_query.tags(TagLevel.SCHEMA)
    assert [(s.text, s.attribute) for s in tagged.value_spans] == [
        ("John Nash", "cast.role"),
        ("A Beautiful Mind", "movie.title"),
    ]


# ---------------------------------------------------------------------------
# packed chunks: every query of a chunk gets what it gets alone


def unpacked(packed, lengths):
    """Per-query rows of a packed (L*B x w) matrix."""
    B = len(lengths)
    rows = packed.reshape(-1, B, packed.shape[1])
    return [rows[:n, b] for b, n in enumerate(lengths)]


def fixture_model(fixture_corpus, imdb_subset, fixture_embeddings, hidden=100):
    vocabs = build_vocabs(fixture_corpus, imdb_subset)
    model = DBTaggerModel.build(fixture_embeddings, vocabs, hidden=hidden, seed=13)
    # nonzero biases, as after training: with zero biases a GRU state on
    # zero padding rows stays zero even if padding were allowed to update it
    rng = RNG(13)
    for name, p in model.parameters():
        if name.endswith("bias"):
            p.data = rng.standard_normal(p.shape) * 0.5
    return model


@pytest.mark.parametrize("size", [1, 7, 16])
def test_packed_emissions_equal_single_query_emissions(
    size, fixture_corpus, imdb_subset, fixture_embeddings
):
    model = fixture_model(fixture_corpus, imdb_subset, fixture_embeddings)
    sentences = query_inputs(model, [q.words for q in fixture_corpus.queries])
    alone = [model_forward(model, [s], record=False)[:3] for s in sentences]
    for start in range(0, len(sentences), size):
        chunk = sentences[start : start + size]
        lengths = [len(s) for s in chunk]
        packed = model_forward(model, chunk, record=False)[:3]
        for h, head in enumerate(model.heads):
            decoded = viterbi_decode(head.crf, packed[h], lengths)
            rows = unpacked(packed[h].data, lengths)
            for b, sentence_rows in enumerate(rows):
                single = alone[start + b][h]
                assert np.abs(sentence_rows - single.data).max() <= 1e-12
                assert decoded[b][0] == viterbi_decode(head.crf, single)[0][0]


def _ragged_chunk(fixture_corpus, count=7):
    by_length = sorted(fixture_corpus.queries, key=len)
    return [by_length[i * (len(by_length) - 1) // (count - 1)] for i in range(count)]


def _gradients(model, build):
    for _, p in model.parameters():
        p.zero_grad()
    loss, values, tape = build()
    backward(tape, loss)
    return values, [p.grad.copy() for _, p in model.parameters()]


@pytest.mark.parametrize("dropout", [False, True])
def test_chunk_gradient_equals_sum_of_query_gradients(
    dropout, fixture_corpus, imdb_subset, fixture_embeddings
):
    model = fixture_model(fixture_corpus, imdb_subset, fixture_embeddings, hidden=8)
    chunk = _ragged_chunk(fixture_corpus)
    assert len({len(q) for q in chunk}) > 2
    stream = (lambda: MaskStream(0.5, RNG(3))) if dropout else (lambda: None)

    chunk = prepare_queries(model, chunk)
    values, grads = _gradients(model, lambda: total_loss(model, chunk, stream()))
    per_query = stream()
    want_values, want = [], [np.zeros(p.shape) for _, p in model.parameters()]
    for query in chunk:  # one seeded stream, drawn query after query
        value, query_grads = _gradients(model, lambda: total_loss(model, [query], per_query))
        want_values.append(value[0])
        want = [a + g for a, g in zip(want, query_grads)]
    assert np.allclose(values, want_values, rtol=0, atol=1e-12)
    for got, expected in zip(grads, want):
        assert np.abs(got - expected).max() <= 1e-12


def test_padded_rows_get_zero_gradient_and_zero_states():
    rng = RNG(60)
    cell = fresh_gru(3, 4, rng)
    lengths = [2, 4, 1]
    X = Tensor(rng.standard_normal((4 * 3, 3)))
    pad = np.arange(4)[:, None] >= np.array(lengths)[None, :]
    pad = pad.reshape(-1)
    crf, _ = random_crf(1, 3, seed=61)
    G = Tensor(rng.standard_normal((4 * 3, 3)))
    tags = [[0, 2], [1, 1, 0, 2], [2]]
    for reverse in (False, True):
        tape = Tape()
        out = ops.gru_direction(cell, X, tape, reverse=reverse, lengths=lengths)
        assert np.array_equal(out.data[pad], np.zeros((pad.sum(), 4)))
        weights = Tensor(rng.standard_normal(out.shape))  # nonzero on padding too
        loss = ops.sum_all(ops.hadamard(out, weights, tape), tape)
        X.zero_grad()
        backward(tape, loss)
        assert np.array_equal(X.grad[pad], np.zeros((pad.sum(), 3)))
    tape = Tape()
    loss = ops.sum_all(crf_nll(crf, G, tags, tape), tape)
    backward(tape, loss)
    assert np.array_equal(G.grad[pad], np.zeros((pad.sum(), 3)))
    assert np.all(G.grad[~pad] != 0.0)


@pytest.mark.parametrize("reverse", [False, True])
def test_ragged_masked_chunk_gradients_match_fd(reverse):
    rng = RNG(62)
    cell = fresh_gru(3, 4, rng)
    lengths = [3, 5, 1]
    X = Tensor(rng.standard_normal((5 * 3, 3)))
    mask = (rng.random((4, 3)) > 0.4) * 2.0
    weights = Tensor(rng.standard_normal((5 * 3, 4)))
    params = [X] + [t for _, t in cell.parameters("c")]

    def build():
        tape = Tape()
        out = ops.gru_direction(cell, X, tape, rec_mask=mask, reverse=reverse, lengths=lengths)
        return ops.sum_all(ops.hadamard(out, weights, tape), tape), tape

    assert finite_diff_check(build, params, h=1e-6) < 1e-8


def test_ragged_chunk_crf_gradients_match_fd():
    rng = RNG(63)
    crf, _ = random_crf(1, 3, seed=64)
    G = Tensor(rng.standard_normal((4 * 3, 3)))
    tags = [[1, 0], [2, 2, 0, 1], [0]]

    def build():
        tape = Tape()
        return ops.sum_all(crf_nll(crf, G, tags, tape), tape), tape

    assert finite_diff_check(build, [G, crf.transitions], h=1e-6) < 1e-8


def test_packed_crf_matches_each_query_alone():
    rng = RNG(65)
    crf, _ = random_crf(1, 4, seed=66)
    lengths = [3, 1, 5, 2]
    singles = [rng.standard_normal((n, 4)) for n in lengths]
    tags = [list(rng.integers(0, 4, n)) for n in lengths]
    G = Tensor(tagger.pack(singles))
    log_z = crf_log_partition(crf, G, lengths=lengths)[0].data[:, 0]
    scores = crf_score(crf, G, tags)[0].data[:, 0]
    decoded = viterbi_decode(crf, G, lengths)
    for b, single in enumerate(singles):
        assert abs(log_z[b] - crf_log_partition(crf, Tensor(single))[0].item()) <= 1e-12
        assert abs(scores[b] - crf_score(crf, Tensor(single), [tags[b]])[0].item()) <= 1e-12
        [(path, best)] = viterbi_decode(crf, Tensor(single))
        assert decoded[b][0] == path and abs(decoded[b][1] - best) <= 1e-12


def test_packed_lengths_must_fit_the_rows():
    cell = fresh_gru(3, 4, RNG(0))
    crf, _ = random_crf(1, 3, seed=0)
    with pytest.raises(nm.ShapeError):
        gru_layer((cell,), np.zeros((6, 3)), lengths=[2, 2, 3])
    with pytest.raises(nm.ShapeError):
        gru_layer((cell,), np.zeros((4, 3)), lengths=[2, 0])
    with pytest.raises(nm.ShapeError):
        gru_layer((cell,), np.zeros((6, 3)), rec_masks=(np.ones((4, 1)),), lengths=[3, 3])
    with pytest.raises(nm.ShapeError):
        viterbi_decode(crf, np.zeros((6, 3)), [4, 2])


@pytest.mark.parametrize("name", ["DBTagger", "ST_Uni", "ST_Bi"])
def test_seeded_chunk_draws_the_per_query_dropout_masks(name, monkeypatch):
    ds, base = tiny_setup()
    config = TrainConfig(hidden=3, seed=2)
    (net,) = variants.make_variant(name, base.vocabs, base.embeddings, config)
    sentences = query_inputs(net, [q.words for q in ds.queries] * 2)
    seen = []
    real_gru = tagger.gru_layer

    def gru_spy(layer, X, tape=None, rec_masks=None, lengths=None, out_mask=None):
        seen.extend(("rec", mask) for mask in rec_masks or () if mask is not None)
        if out_mask is not None:
            seen.append(("out", out_mask))
        return real_gru(layer, X, tape, rec_masks, lengths, out_mask)

    monkeypatch.setattr(tagger, "gru_layer", gru_spy)
    model_forward(net, sentences, mask_stream=MaskStream(0.5, RNG(8)))
    chunk_masks, seen[:] = list(seen), []
    stream = MaskStream(0.5, RNG(8))
    alone = []
    for sentence in sentences:
        model_forward(net, [sentence], mask_stream=stream)
        alone.append(list(seen))
        seen[:] = []
    B = len(sentences)
    for i, (kind, mask) in enumerate(chunk_masks):
        for b in range(B):
            assert alone[b][i][0] == kind
            if kind == "rec":
                assert np.array_equal(mask[:, b], alone[b][i][1][:, 0])
            else:
                assert np.array_equal(mask[b], alone[b][i][1][0])


def test_tape_length_does_not_depend_on_chunk_size_or_lengths(
    fixture_corpus, imdb_subset, fixture_embeddings
):
    model = fixture_model(fixture_corpus, imdb_subset, fixture_embeddings, hidden=5)
    queries = list(fixture_corpus.queries)
    chunks = [queries[:1], queries[-1:], queries[:7], queries[:16], _ragged_chunk(fixture_corpus)]
    # 4 GRU layers, 3 emissions, 3 CRF losses and their weighted sum; the
    # encoder dropout in training is part of the encoder's record
    for stream, records in ((None, 11), (MaskStream(0.5, RNG(0)), 11)):
        assert {len(total_loss(model, prepare_queries(model, c), stream)[2]) for c in chunks} == {
            records
        }


@pytest.mark.parametrize("dropout", [False, True])
def test_total_loss_gradients_equal_the_record_by_record_loss_bit_for_bit(
    dropout, fixture_corpus, imdb_subset, fixture_embeddings
):
    model = fixture_model(fixture_corpus, imdb_subset, fixture_embeddings, hidden=5)
    chunks = [list(fixture_corpus.queries[:16]), _ragged_chunk(fixture_corpus)]
    chunks = [prepare_queries(model, chunk) for chunk in chunks]

    def run(loss_fn):
        for _, p in model.parameters():
            p.zero_grad()
        stream = MaskStream(0.5, RNG(3)) if dropout else None
        losses = []
        for chunk in chunks:  # both chunks add into the same grad slots
            loss, per_query, tape = loss_fn(model, chunk, stream)
            losses += [loss.data, per_query]
            backward(tape, loss)
        return losses + [p.grad for _, p in model.parameters()]

    got, want = run(total_loss), run(oracles.total_loss_by_records)
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


def test_decoding_computes_only_the_emissions_it_reads(
    monkeypatch, fixture_corpus, imdb_subset, fixture_embeddings
):
    model = fixture_model(fixture_corpus, imdb_subset, fixture_embeddings, hidden=8)
    chunk = [q.words for q in fixture_corpus.queries[:16]]
    lengths = [len(s) for s in chunk]
    full = model_forward(model, query_inputs(model, chunk), record=False)[:3]
    want_schema = [
        [model.vocabs[TagLevel.SCHEMA].symbols[i] for i in tags]
        for tags, _ in viterbi_decode(model.heads[2].crf, full[2], lengths)
    ]
    words = chunk[0]
    alone = model_forward(model, query_inputs(model, [words]), record=False)[:3]
    want_tagged = [
        [model.vocabs[level].symbols[i] for i in viterbi_decode(model.heads[h].crf, alone[h])[0][0]]
        for h, level in ((1, TagLevel.TYPE), (2, TagLevel.SCHEMA))
    ]

    calls = {"emissions": 0, "gru": 0}
    real_emissions, real_gru = CrfLayer.emissions, tagger.gru_layer

    def count_emissions(self, features, tape=None):
        calls["emissions"] += 1
        return real_emissions(self, features, tape)

    def count_gru(*args, **kwargs):
        calls["gru"] += 1
        return real_gru(*args, **kwargs)

    monkeypatch.setattr(CrfLayer, "emissions", count_emissions)
    monkeypatch.setattr(tagger, "gru_layer", count_gru)
    assert model.predict_tags(chunk) == want_schema
    assert calls == {"emissions": 1, "gru": 3}  # the encoder, TYPE and SCHEMA heads
    calls.update(emissions=0, gru=0)
    tagged = tag_query(model, words)
    assert [[t.type_tag for t in tagged.tokens], [t.schema_tag for t in tagged.tokens]] == want_tagged
    assert calls == {"emissions": 2, "gru": 4}


# ---------------------------------------------------------------------------
# one decode path


def test_tag_queries_equal_tag_query_one_query_at_a_time(overfit_model, fixture_corpus):
    model, _ = overfit_model
    fixture = [q.words for q in fixture_corpus.queries]
    rng = random.Random(11)
    run_together = [rng.choice(fixture) + rng.choice(fixture) for _ in range(300)]
    sentences = fixture + run_together
    assert tag_queries(model, sentences) == [tag_query(model, s) for s in sentences]


def test_decode_makes_one_forward_pass_per_chunk(
    monkeypatch, fixture_corpus, imdb_subset, fixture_embeddings
):
    model = fixture_model(fixture_corpus, imdb_subset, fixture_embeddings, hidden=8)
    sentences = [q.words for q in fixture_corpus.queries[:40]]
    chunk_sizes = []
    real_forward = tagger.model_forward

    def counting_forward(model, chunk, *args, **kwargs):
        chunk_sizes.append(len(chunk))
        return real_forward(model, chunk, *args, **kwargs)

    monkeypatch.setattr(tagger, "model_forward", counting_forward)
    tags = tagger.decode(model, query_inputs(model, sentences), (TagLevel.TYPE, TagLevel.SCHEMA))
    assert chunk_sizes == [16, 16, 8]
    for level in (TagLevel.TYPE, TagLevel.SCHEMA):
        assert [len(t) for t in tags[level]] == [len(s) for s in sentences]


def _tape_free_calls(tree: ast.Module) -> set[tuple[str, str]]:
    """(enclosing function, callee) of every ``viterbi_decode`` call and of
    every ``model_forward`` call whose ``record`` is not the default or a
    literal True."""
    found = set()

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if isinstance(node, ast.Call):
            callee = getattr(node.func, "id", getattr(node.func, "attr", None))
            record = [k.value for k in node.keywords if k.arg == "record"] + node.args[3:4]
            taped = all(isinstance(v, ast.Constant) and v.value is True for v in record)
            if callee == "viterbi_decode" or (callee == "model_forward" and not taped):
                found.add((owner, callee))
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(tree, None)
    return found


def test_decode_is_the_only_tape_free_pass_of_the_network():
    package = Path(tagger.__file__).parent
    found = {
        (path.stem, *call)
        for path in package.glob("*.py")
        for call in _tape_free_calls(ast.parse(path.read_text()))
    }
    assert found == {
        ("tagger", "decode", "model_forward"),
        ("tagger", "decode", "viterbi_decode"),
    }
