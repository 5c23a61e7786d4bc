"""The tagging network: a GRU encoder stack feeding task heads, each an
optional uni-directional GRU plus a linear-chain CRF, with cross-skip
connections between heads.  The full multi-task model and every ablation
variant are configurations of this one network.

The network runs over a chunk of queries at once, packed time-major: row
``t*B + b`` of every activation holds token t of query b, so activations
stay rank-2 and one query is the B=1 case.  Every GRU runs through
``gru_layer``.  A whole GRU layer (both directions of a bi-directional one,
and in training the encoder-output dropout), a head's emissions, a head's
CRF loss and the task-weighted sum of the losses are each registered on
the tape as one fused primitive per chunk with a hand-derived
vector-Jacobian product (the CRF loss gradient is the classic
forward-backward marginals minus the gold-path counts); their correctness
is pinned by finite-difference and enumeration tests.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from . import numerics as nm
from .corpus import AnnotatedQuery, TagLevel, TagVocab
from .embeddings import EmbeddingTable, embed_query
from .numerics import Tape, Tensor, gemm

MODEL_MAGIC = b"DBTG1"
MODEL_VERSION = 2

# Queries per packed pass in training and batch decoding.  Larger chunks
# cut the per-step overhead less and less while the live activations grow
# with B: a training epoch over the 50 fixture queries at hidden 100 took
# 323 ms of CPU one query at a time, 164 in chunks of 8, 142 in chunks of 16
# and 127 in chunks of 32, and the peak RSS of a 4-epoch fit went 56.2,
# 57.6, 59.7 MB for 8, 16, 32 (2-core host, OpenBLAS 0.3.31, numpy 2.4).
CHUNK = 16


def chunks(items: list) -> list[list]:
    return [items[i : i + CHUNK] for i in range(0, len(items), CHUNK)]


# ---------------------------------------------------------------------------
# packing


def pack(matrices: list[np.ndarray]) -> np.ndarray:
    """Stack per-query (n_b x w) matrices time-major into (L*B x w), L the
    longest n_b: row ``t*B + b`` is row t of query b, zero past its end."""
    L = max(len(m) for m in matrices)
    out = np.zeros((L, len(matrices), matrices[0].shape[1]))
    for b, m in enumerate(matrices):
        out[: len(m), b] = m
    return out.reshape(-1, out.shape[2])


def _layout(rows: int, lengths) -> tuple[int, int, np.ndarray | None]:
    """(L, B, mask) of ``rows`` packed rows holding queries of the given
    lengths (None: one query of every row).  ``mask`` is the (L*B x 1)
    column with 1 at real tokens and 0 at padding, None without padding."""
    if lengths is None:
        return rows, 1, None
    B, L = len(lengths), max(lengths, default=0)
    if min(lengths, default=0) < 1 or L * B != rows:
        raise nm.ShapeError(f"lengths {list(lengths)} do not pack into {rows} rows")
    if min(lengths) == L:
        return L, B, None
    mask = np.arange(L)[:, None] < np.asarray(lengths)[None, :]
    return L, B, mask.astype(np.float64).reshape(L * B, 1)


# ---------------------------------------------------------------------------
# GRU


class GruCell:
    """Gated recurrent unit with update/reset gates and a tanh candidate.

    The gates are stored stacked, rows in update, reset, candidate order:
    ``input`` (3u x d), ``recurrent`` (3u x u) and ``bias`` (3u x 1).  The
    cell holds the arrays it is given and reads d and u off their shapes.
    """

    FIELDS = ("input", "recurrent", "bias")

    def __init__(self, input: np.ndarray, recurrent: np.ndarray, bias: np.ndarray):
        rows, u = recurrent.shape
        if u < 1 or rows != 3 * u or input.shape[0] != rows or bias.shape != (rows, 1):
            raise nm.ShapeError(
                f"GRU gates of shapes {input.shape}, {recurrent.shape}, {bias.shape} do not "
                "stack as (3u x d), (3u x u), (3u x 1) with u >= 1"
            )
        self.input_size = input.shape[1]
        self.hidden_size = u
        self.input = Tensor(input)
        self.recurrent = Tensor(recurrent)
        self.bias = Tensor(bias)

    def parameters(self, prefix: str) -> list[tuple[str, Tensor]]:
        return [(f"{prefix}.{field}", getattr(self, field)) for field in self.FIELDS]


def _glorot(rng: np.random.Generator, shape: tuple[int, int]) -> np.ndarray:
    fan_out, fan_in = shape
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, shape)


def fresh_gru(input_size: int, hidden_size: int, rng: np.random.Generator) -> GruCell:
    """A cell of Glorot-drawn weights and zero biases."""
    u, d = hidden_size, input_size
    # drawn gate by gate, input block then recurrent block
    blocks = [_glorot(rng, shape) for _ in range(3) for shape in ((u, d), (u, u))]
    return GruCell(np.vstack(blocks[0::2]), np.vstack(blocks[1::2]), np.zeros((3 * u, 1)))


def _gru_kernel(cell: GruCell, Xd: np.ndarray, layout, rec_mask, reverse: bool, x_grad: bool):
    """Run the cell from a zero state over each query of a packed (L*B x d)
    input laid out as ``_layout`` gives (L, B, mask), walking each query
    last token to first when ``reverse``.  Returns the packed (L*B x u)
    states and their VJP, which maps the states' gradient to the gradients
    of the input (only when ``x_grad``), then of ``input``, ``recurrent``
    and ``bias``.  ``rec_mask`` is as in ``gru_layer``."""
    u = cell.hidden_size
    L, B, valid = layout
    # views of the stored gates; nothing here copies a parameter
    U, W = cell.input.data, cell.recurrent.data
    W_zr, W_c = W[: 2 * u], W[2 * u :]
    m = None if rec_mask is None else rec_mask.T
    steps = range(L - 1, -1, -1) if reverse else range(L)

    # input projections of every token, turned into the gates z, r, c step by step
    gates = gemm(Xd, U.T)
    gates += cell.bias.data[:, 0]
    out = np.empty((L * B, u))
    h = np.zeros((B, u))
    for t in steps:
        rows = slice(t * B, (t + 1) * B)
        a = gates[rows]
        hm = h if m is None else h * m
        zr = a[:, : 2 * u]
        zr += gemm(hm, W_zr.T)
        zr *= 0.5
        np.tanh(zr, out=zr)
        zr *= 0.5
        zr += 0.5
        z = zr[:, :u]
        if valid is not None:
            z *= valid[rows]  # a zero update gate holds the state on padding
        c = a[:, 2 * u :]
        c += gemm(zr[:, u:] * hm, W_c.T)
        np.tanh(c, out=c)
        h = h + z * (c - h)
        out[rows] = h
    if valid is not None:
        out *= valid  # padding rows are zero

    def vjp(g):
        if valid is not None:
            g = g * valid
        # each state as the weights saw it one step later
        fed = out if m is None else out * np.tile(m, (L, 1))
        reset_fed = np.empty((L * B, u))
        # the stacked gate pre-activation gradients overwrite the gates step
        # by step: backward runs a record's VJP once
        D = gates
        zero = np.zeros((B, u))
        carry = zero
        for t in reversed(steps):
            rows = slice(t * B, (t + 1) * B)
            before = t + 1 if reverse else t - 1
            if 0 <= before < L:
                prev_rows = slice(before * B, (before + 1) * B)
                prev, hm = out[prev_rows], fed[prev_rows]
            else:
                prev = hm = zero
            Dt = D[rows]
            Z, R, C = Dt[:, :u], Dt[:, u : 2 * u], Dt[:, 2 * u :]
            dh = g[rows] + carry
            keep = 1.0 - Z
            dz = dh * (C - prev) * Z * keep
            dc = dh * Z * (1.0 - C * C)
            drh = gemm(dc, W_c)
            dr = drh * hm * R * (1.0 - R)
            np.multiply(R, hm, out=reset_fed[rows])
            dhm = drh * R
            Dt[:, :u], Dt[:, u : 2 * u], Dt[:, 2 * u :] = dz, dr, dc
            dhm += gemm(Dt[:, : 2 * u], W_zr)
            if m is not None:
                dhm *= m
            carry = dh * keep + dhm
        # row t's previous state is row t-1's output (t+1's in reverse)
        if reverse:
            lead, lag = slice(None, -B), slice(B, None)
        else:
            lead, lag = slice(B, None), slice(None, -B)
        dW = np.empty((3 * u, u))
        dW[: 2 * u] = gemm(D[lead, : 2 * u].T, fed[lag])
        dW[2 * u :] = gemm(D[:, 2 * u :].T, reset_fed)
        grads = (gemm(D.T, Xd), dW, D.sum(axis=0)[:, None])
        return (gemm(D, U), *grads) if x_grad else grads

    return out, vjp


def gru_layer(
    layer: tuple[GruCell, ...],
    X,
    tape: Tape | None = None,
    rec_masks=None,
    lengths=None,
    out_mask: np.ndarray | None = None,
) -> Tensor:
    """Run a GRU layer, a forward cell or a forward and a reverse cell, from
    a zero state over each query of a packed (L*B x d) input and return the
    packed states, the cells' side by side (L*B x Σu).

    ``lengths`` gives the B query lengths (default: one query of all rows).
    A state updates only at its query's own tokens, so the reverse cell
    starts at each query's last token; padding rows come out zero and pass
    no gradient.  ``X`` is a constant array or a Tensor; a Tensor receives
    its gradient.  ``rec_masks``, when given, holds a (u x B) mask per cell
    that drops entries of query b's previous state (by column b) wherever it
    feeds a weight matrix; the interpolation path keeps the unmasked state
    (variational recurrent dropout).  ``out_mask`` (B x Σu), when given,
    scales each query's output states (the encoder-output dropout).

    The whole layer over the chunk is one tape record, which keeps the
    input, the states and the gates.  It lists a Tensor input once per
    cell, the reverse cell's first, so that its grad slot sums the two
    directions in the order two records of their own would.  Every product
    goes through ``gemm`` (see README).
    """
    x_const = not isinstance(X, Tensor)
    Xd = np.asarray(X, dtype=np.float64) if x_const else X.data
    takes = [cell.input_size for cell in layer]
    if not 1 <= len(layer) <= 2 or Xd.ndim != 2 or not len(Xd) or {Xd.shape[1]} != set(takes):
        raise nm.ShapeError(f"gru_layer: input shape {Xd.shape} for cells taking {takes}")
    layout = L, B, _ = _layout(Xd.shape[0], lengths)
    widths = [cell.hidden_size for cell in layer]
    rec = list(rec_masks or [None] * len(layer))
    masks, shapes = [*rec, out_mask], [(u, B) for u in widths] + [(B, sum(widths))]
    if len(rec) != len(layer) or any(m is not None and m.shape != s for m, s in zip(masks, shapes)):
        given = [None if m is None else m.shape for m in masks]
        raise nm.ShapeError(f"gru_layer: masks of shapes {given}, expected {shapes}")
    runs = []
    for i, (cell, mask) in enumerate(zip(layer, rec)):
        states, run = _gru_kernel(cell, Xd, layout, mask, i == 1, not x_const)
        runs.append((states, None if tape is None else run))
        del run  # untaped, a cell's gates are freed before the next cell runs
    value = runs[0][0] if len(runs) == 1 else np.hstack([states for states, _ in runs])
    if out_mask is not None:
        out_mask = np.tile(out_mask, (L, 1))
        value = value * out_mask
    result = Tensor(value)
    if tape is None:
        return result

    def vjp(g):
        if out_mask is not None:
            g = g * out_mask
        parts = np.hsplit(g, np.cumsum(widths)[:-1])
        grads = []
        while runs:  # drop each cell's saved gates once its gradients are out
            _, run = runs.pop()
            grads += run(parts[len(runs)])
        return grads

    x = () if x_const else (X,)
    inputs = [t for cell in layer[::-1] for t in (*x, cell.input, cell.recurrent, cell.bias)]
    tape.record(result, tuple(inputs), vjp)
    return result


# ---------------------------------------------------------------------------
# CRF


class CrfLayer:
    """Linear-chain CRF with learned transitions and an affine emission map.

    The transition matrix is (k+2) x (k+2) with the boundary symbols at
    rows/columns k (START) and k+1 (STOP).  Transitions out of STOP and
    into START are structurally masked: no computation ever reads them.

    The CRF functions below take packed (L*B x k) emissions with the B
    query lengths (or, for ``crf_score``, the B tag sequences); padding
    rows are ignored and receive exactly zero gradient.
    """

    FIELDS = ("emit_weight", "emit_bias", "transitions")

    def __init__(self, emit_weight: np.ndarray, emit_bias: np.ndarray, transitions: np.ndarray):
        k = transitions.shape[0] - 2
        shapes = (emit_weight.shape[1], emit_bias.shape, transitions.shape)
        if shapes != (k, (1, k), (k + 2, k + 2)):
            raise nm.ShapeError(
                f"CRF arrays of shapes {emit_weight.shape}, {emit_bias.shape}, "
                f"{transitions.shape} are not (f x k), (1 x k), (k+2 x k+2)"
            )
        self.tag_count = k
        self.feature_size = emit_weight.shape[0]
        self.emit_weight = Tensor(emit_weight)
        self.emit_bias = Tensor(emit_bias)
        self.transitions = Tensor(transitions)

    @property
    def start_index(self) -> int:
        return self.tag_count

    @property
    def stop_index(self) -> int:
        return self.tag_count + 1

    def emissions(self, parts: list[Tensor], tape: Tape | None = None) -> Tensor:
        """Emission scores of features given as column blocks side by side:
        each block multiplies its own rows of ``emit_weight``, so the
        features are never concatenated; then ``emit_bias`` is added."""
        widths = [p.shape[1] for p in parts]
        if sum(widths) != self.feature_size:
            raise nm.ShapeError(
                f"emission features have width {sum(widths)}, expected {self.feature_size}"
            )
        ends = np.cumsum(widths)
        blocks = [self.emit_weight.data[e - w : e] for e, w in zip(ends, widths)]
        value = gemm(parts[0].data, blocks[0])
        for part, block in zip(parts[1:], blocks[1:]):
            value += gemm(part.data, block)
        value += self.emit_bias.data
        out = Tensor(value)
        if tape is not None:
            features = [p.data for p in parts]

            def vjp(g):
                dW = np.vstack([gemm(f.T, g) for f in features])
                return (*(gemm(g, b.T) for b in blocks), dW, g.sum(axis=0, keepdims=True))

            tape.record(out, (*parts, self.emit_weight, self.emit_bias), vjp)
        return out

    def parameters(self, prefix: str) -> list[tuple[str, Tensor]]:
        return [(f"{prefix}.{field}", getattr(self, field)) for field in self.FIELDS]


def fresh_crf(tag_count: int, feature_size: int, rng: np.random.Generator) -> CrfLayer:
    """A CRF of Glorot-drawn emission weights, zero emission biases and zero
    transitions."""
    k = tag_count
    return CrfLayer(_glorot(rng, (feature_size, k)), np.zeros((1, k)), np.zeros((k + 2, k + 2)))


def _checked(crf: CrfLayer, emissions, lengths):
    """(G as (L, B, k), lengths as an array) of packed emissions."""
    G = emissions.data if isinstance(emissions, Tensor) else np.asarray(emissions, dtype=np.float64)
    rows, k = G.shape
    if k != crf.tag_count:
        raise nm.ShapeError(f"emissions have {k} tags, CRF has {crf.tag_count}")
    L, B, _ = _layout(rows, lengths)
    return G.reshape(L, B, k), np.asarray(lengths if lengths is not None else [rows])


def crf_score(crf: CrfLayer, emissions: Tensor, tags: list[list[int]]):
    """Path score of each query's tag sequence (B x 1): boundary and
    adjacent transitions plus per-token emissions; and the positions the
    sequences visit, which ``crf_nll``'s gradient reads."""
    lengths = [len(seq) for seq in tags]
    G3, _ = _checked(crf, emissions, lengths)
    L, B, k = G3.shape
    flat = np.array([tag for seq in tags for tag in seq], dtype=np.int64)
    if flat.min() < 0 or flat.max() >= k:
        bad = flat[(flat < 0) | (flat >= k)][0]
        raise ValueError(f"tag index {bad} outside 0..{k - 1}")
    A = crf.transitions.data
    start, stop = crf.start_index, crf.stop_index
    query = np.repeat(np.arange(B), lengths)
    first = np.cumsum(lengths) - lengths
    last = first + np.asarray(lengths) - 1
    rows = (np.arange(len(flat)) - first[query]) * B + query
    inner = np.setdiff1d(np.arange(len(flat)), last)  # positions followed by a token
    G = G3.reshape(L * B, k)
    value = A[start, flat[first]] + A[flat[last], stop]
    value += np.bincount(query, G[rows, flat], minlength=B)
    value += np.bincount(query[inner], A[flat[inner], flat[inner + 1]], minlength=B)
    return Tensor(value[:, None]), (rows, flat, query, first, last, inner)


def _lse(x: np.ndarray, axis: int) -> np.ndarray:
    m = x.max(axis=axis, keepdims=True)
    return (m + np.log(np.exp(x - m).sum(axis=axis, keepdims=True))).squeeze(axis=axis)


def crf_log_partition(crf: CrfLayer, emissions: Tensor, lengths=None):
    """Each query's log sum over all its tag sequences of exp(path score)
    (B x 1), by the forward algorithm in log space; and the forward
    lattice (L x B x k), which ``crf_nll``'s gradient reads."""
    G3, lens = _checked(crf, emissions, lengths)
    L, B, k = G3.shape
    A = crf.transitions.data
    inner = A[:k, :k]
    alpha = np.empty((L, B, k))
    alpha[0] = A[crf.start_index, :k] + G3[0]
    for t in range(1, L):
        alpha[t] = _lse(alpha[t - 1][:, :, None] + inner, axis=1) + G3[t]
    ends = alpha[lens - 1, np.arange(B)]
    return Tensor(_lse(ends + A[:k, crf.stop_index], axis=1)[:, None]), alpha


def crf_nll(
    crf: CrfLayer, emissions: Tensor, tags: list[list[int]], tape: Tape | None = None
) -> Tensor:
    """Negative log-probability of each query's gold sequence (B x 1);
    non-negative.

    One tape record.  Its gradient is the forward-backward marginals minus
    the gold-path counts, the pair marginals summed over time one step at a
    time so that only one (B x k x k) step of them is held.  The record
    lists the emissions and the transitions twice and hands each the gold
    term first: a grad slot then sums the two terms in the order that two
    records of their own would."""
    lengths = [len(seq) for seq in tags]
    log_z, alpha = crf_log_partition(crf, emissions, lengths)
    gold, (rows, flat, query, first, last, inner_pos) = crf_score(crf, emissions, tags)
    out = Tensor(log_z.data - gold.data)
    if tape is None:
        return out
    L, B, k = alpha.shape
    G3, lens = emissions.data.reshape(L, B, k), np.asarray(lengths)
    A, start, stop = crf.transitions.data, crf.start_index, crf.stop_index
    inner = A[:k, :k]

    def vjp(g):
        w = g[:, 0]
        dG_gold, dA_gold = np.zeros((L * B, k)), np.zeros_like(A)
        dG_gold[rows, flat] = -w[query]
        np.add.at(dA_gold, (start, flat[first]), -w)
        np.add.at(dA_gold, (flat[last], stop), -w)
        np.add.at(dA_gold, (flat[inner_pos], flat[inner_pos + 1]), -w[query[inner_pos]])
        # -inf past each query's end makes every padding marginal exp(-inf) = 0
        beta = np.full((L, B, k), -np.inf)
        for t in range(L - 1, -1, -1):
            beta[t, lens - 1 == t] = A[:k, stop]
            go = np.flatnonzero(lens - 1 > t)
            if go.size:
                nxt = G3[t + 1, go] + beta[t + 1, go]
                beta[t, go] = _lse(inner + nxt[:, None, :], axis=2)
        shifted = alpha - log_z.data
        unary = np.exp(shifted + beta)
        dA = np.zeros_like(A)
        if L > 1:
            after, pairs = G3[1:] + beta[1:], np.zeros((B, k, k))
            for t in range(L - 1):
                pair = shifted[t, :, :, None] + inner
                pair += after[t, :, None, :]
                pairs += np.exp(pair, out=pair)
            dA[:k, :k] = np.tensordot(w, pairs, axes=1)
        dA[start, :k] = w @ unary[0]
        dA[:k, stop] = w @ unary[lens - 1, np.arange(B)]
        return dG_gold, dA_gold, (unary * w[:, None]).reshape(L * B, k), dA

    tape.record(out, (emissions, crf.transitions, emissions, crf.transitions), vjp)
    return out


def viterbi_decode(crf: CrfLayer, emissions, lengths=None) -> list[tuple[list[int], float]]:
    """Highest-scoring tag sequence of each query with its score; ties
    resolve to the lowest tag index."""
    G3, lens = _checked(crf, emissions, lengths)
    L, B, k = G3.shape
    A = crf.transitions.data
    start, stop = crf.start_index, crf.stop_index
    inner = A[:k, :k]
    delta = A[start, :k] + G3[0]
    back = np.empty((L, B, k), dtype=np.int64)
    running = (np.arange(L)[:, None] < lens)[:, :, None] if lens.min() < L else None
    for t in range(1, L):
        cand = delta[:, :, None] + inner
        back[t] = cand.argmax(axis=1)
        step = cand.max(axis=1) + G3[t]
        delta = step if running is None else np.where(running[t], step, delta)
    final = delta + A[:k, stop]
    decoded = []
    for b, n in enumerate(lens.tolist()):
        last = int(final[b].argmax())
        tags = [last]
        for t in range(n - 1, 0, -1):
            tags.append(int(back[t, b, tags[-1]]))
        decoded.append((tags[::-1], float(final[b, last])))
    return decoded


# ---------------------------------------------------------------------------
# model

# The paper's hidden size, (POS, TYPE, SCHEMA) loss weights and dropout
# rate; ``DBTaggerModel.build`` and ``training.TrainConfig`` default to them.
DEFAULT_HIDDEN = 100
DEFAULT_WEIGHTS = (0.1, 0.2, 0.7)
DEFAULT_DROPOUT = 0.5


@dataclass(frozen=True)
class TaskWeights:
    pos: float
    type: float
    schema: float

    def __post_init__(self):
        if min(self.pos, self.type, self.schema) < 0:
            raise ValueError("task weights must be non-negative")
        if math.fsum((self.pos, self.type, self.schema)) != 1.0:
            raise ValueError(
                f"task weights must sum to 1, got {self.pos} + {self.type} + {self.schema}"
            )

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.pos, self.type, self.schema)


@dataclass
class TaskHead:
    """One tag level: a uni-directional GRU over the encoder output (or
    none, so the CRF reads the encoder output directly) and a CRF whose
    features are the head's states plus, after the first head, the previous
    head's states."""

    level: TagLevel
    cell: GruCell | None
    crf: CrfLayer

    def parameters(self) -> list[tuple[str, Tensor]]:
        prefix = f"head.{self.level.value}"
        gru = [] if self.cell is None else self.cell.parameters(f"{prefix}.gru")
        return gru + self.crf.parameters(f"{prefix}.crf")


def _check_dropout_rate(rate: float) -> None:
    if not 0.0 <= rate < 1.0:  # also rejects NaN
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")


class MaskStream:
    """Seeded source of inverted-scale Bernoulli dropout masks."""

    def __init__(self, rate: float, rng: np.random.Generator):
        _check_dropout_rate(rate)
        self.rate = rate
        self._rng = rng

    def draw(self, count: int, width: int) -> np.ndarray:
        """A (count x width) mask, drawn row after row."""
        if self.rate == 0.0:
            return np.ones((count, width))
        keep = (self._rng.random((count, width)) >= self.rate).astype(np.float64)
        return keep / (1.0 - self.rate)


HEAD_ORDER = (TagLevel.POS, TagLevel.TYPE, TagLevel.SCHEMA)


class DBTaggerModel:
    """A stack of GRU encoder layers feeding one or more task heads in POS,
    TYPE, SCHEMA order, with each head's states concatenated into the next
    head's emission features.

    ``encoder`` holds (parameter prefix, layer) pairs, a layer being the
    cells ``gru_layer`` runs: one, or a forward and a reverse one whose
    parameters are named ``<prefix>.fwd`` and ``<prefix>.bwd``.
    ``previous``, for an MT_Seq stage, is the stage before it: the network
    reads the tags that stage predicts as one-hot columns beside the word
    vectors (``query_inputs``).  The full model (``build``) is one shared
    bi-GRU and three heads; the ablation variants drop parts of it.  The
    widths of the layers must chain, or ShapeError is raised.
    """

    def __init__(
        self,
        embeddings: EmbeddingTable,
        encoder: list[tuple[str, tuple[GruCell, ...]]],
        heads: list[TaskHead],
        vocabs: dict[TagLevel, TagVocab],
        weights: TaskWeights,
        dropout_rate: float,
        previous: "DBTaggerModel | None" = None,
    ):
        ranks = [HEAD_ORDER.index(h.level) for h in heads]
        if not ranks or ranks != sorted(set(ranks)):
            raise ValueError("heads must be ordered POS, TYPE, SCHEMA")

        def check(name: str, takes: int, gets: int):
            if takes != gets:
                raise nm.ShapeError(f"{name} takes {takes} inputs, gets {gets}")

        width = embeddings.dimension + (previous.tag_vocab.size if previous else 0)
        for prefix, layer in encoder:
            for cell in layer:
                check(prefix, cell.input_size, width)
            width = sum(cell.hidden_size for cell in layer)
        skip = 0  # the previous head's state width
        for head in heads:
            states = width if head.cell is None else head.cell.hidden_size
            if head.cell is not None:
                check(f"{head.level.value} GRU", head.cell.input_size, width)
            check(f"{head.level.value} CRF (skip {skip})", head.crf.feature_size, states + skip)
            if vocabs[head.level].size != head.crf.tag_count:
                raise ValueError(
                    f"{head.level.value} vocabulary size {vocabs[head.level].size} != "
                    f"CRF tag count {head.crf.tag_count}"
                )
            skip = states
        self.embeddings = embeddings
        self.encoder = encoder
        self.heads = heads
        self.vocabs = vocabs
        self.weights = weights
        _check_dropout_rate(dropout_rate)
        if previous is not None and previous.embeddings is not embeddings:
            raise ValueError("a stage must share its previous stage's embedding table")
        self.dropout_rate = dropout_rate
        self.previous = previous

    @classmethod
    def build(
        cls,
        embeddings: EmbeddingTable,
        vocabs: dict[TagLevel, TagVocab],
        hidden: int = DEFAULT_HIDDEN,
        weights: TaskWeights = TaskWeights(*DEFAULT_WEIGHTS),
        dropout_rate: float = DEFAULT_DROPOUT,
        seed: int = 0,
    ) -> "DBTaggerModel":
        """The full model with freshly drawn parameters."""
        rng = np.random.default_rng(seed)
        fresh = {GruCell: fresh_gru, CrfLayer: fresh_crf}
        return _full_model(
            embeddings, vocabs, hidden, weights, dropout_rate,
            lambda kind, prefix, *sizes: fresh[kind](*sizes, rng),
        )

    @property
    def hidden_size(self) -> int:
        return self.encoder[0][1][0].hidden_size

    def parameters(self) -> list[tuple[str, Tensor]]:
        params = []
        for prefix, layer in self.encoder:
            for cell, direction in zip(layer, ("fwd", "bwd")):
                params += cell.parameters(prefix if len(layer) == 1 else f"{prefix}.{direction}")
        for head in self.heads:
            params += head.parameters()
        return params

    def estimated_bytes(self) -> int:
        return (
            sum(t.data.size * 8 for _, t in self.parameters())
            + self.embeddings.estimated_bytes()
        )

    @property
    def tag_vocab(self) -> TagVocab:
        """The vocabulary of the last head, whose tags the model predicts."""
        return self.vocabs[self.heads[-1].level]

    def predict_tags(self, sentences: list[list[str]]) -> list[list[str]]:
        """Viterbi tags of the last head for each sentence."""
        level = self.heads[-1].level
        return decode(self, query_inputs(self, sentences), (level,))[level]


def _full_model(embeddings, vocabs, hidden, weights, dropout_rate, layer) -> DBTaggerModel:
    """The full multi-task network: one shared bi-GRU encoder and a GRU+CRF
    head per level, each head's CRF reading its own GRU's states and the
    previous head's.  ``layer(kind, prefix, *sizes)`` makes each GruCell
    (sizes: input, hidden) and CrfLayer (sizes: tags, features), in
    parameter order, from its parameter name prefix and its sizes."""
    d, u = embeddings.dimension, hidden
    shared = (layer(GruCell, "shared.fwd", d, u), layer(GruCell, "shared.bwd", d, u))
    heads = []
    for i, level in enumerate(HEAD_ORDER):
        prefix = f"head.{level.value}"
        cell = layer(GruCell, f"{prefix}.gru", 2 * u, u)
        crf = layer(CrfLayer, f"{prefix}.crf", vocabs[level].size, u if i == 0 else 2 * u)
        heads.append(TaskHead(level, cell, crf))
    return DBTaggerModel(embeddings, [("shared", shared)], heads, vocabs, weights, dropout_rate)


def _draw_masks(model: DBTaggerModel, stream: MaskStream, count: int):
    """Dropout masks for a chunk of ``count`` queries, drawn as one block
    whose row b holds query b's masks in the order one query draws them:
    each encoder cell's recurrent mask (a layer's forward cell first), then
    the encoder output mask.  Returns per encoder layer its cells' (u x B)
    recurrent masks and its (B x width) output mask, None but on the last."""
    sizes = [[cell.hidden_size for cell in layer] for _, layer in model.encoder]
    flat = [u for layer in sizes for u in layer] + [sum(sizes[-1])]
    parts = iter(np.hsplit(stream.draw(count, sum(flat)), np.cumsum(flat)[:-1]))
    masks = [[tuple(next(parts).T for _ in layer), None] for layer in sizes]
    masks[-1][1] = next(parts)
    return masks


def query_inputs(model: DBTaggerModel, sentences: list[list[str]]) -> list[np.ndarray]:
    """What the network reads of each sentence, one (n x width) matrix: the
    word vectors and, for a model with a ``previous`` stage, the tags that
    stage predicts as one-hot columns beside them.  The sentences are
    embedded once, in the table every stage of a chain shares, and each
    earlier stage decodes them once, the first stage first."""
    chain = [model]
    while chain[-1].previous is not None:
        chain.append(chain[-1].previous)
    words = [embed_query(model.embeddings, s) for s in sentences]
    inputs = words
    for stage in chain[:0:-1]:
        level, vocab = stage.heads[-1].level, stage.tag_vocab
        tagged = decode(stage, inputs, (level,))[level]
        inputs = []
        for vectors, tags in zip(words, tagged):
            one_hot = np.zeros((len(tags), vocab.size))
            one_hot[np.arange(len(tags)), [vocab.index_of(t) for t in tags]] = 1.0
            inputs.append(np.hstack([vectors, one_hot]))
    return inputs


def model_forward(
    model: DBTaggerModel,
    inputs: list[np.ndarray],
    mask_stream: MaskStream | None = None,
    record: bool = True,
    levels=None,
) -> tuple:
    """Emission matrices of the heads in order for a chunk of queries given
    as their ``query_inputs`` matrices, packed time-major (row ``t*B + b``
    is token t of query b), followed by the tape that built them (None when
    ``record`` is false, as for decoding).

    ``levels`` names the heads whose emissions are wanted (default: all);
    the others come back as None.  A head's GRU runs only when its own or
    the next head's emission reads it.

    A ``mask_stream`` means training: dropout then applies to the encoder
    only, with masks drawn query by query as ``_draw_masks`` describes.  An
    empty encoder draws no mask.
    """
    lengths = [len(x) for x in inputs]
    tape = Tape() if record else None
    masks = [(None, None)] * len(model.encoder)
    if mask_stream is not None and model.encoder:
        masks = _draw_masks(model, mask_stream, len(inputs))
    H = pack(inputs)
    for (_, layer), (rec_masks, out_mask) in zip(model.encoder, masks):
        H = gru_layer(layer, H, tape, rec_masks, lengths, out_mask)
    if not model.encoder:
        H = Tensor(H)

    wanted = HEAD_ORDER if levels is None else levels
    emissions = []
    prev: Tensor | None = None
    for i, head in enumerate(model.heads):
        emit = head.level in wanted
        feeds_next = i + 1 < len(model.heads) and model.heads[i + 1].level in wanted
        states = None
        if emit or feeds_next:
            states = H if head.cell is None else gru_layer((head.cell,), H, tape, lengths=lengths)
        if emit:
            parts = [states] if prev is None else [states, prev]
            emissions.append(head.crf.emissions(parts, tape))
        else:
            emissions.append(None)
        prev = states
    return (*emissions, tape)


@dataclass(frozen=True)
class Example:
    """An annotated query as a fit reads it: its ``query_inputs`` matrix and
    each head's gold tag indices, in head order."""

    query: AnnotatedQuery
    inputs: np.ndarray
    gold: tuple[list[int], ...]


def prepare_queries(model: DBTaggerModel, queries) -> list[Example]:
    """Derive each query's inputs and gold indices once, for ``total_loss``
    and ``training.token_accuracy`` to read as often as they like."""
    inputs = query_inputs(model, [q.words for q in queries])
    vocabs = [(model.vocabs[head.level], head.level) for head in model.heads]
    return [
        Example(q, x, tuple([v.index_of(t) for t in q.tags(level)] for v, level in vocabs))
        for q, x in zip(queries, inputs)
    ]


def total_loss(
    model: DBTaggerModel,
    examples: list[Example],
    mask_stream: MaskStream | None = None,
) -> tuple[Tensor, np.ndarray, Tape]:
    """Task-weighted sum of the heads' CRF losses over a chunk of queries,
    with each query's own loss and the tape.  A query's loss is folded left
    in head order: ((w_pos*L_pos + w_type*L_type) + w_schema*L_schema).
    The weighted sum over the heads' losses is one tape record."""
    *emissions, tape = model_forward(model, [e.inputs for e in examples], mask_stream)
    weight = dict(zip(HEAD_ORDER, model.weights.as_tuple()))
    weights = [weight[head.level] for head in model.heads]
    nlls, per_query = [], None
    for i, (head, emission, w) in enumerate(zip(model.heads, emissions, weights)):
        nlls.append(crf_nll(head.crf, emission, [e.gold[i] for e in examples], tape))
        term = nlls[-1].data * w
        per_query = term if per_query is None else per_query + term
    loss = Tensor(per_query.sum())
    tape.record(loss, tuple(nlls), lambda g: [np.full(per_query.shape, g[0, 0]) * w for w in weights])
    return loss, per_query[:, 0], tape


def decode(
    model: DBTaggerModel, inputs: list[np.ndarray], levels: tuple[TagLevel, ...]
) -> dict[TagLevel, list[list[str]]]:
    """Viterbi tags of the heads at ``levels``, per level one tag list per
    query's ``query_inputs``.  The network's only pass without a tape: one
    ``model_forward`` per chunk of ``CHUNK`` queries and one Viterbi pass per
    wanted head.  A model whose scores overflow raises ValueError."""
    tags = {level: [] for level in levels}
    for chunk in chunks(inputs):
        *emissions, _ = model_forward(model, chunk, record=False, levels=levels)
        for head, emission in zip(model.heads, emissions):
            if emission is None:
                continue
            decoded = viterbi_decode(head.crf, emission, [len(x) for x in chunk])
            if not all(math.isfinite(score) for _, score in decoded):
                raise ValueError("tag scores are not finite: the model's parameters overflow")
            symbols = model.vocabs[head.level].symbols
            tags[head.level] += [[symbols[i] for i in path] for path, _ in decoded]
    return tags


@dataclass(frozen=True)
class TaggedToken:
    text: str
    type_tag: str
    schema_tag: str


@dataclass(frozen=True)
class ValueSpan:
    start: int
    end: int  # exclusive
    attribute: str
    text: str


@dataclass(frozen=True)
class TaggedQuery:
    tokens: tuple[TaggedToken, ...]
    value_spans: tuple[ValueSpan, ...]


def merge_value_spans(tokens: list[TaggedToken]) -> tuple[ValueSpan, ...]:
    """Consecutive VALUE tokens sharing a schema tag form one keyword span."""
    spans = []
    i = 0
    while i < len(tokens):
        if tokens[i].type_tag != "VALUE":
            i += 1
            continue
        j = i + 1
        while (
            j < len(tokens)
            and tokens[j].type_tag == "VALUE"
            and tokens[j].schema_tag == tokens[i].schema_tag
        ):
            j += 1
        spans.append(
            ValueSpan(
                start=i,
                end=j,
                attribute=tokens[i].schema_tag,
                text=" ".join(t.text for t in tokens[i:j]),
            )
        )
        i = j
    return tuple(spans)


def tag_queries(model: DBTaggerModel, sentences: list[list[str]]) -> list[TaggedQuery]:
    """Decode TYPE and SCHEMA tags for tokenized queries and merge each
    query's value spans.  The POS head only shapes training; its emission is
    not computed."""
    tags = decode(model, query_inputs(model, sentences), (TagLevel.TYPE, TagLevel.SCHEMA))
    tagged = []
    for words, types, schemas in zip(sentences, tags[TagLevel.TYPE], tags[TagLevel.SCHEMA]):
        tokens = [TaggedToken(*token) for token in zip(words, types, schemas)]
        tagged.append(TaggedQuery(tokens=tuple(tokens), value_spans=merge_value_spans(tokens)))
    return tagged


def tag_query(model: DBTaggerModel, tokens: list[str]) -> TaggedQuery:
    """``tag_queries`` of one query."""
    return tag_queries(model, [tokens])[0]


# ---------------------------------------------------------------------------
# serialization (magic DBTG1, little-endian, bit-exact round trip)


def _pack_str(out: list[bytes], s: str):
    raw = s.encode("utf-8")
    out.append(struct.pack("<I", len(raw)))
    out.append(raw)


def _pack_matrix(out: list[bytes], data: np.ndarray):
    rows, cols = data.shape
    out.append(struct.pack("<II", rows, cols))
    out.append(np.ascontiguousarray(data, dtype="<f8").tobytes())


class ModelFormatError(ValueError):
    """A model file that is malformed, truncated or inconsistent."""


class _Reader:
    def __init__(self, blob: bytes):
        self.blob = blob
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.blob):
            raise ModelFormatError("truncated model file")
        chunk = self.blob[self.pos : self.pos + n]
        self.pos += n
        return chunk

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def u64(self) -> int:
        return struct.unpack("<Q", self.take(8))[0]

    def f64(self) -> float:
        return struct.unpack("<d", self.take(8))[0]

    def string(self) -> str:
        try:
            return self.take(self.u32()).decode("utf-8")
        except UnicodeDecodeError:
            raise ModelFormatError("model file holds a string that is not UTF-8") from None

    def matrix(self) -> np.ndarray:
        rows, cols = struct.unpack("<II", self.take(8))
        flat = np.frombuffer(self.take(rows * cols * 8), dtype="<f8")
        return flat.reshape(rows, cols).astype(np.float64)


def save_model(model: DBTaggerModel) -> bytes:
    """Serialize the model, embedding table included, to the versioned
    binary layout."""
    out: list[bytes] = [MODEL_MAGIC, struct.pack("<I", MODEL_VERSION)]
    emb = model.embeddings
    out.append(struct.pack("<IQQ", emb.dimension, emb.bucket_count, emb.subword_seed))
    out.append(struct.pack("<I", len(emb.vectors)))
    for token, vec in emb.vectors.items():
        _pack_str(out, token)
        out.append(np.ascontiguousarray(vec, dtype="<f8").tobytes())
    for level in HEAD_ORDER:
        vocab = model.vocabs[level]
        out.append(struct.pack("<I", vocab.size))
        for symbol in vocab.symbols:
            _pack_str(out, symbol)
    out.append(struct.pack("<I", model.hidden_size))
    out.append(struct.pack("<ddd", *model.weights.as_tuple()))
    out.append(struct.pack("<d", model.dropout_rate))
    params = model.parameters()
    out.append(struct.pack("<I", len(params)))
    for name, tensor in params:
        _pack_str(out, name)
        _pack_matrix(out, tensor.data)
    return b"".join(out)


def load_model(blob: bytes) -> DBTaggerModel:
    """Parse a model file; anything wrong with it raises ModelFormatError.

    The whole file is read, then the full network is assembled from the
    stored arrays themselves: it allocates no parameter, and every size the
    file declares (hidden, the embedding dimension and each vocabulary size)
    must agree with the shapes of the arrays.
    """
    reader = _Reader(blob)
    if reader.take(len(MODEL_MAGIC)) != MODEL_MAGIC:
        raise ModelFormatError("not a model file (bad magic)")
    version = reader.u32()
    if version != MODEL_VERSION:
        raise ModelFormatError(f"unsupported model version {version}")
    dim = reader.u32()
    buckets = reader.u64()
    subword_seed = reader.u64()
    vectors = {}
    for _ in range(reader.u32()):
        token = reader.string()
        vec = np.frombuffer(reader.take(dim * 8), dtype="<f8").astype(np.float64)
        if not np.isfinite(vec).all():
            raise ModelFormatError(f"non-finite embedding component for token {token!r}")
        vectors[token] = vec
    vocabs = {}
    for level in HEAD_ORDER:
        symbols = tuple(reader.string() for _ in range(reader.u32()))
        if not symbols:
            raise ModelFormatError(f"the {level.value} vocabulary is empty")
        vocabs[level] = TagVocab(level=level, symbols=symbols)
    hidden = reader.u32()
    task_weights = (reader.f64(), reader.f64(), reader.f64())
    dropout_rate = reader.f64()
    stored = {}
    for _ in range(reader.u32()):
        name = reader.string()
        stored[name] = reader.matrix()
        if not np.isfinite(stored[name]).all():
            raise ModelFormatError(f"parameter {name} has a non-finite value")
    if reader.pos != len(blob):
        raise ModelFormatError(
            f"trailing bytes after the last parameter ({len(blob) - reader.pos})"
        )

    def take(name: str) -> np.ndarray:
        if name not in stored:
            raise ModelFormatError(f"model file has no parameter {name}")
        return stored.pop(name)

    def layer(kind, prefix, *_sizes):
        return kind(*(take(f"{prefix}.{field}") for field in kind.FIELDS))

    try:
        embeddings = EmbeddingTable(dim, vectors, bucket_count=buckets, subword_seed=subword_seed)
        weights = TaskWeights(*task_weights)
        model = _full_model(embeddings, vocabs, hidden, weights, dropout_rate, layer)
    except ValueError as exc:
        raise ModelFormatError(str(exc)) from None
    if stored:
        raise ModelFormatError(f"model file has parameters the network lacks: {sorted(stored)}")
    if model.hidden_size != hidden:
        raise ModelFormatError(
            f"hidden size {hidden} does not match the stored network's {model.hidden_size}"
        )
    return model
