"""The tagging network: a GRU encoder stack feeding task heads, each an
optional uni-directional GRU plus a linear-chain CRF, with cross-skip
connections between heads.  The full multi-task model and every ablation
variant are configurations of this one network.

A whole GRU sequence and the CRF score/log-partition are each registered
on the tape as one fused primitive with a hand-derived vector-Jacobian
product (the CRF gradient is the classic forward-backward marginal
computation); their correctness is pinned by finite-difference and
enumeration tests.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from . import numerics as nm
from .corpus import AnnotatedQuery, TagLevel, TagVocab
from .embeddings import EmbeddingTable, embed_query
from .numerics import Tape, Tensor

MODEL_MAGIC = b"DBTG1"
MODEL_VERSION = 2


# ---------------------------------------------------------------------------
# GRU


class GruCell:
    """Gated recurrent unit with update/reset gates and a tanh candidate.

    The gates are stored stacked, rows in update, reset, candidate order:
    ``input`` (3u x d), ``recurrent`` (3u x u) and ``bias`` (3u x 1).
    """

    def __init__(self, input_size: int, hidden_size: int, rng: np.random.Generator):
        self.input_size = input_size
        self.hidden_size = hidden_size
        u, d = hidden_size, input_size
        # drawn gate by gate, input block then recurrent block
        blocks = [_glorot(rng, shape) for _ in range(3) for shape in ((u, d), (u, u))]
        self.input = Tensor(np.vstack(blocks[0::2]))
        self.recurrent = Tensor(np.vstack(blocks[1::2]))
        self.bias = Tensor(np.zeros((3 * u, 1)))

    def parameters(self, prefix: str) -> list[tuple[str, Tensor]]:
        return [
            (f"{prefix}.input", self.input),
            (f"{prefix}.recurrent", self.recurrent),
            (f"{prefix}.bias", self.bias),
        ]


def _glorot(rng: np.random.Generator, shape: tuple[int, int]) -> np.ndarray:
    fan_out, fan_in = shape
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, shape)


def gru_sequence(
    cell: GruCell,
    X,
    tape: Tape | None = None,
    rec_mask: np.ndarray | None = None,
    reverse: bool = False,
) -> Tensor:
    """Run the cell from a zero state over the rows of an (n x d) input and
    return the (n x u) states in token order; ``reverse`` walks the rows
    last to first.

    ``X`` is a constant array or a Tensor; a Tensor receives its gradient.
    ``rec_mask`` (hidden x 1), when given, drops entries of the previous
    state wherever it feeds a weight matrix; the interpolation path keeps
    the unmasked state (variational recurrent dropout).

    The whole sequence is one tape record.  Each step uses matrix-vector
    products only: a sentence-wide input GEMM wakes the BLAS thread pool on
    long queries (see README).  The backward pass loops over the recurrent
    state alone, then forms each gate's weight gradient as one product over
    all steps.
    """
    u, d = cell.hidden_size, cell.input_size
    x_const = not isinstance(X, Tensor)
    Xd = np.asarray(X, dtype=np.float64) if x_const else X.data
    if Xd.ndim != 2 or Xd.shape[0] == 0 or Xd.shape[1] != d:
        raise nm.ShapeError(f"gru_sequence: input shape {Xd.shape}, expected (n, {d})")
    if rec_mask is not None and rec_mask.shape != (u, 1):
        raise nm.ShapeError(f"gru_sequence: mask shape {rec_mask.shape}, expected {(u, 1)}")
    n = Xd.shape[0]
    # row views of the stored gates; nothing here copies a parameter
    U, b = cell.input.data, cell.bias.data[:, 0]
    W_zr, W_c = cell.recurrent.data[: 2 * u], cell.recurrent.data[2 * u :]
    m = None if rec_mask is None else rec_mask[:, 0]
    steps = range(n - 1, -1, -1) if reverse else range(n)
    record = tape is not None

    out = np.empty((n, u))
    if record:
        gates = np.empty((n, 3 * u))  # z, r, c of each token
        masked = np.empty((n, u)) if m is not None else None
    h = np.zeros(u)
    for t in steps:
        a = U @ Xd[t] + b
        hm = h if m is None else h * m
        zr = 0.5 + 0.5 * np.tanh(0.5 * (a[: 2 * u] + W_zr @ hm))
        z, r = zr[:u], zr[u:]
        c = np.tanh(a[2 * u :] + W_c @ (r * hm))
        h = h + z * (c - h)
        out[t] = h
        if record:
            gates[t, : 2 * u] = zr
            gates[t, 2 * u :] = c
            if m is not None:
                masked[t] = hm
    result = Tensor(out)
    if not record:
        return result

    def vjp(g):
        prev = np.zeros((n, u))
        if reverse:
            prev[:-1] = out[1:]
        else:
            prev[1:] = out[:-1]
        fed = prev if m is None else masked
        Z, R, C = gates[:, :u], gates[:, u : 2 * u], gates[:, 2 * u :]
        f_z = (C - prev) * Z * (1.0 - Z)
        f_r = fed * R * (1.0 - R)
        f_c = Z * (1.0 - C * C)
        keep = 1.0 - Z
        D = np.empty((n, 3 * u))  # stacked gate pre-activation gradients
        carry = np.zeros(u)
        for t in reversed(steps):
            dh = g[t] + carry
            row = D[t]
            np.multiply(dh, f_z[t], out=row[:u])
            dc = np.multiply(dh, f_c[t], out=row[2 * u :])
            drh = W_c.T @ dc
            np.multiply(drh, f_r[t], out=row[u : 2 * u])
            dhm = drh * R[t] + W_zr.T @ row[: 2 * u]
            if m is not None:
                dhm *= m
            carry = dh * keep[t] + dhm
        Dz, Dr, Dc = D[:, :u], D[:, u : 2 * u], D[:, 2 * u :]
        # per-gate products, stacked afterwards: a single (n x 3u)(3u x d)
        # product starts the BLAS thread pool from about 20 tokens
        grads = (
            np.vstack((Dz.T @ Xd, Dr.T @ Xd, Dc.T @ Xd)),
            np.vstack((Dz.T @ fed, Dr.T @ fed, Dc.T @ (R * fed))),
            D.sum(axis=0)[:, None],
        )
        if x_const:
            return grads
        dX = Dz @ U[:u] + Dr @ U[u : 2 * u] + Dc @ U[2 * u :]
        return (dX, *grads)

    params = (cell.input, cell.recurrent, cell.bias)
    tape.record(result, params if x_const else (X, *params), vjp)
    return result


class BiGruLayer:
    def __init__(self, input_size: int, hidden_size: int, rng: np.random.Generator):
        self.hidden_size = hidden_size
        self.forward_cell = GruCell(input_size, hidden_size, rng)
        self.backward_cell = GruCell(input_size, hidden_size, rng)

    def parameters(self, prefix: str) -> list[tuple[str, Tensor]]:
        return self.forward_cell.parameters(f"{prefix}.fwd") + self.backward_cell.parameters(
            f"{prefix}.bwd"
        )


def bigru_forward(
    layer: BiGruLayer,
    X,
    tape: Tape | None = None,
    rec_masks: tuple[np.ndarray | None, np.ndarray | None] = (None, None),
) -> Tensor:
    """Encode an (n x d) input into (n x 2u): forward and backward states
    side by side per token, both directions starting from a zero state.
    A Tensor input receives its gradient; a raw array is a constant."""
    fwd = gru_sequence(layer.forward_cell, X, tape, rec_masks[0])
    bwd = gru_sequence(layer.backward_cell, X, tape, rec_masks[1], reverse=True)
    return nm.concat([fwd, bwd], axis=1, tape=tape)


# ---------------------------------------------------------------------------
# CRF


class CrfLayer:
    """Linear-chain CRF with learned transitions and an affine emission map.

    The transition matrix is (k+2) x (k+2) with the boundary symbols at
    rows/columns k (START) and k+1 (STOP).  Transitions out of STOP and
    into START are structurally masked: no computation ever reads them,
    and ``effective_transitions`` reports them as -inf.
    """

    def __init__(self, tag_count: int, feature_size: int, rng: np.random.Generator):
        self.tag_count = tag_count
        self.feature_size = feature_size
        self.emit_weight = Tensor(_glorot(rng, (feature_size, tag_count)))
        self.emit_bias = Tensor(np.zeros((1, tag_count)))
        self.transitions = Tensor(np.zeros((tag_count + 2, tag_count + 2)))

    @property
    def start_index(self) -> int:
        return self.tag_count

    @property
    def stop_index(self) -> int:
        return self.tag_count + 1

    def effective_transitions(self) -> np.ndarray:
        eff = self.transitions.data.copy()
        eff[self.stop_index, :] = -np.inf
        eff[:, self.start_index] = -np.inf
        return eff

    def emissions(self, features: Tensor, tape: Tape | None = None) -> Tensor:
        if features.shape[1] != self.feature_size:
            raise nm.ShapeError(
                f"emission features have width {features.shape[1]}, expected {self.feature_size}"
            )
        return nm.add(nm.matmul(features, self.emit_weight, tape), self.emit_bias, tape)

    def parameters(self, prefix: str) -> list[tuple[str, Tensor]]:
        return [
            (f"{prefix}.emit_weight", self.emit_weight),
            (f"{prefix}.emit_bias", self.emit_bias),
            (f"{prefix}.transitions", self.transitions),
        ]


def _check_tags(crf: CrfLayer, emissions: Tensor, tags: list[int]):
    n, k = emissions.shape
    if k != crf.tag_count:
        raise nm.ShapeError(f"emissions have {k} tags, CRF has {crf.tag_count}")
    if len(tags) != n:
        raise ValueError(f"tag sequence length {len(tags)} != {n} tokens")
    for t in tags:
        if not 0 <= t < k:
            raise ValueError(f"tag index {t} outside 0..{k - 1}")


def crf_score(crf: CrfLayer, emissions: Tensor, tags: list[int], tape: Tape | None = None) -> Tensor:
    """Path score: boundary and adjacent transitions plus per-token emissions."""
    _check_tags(crf, emissions, tags)
    n, k = emissions.shape
    G, A = emissions.data, crf.transitions.data
    start, stop = crf.start_index, crf.stop_index
    value = A[start, tags[0]] + A[tags[-1], stop]
    for i, tag in enumerate(tags):
        value += G[i, tag]
    for i in range(n - 1):
        value += A[tags[i], tags[i + 1]]
    out = Tensor(np.array([[value]]))
    if tape is not None:
        def vjp(g):
            w = g[0, 0]
            dG = np.zeros((n, k))
            dA = np.zeros_like(A)
            for i, tag in enumerate(tags):
                dG[i, tag] += w
            dA[start, tags[0]] += w
            dA[tags[-1], stop] += w
            for i in range(n - 1):
                dA[tags[i], tags[i + 1]] += w
            return (dG, dA)

        tape.record(out, (emissions, crf.transitions), vjp)
    return out


def _lse(x: np.ndarray, axis: int) -> np.ndarray:
    m = x.max(axis=axis, keepdims=True)
    return (m + np.log(np.exp(x - m).sum(axis=axis, keepdims=True))).squeeze(axis=axis)


def crf_log_partition(crf: CrfLayer, emissions: Tensor, tape: Tape | None = None) -> Tensor:
    """log sum over all tag sequences of exp(path score), by the forward
    algorithm in log space; the gradient is the forward-backward marginals."""
    n, k = emissions.shape
    if k != crf.tag_count:
        raise nm.ShapeError(f"emissions have {k} tags, CRF has {crf.tag_count}")
    G, A = emissions.data, crf.transitions.data
    start, stop = crf.start_index, crf.stop_index
    inner = A[:k, :k]
    alpha = np.empty((n, k))
    alpha[0] = A[start, :k] + G[0]
    for t in range(1, n):
        alpha[t] = _lse(alpha[t - 1][:, None] + inner, axis=0) + G[t]
    log_z = float(_lse((alpha[n - 1] + A[:k, stop])[None, :], axis=1)[0])
    out = Tensor(np.array([[log_z]]))

    if tape is not None:
        def vjp(g):
            w = g[0, 0]
            beta = np.empty((n, k))
            beta[n - 1] = A[:k, stop]
            for t in range(n - 2, -1, -1):
                beta[t] = _lse(inner + (G[t + 1] + beta[t + 1])[None, :], axis=1)
            unary = np.exp(alpha + beta - log_z)
            dG = unary * w
            dA = np.zeros_like(A)
            for t in range(n - 1):
                pair = np.exp(
                    alpha[t][:, None] + inner + (G[t + 1] + beta[t + 1])[None, :] - log_z
                )
                dA[:k, :k] += pair
            dA[:k, :k] *= w
            dA[start, :k] = unary[0] * w
            dA[:k, stop] = unary[n - 1] * w
            return (dG, dA)

        tape.record(out, (emissions, crf.transitions), vjp)
    return out


def crf_nll(crf: CrfLayer, emissions: Tensor, tags: list[int], tape: Tape | None = None) -> Tensor:
    """Negative log-probability of the gold sequence; non-negative."""
    log_z = crf_log_partition(crf, emissions, tape)
    gold = crf_score(crf, emissions, tags, tape)
    return nm.add(log_z, nm.scale(gold, -1.0, tape), tape)


def viterbi_decode(crf: CrfLayer, emissions) -> tuple[list[int], float]:
    """Highest-scoring tag sequence; ties resolve to the lowest tag index."""
    G = emissions.data if isinstance(emissions, Tensor) else np.asarray(emissions, dtype=np.float64)
    n, k = G.shape
    if k != crf.tag_count:
        raise nm.ShapeError(f"emissions have {k} tags, CRF has {crf.tag_count}")
    A = crf.transitions.data
    start, stop = crf.start_index, crf.stop_index
    inner = A[:k, :k]
    delta = A[start, :k] + G[0]
    back = np.zeros((n, k), dtype=np.int64)
    for t in range(1, n):
        cand = delta[:, None] + inner
        back[t] = cand.argmax(axis=0)
        delta = cand[back[t], np.arange(k)] + G[t]
    final = delta + A[:k, stop]
    last = int(final.argmax())
    score = float(final[last])
    tags = [last]
    for t in range(n - 1, 0, -1):
        last = int(back[t, last])
        tags.append(last)
    return tags[::-1], score


# ---------------------------------------------------------------------------
# model


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


class TaskHead:
    """One tag level: a uni-directional GRU over the encoder output (or
    none, so the CRF reads the encoder output directly) and a CRF whose
    features are the GRU states plus ``skip_width`` columns of skip input."""

    def __init__(
        self, level: TagLevel, cell: GruCell | None, crf: CrfLayer, skip_width: int = 0
    ):
        if cell is not None and crf.feature_size != cell.hidden_size + skip_width:
            raise nm.ShapeError(
                f"{level.value} head: CRF expects {crf.feature_size} features, "
                f"head provides {cell.hidden_size + skip_width}"
            )
        self.level = level
        self.cell = cell
        self.crf = crf
        self.skip_width = skip_width

    def parameters(self) -> list[tuple[str, Tensor]]:
        prefix = f"head.{self.level.value}"
        gru = [] if self.cell is None else self.cell.parameters(f"{prefix}.gru")
        return gru + self.crf.parameters(f"{prefix}.crf")


class MaskStream:
    """Seeded source of inverted-scale Bernoulli dropout masks."""

    def __init__(self, rate: float, rng: np.random.Generator):
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = rate
        self._rng = rng

    def row(self, width: int) -> np.ndarray:
        if self.rate == 0.0:
            return np.ones((1, width))
        keep = (self._rng.random(width) >= self.rate).astype(np.float64)
        return (keep / (1.0 - self.rate)).reshape(1, width)

    def column(self, height: int) -> np.ndarray:
        return self.row(height).reshape(height, 1)


HEAD_ORDER = (TagLevel.POS, TagLevel.TYPE, TagLevel.SCHEMA)


class DBTaggerModel:
    """A stack of GRU encoder layers feeding one or more task heads in POS,
    TYPE, SCHEMA order, with each head's states concatenated into the next
    head's emission features.

    ``encoder`` holds (parameter prefix, GruCell | BiGruLayer) pairs.
    ``extra_features``, when given, maps tokens to columns appended to the
    word vectors.  The full model (``build``) is one shared bi-GRU and three
    heads; the ablation variants drop parts of it.
    """

    def __init__(
        self,
        embeddings: EmbeddingTable,
        encoder: list[tuple[str, GruCell | BiGruLayer]],
        heads: list[TaskHead],
        vocabs: dict[TagLevel, TagVocab],
        weights: TaskWeights,
        dropout_rate: float,
        extra_features=None,
    ):
        ranks = [HEAD_ORDER.index(h.level) for h in heads]
        if not ranks or ranks != sorted(set(ranks)):
            raise ValueError("heads must be ordered POS, TYPE, SCHEMA")
        for head in heads:
            if vocabs[head.level].size != head.crf.tag_count:
                raise ValueError(
                    f"{head.level.value} vocabulary size {vocabs[head.level].size} != "
                    f"CRF tag count {head.crf.tag_count}"
                )
        self.embeddings = embeddings
        self.encoder = encoder
        self.heads = heads
        self.vocabs = vocabs
        self.weights = weights
        self.dropout_rate = dropout_rate
        self.extra_features = extra_features

    @classmethod
    def build(
        cls,
        embeddings: EmbeddingTable,
        vocabs: dict[TagLevel, TagVocab],
        hidden: int = 100,
        weights: TaskWeights = TaskWeights(0.1, 0.2, 0.7),
        dropout_rate: float = 0.5,
        seed: int = 0,
    ) -> "DBTaggerModel":
        rng = np.random.default_rng(seed)
        d, u = embeddings.dimension, hidden
        shared = BiGruLayer(d, u, rng)
        heads = []
        for i, level in enumerate(HEAD_ORDER):
            skip = 0 if i == 0 else u
            cell = GruCell(2 * u, u, rng)
            crf = CrfLayer(vocabs[level].size, u + skip, rng)
            heads.append(TaskHead(level, cell, crf, skip))
        return cls(embeddings, [("shared", shared)], heads, vocabs, weights, dropout_rate)

    @property
    def hidden_size(self) -> int:
        return self.encoder[0][1].hidden_size

    def parameters(self) -> list[tuple[str, Tensor]]:
        params = []
        for prefix, layer in self.encoder:
            params += layer.parameters(prefix)
        for head in self.heads:
            params += head.parameters()
        return params

    def estimated_bytes(self) -> int:
        return (
            sum(t.data.size * 8 for _, t in self.parameters())
            + self.embeddings.estimated_bytes()
        )

    # trainable protocol -----------------------------------------------------

    def query_loss(self, query: AnnotatedQuery, mask_stream: MaskStream | None):
        return total_loss(self, query, mask_stream)

    def predict_tags(self, tokens: list[str]) -> list[str]:
        """Viterbi tags of the last head."""
        head = self.heads[-1]
        indices, _ = viterbi_decode(head.crf, model_forward(self, tokens, record=False)[-2])
        return [self.vocabs[head.level].symbols[i] for i in indices]

    def gold_tags(self, query: AnnotatedQuery) -> list[str]:
        return query.tags(self.heads[-1].level)


def model_forward(
    model: DBTaggerModel,
    tokens: list[str],
    mask_stream: MaskStream | None = None,
    record: bool = True,
) -> tuple:
    """Emission matrices of the heads in order, followed by the tape that
    built them (None when ``record`` is false, as for decoding).

    A ``mask_stream`` means training: dropout then applies to the encoder
    only, with masks drawn layer by layer (a bi-directional layer's
    forward, then backward recurrent mask) and then one mask on the encoder
    output.  An empty encoder draws no mask.
    """
    if not tokens:
        raise ValueError("cannot tag an empty token list")
    train = mask_stream is not None
    tape = Tape() if record else None
    X = embed_query(model.embeddings, tokens)
    if model.extra_features is not None:
        X = np.hstack([X, model.extra_features(tokens)])

    H = X
    for _, layer in model.encoder:
        u = layer.hidden_size
        if isinstance(layer, BiGruLayer):
            masks = (mask_stream.column(u), mask_stream.column(u)) if train else (None, None)
            H = bigru_forward(layer, H, tape, masks)
        else:
            H = gru_sequence(layer, H, tape, mask_stream.column(u) if train else None)
    if not model.encoder:
        H = Tensor(X)
    elif train:
        H = nm.dropout(H, np.tile(mask_stream.row(H.shape[1]), (len(tokens), 1)), tape)

    emissions = []
    prev: Tensor | None = None
    for head in model.heads:
        states = H if head.cell is None else gru_sequence(head.cell, H, tape)
        feats = states if prev is None else nm.concat([states, prev], axis=1, tape=tape)
        emissions.append(head.crf.emissions(feats, tape))
        prev = states
    return (*emissions, tape)


def total_loss(
    model: DBTaggerModel,
    query: AnnotatedQuery,
    mask_stream: MaskStream | None = None,
) -> tuple[Tensor, Tape]:
    """Task-weighted sum of the heads' CRF losses for one query, folded
    left in head order: ((w_pos*L_pos + w_type*L_type) + w_schema*L_schema)."""
    *emissions, tape = model_forward(model, query.words, mask_stream)
    losses = []
    for head, emission in zip(model.heads, emissions):
        vocab = model.vocabs[head.level]
        gold = [vocab.index_of(t) for t in query.tags(head.level)]
        losses.append(crf_nll(head.crf, emission, gold, tape))
    weight = dict(zip(HEAD_ORDER, model.weights.as_tuple()))
    total = None
    for head, loss in zip(model.heads, losses):
        term = nm.scale(loss, weight[head.level], tape)
        total = term if total is None else nm.add(total, term, tape)
    return total, tape


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


def tag_query(model: DBTaggerModel, tokens: list[str]) -> TaggedQuery:
    """Decode TYPE and SCHEMA tags for a tokenized query and merge value
    spans.  The POS head only shapes training; its output is discarded here."""
    _, g_type, g_schema, _ = model_forward(model, tokens, record=False)
    type_head = model.heads[1]
    schema_head = model.heads[2]
    type_idx, _ = viterbi_decode(type_head.crf, g_type)
    schema_idx, _ = viterbi_decode(schema_head.crf, g_schema)
    type_vocab = model.vocabs[TagLevel.TYPE]
    schema_vocab = model.vocabs[TagLevel.SCHEMA]
    tagged = [
        TaggedToken(
            text=tok,
            type_tag=type_vocab.symbols[ti],
            schema_tag=schema_vocab.symbols[si],
        )
        for tok, ti, si in zip(tokens, type_idx, schema_idx)
    ]
    return TaggedQuery(tokens=tuple(tagged), value_spans=merge_value_spans(tagged))


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


class _Reader:
    def __init__(self, blob: bytes):
        self.blob = blob
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.blob):
            raise ValueError("truncated model file")
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
        return self.take(self.u32()).decode("utf-8")

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
    reader = _Reader(blob)
    if reader.take(len(MODEL_MAGIC)) != MODEL_MAGIC:
        raise ValueError("not a model file (bad magic)")
    version = reader.u32()
    if version != MODEL_VERSION:
        raise ValueError(f"unsupported model version {version}")
    dim = reader.u32()
    buckets = reader.u64()
    subword_seed = reader.u64()
    vectors = {}
    for _ in range(reader.u32()):
        token = reader.string()
        vec = np.frombuffer(reader.take(dim * 8), dtype="<f8").astype(np.float64)
        vectors[token] = vec
    embeddings = EmbeddingTable(dim, vectors, bucket_count=buckets, subword_seed=subword_seed)
    vocabs = {}
    for level in HEAD_ORDER:
        symbols = tuple(reader.string() for _ in range(reader.u32()))
        vocabs[level] = TagVocab(level=level, symbols=symbols)
    hidden = reader.u32()
    weights = TaskWeights(reader.f64(), reader.f64(), reader.f64())
    dropout_rate = reader.f64()
    model = DBTaggerModel.build(
        embeddings, vocabs, hidden=hidden, weights=weights, dropout_rate=dropout_rate, seed=0
    )
    stored = {}
    for _ in range(reader.u32()):
        name = reader.string()
        stored[name] = reader.matrix()
    if reader.pos != len(blob):
        raise ValueError(f"trailing bytes after the last parameter ({len(blob) - reader.pos})")
    expected = model.parameters()
    if set(stored) != {name for name, _ in expected}:
        raise ValueError("model file parameter set does not match the architecture")
    for name, tensor in expected:
        if stored[name].shape != tensor.data.shape:
            raise ValueError(
                f"parameter {name} has shape {stored[name].shape}, expected {tensor.data.shape}"
            )
        tensor.data = stored[name]
    return model
