"""Brute-force oracles shared between the module tests and the acceptance
suite.  Everything here is deliberately independent of the implementations
it checks."""

import itertools
import re

import numpy as np

import tape_ops as ops
from dbtagger.baselines import (
    SCAN_ROW_LIMIT, InvertedValueIndex, MappingResult, edit_distance, normalize, word_ngrams,
)
from dbtagger.embeddings import embed_token
from dbtagger.numerics import Tensor, backward
from dbtagger.schema import Attribute, Schema, Table, build_schema_graph
from dbtagger.tagger import HEAD_ORDER, crf_log_partition, crf_score, model_forward


def finite_diff_check(
    make_loss,
    params: list[Tensor],
    h: float = 1e-5,
    max_coords: int | None = None,
    rng: np.random.Generator | None = None,
) -> float:
    """Max deviation of analytic gradients from central finite differences.

    ``make_loss`` rebuilds the computation and returns ``(loss, tape)``;
    it must be deterministic (dropout disabled).  Errors are normalized by
    max(|analytic|, |numeric|, 1) so near-zero gradients do not blow up
    the ratio.  For large parameter sets a random coordinate subset of
    size ``max_coords`` is checked.
    """
    for p in params:
        p.zero_grad()
    loss, tape = make_loss()
    if not np.isfinite(loss.data.item()):
        raise ValueError(f"non-finite loss {loss.data.item()}")
    backward(tape, loss)
    analytic = [p.grad.copy() if p.grad is not None else np.zeros(p.shape) for p in params]

    coords = [
        (pi, i, j)
        for pi, p in enumerate(params)
        for i in range(p.shape[0])
        for j in range(p.shape[1])
    ]
    if max_coords is not None and len(coords) > max_coords:
        rng = rng or np.random.default_rng(0)
        picks = rng.choice(len(coords), size=max_coords, replace=False)
        coords = [coords[i] for i in picks]

    worst = 0.0
    for pi, i, j in coords:
        p = params[pi]
        saved = p.data[i, j]
        p.data[i, j] = saved + h
        f_plus = make_loss()[0].data.item()
        p.data[i, j] = saved - h
        f_minus = make_loss()[0].data.item()
        p.data[i, j] = saved
        if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
            raise ValueError("non-finite loss during finite differencing")
        numeric = (f_plus - f_minus) / (2.0 * h)
        a = analytic[pi][i, j]
        err = abs(a - numeric) / max(abs(a), abs(numeric), 1.0)
        worst = max(worst, err)
    return worst


def crf_nll_by_records(crf, emissions, tags, tape=None):
    """The CRF loss as four tape records: the log-partition and the
    gold-path score, each with its own VJP, then ``scale`` by -1 and
    ``add``.  The log-partition VJP builds all (L-1) x B x k x k pair
    marginals in one expression and sums them over time."""
    lengths = [len(seq) for seq in tags]
    log_z, alpha = crf_log_partition(crf, emissions, lengths)
    gold, (rows, flat, query, first, last, inner_pos) = crf_score(crf, emissions, tags)
    if tape is not None:
        G3 = emissions.data.reshape(-1, len(tags), crf.tag_count)
        L, B, k = G3.shape
        lens = np.asarray(lengths)
        A = crf.transitions.data
        start, stop = crf.start_index, crf.stop_index
        inner = A[:k, :k]
        z = log_z.data[:, 0]

        def partition_vjp(g):
            w = g[:, 0]
            beta = np.full((L, B, k), -np.inf)
            for t in range(L - 1, -1, -1):
                beta[t, lens - 1 == t] = A[:k, stop]
                go = np.flatnonzero(lens - 1 > t)
                if go.size:
                    nxt = G3[t + 1, go] + beta[t + 1, go]
                    x = inner + nxt[:, None, :]
                    m = x.max(axis=2, keepdims=True)
                    beta[t, go] = (m + np.log(np.exp(x - m).sum(axis=2, keepdims=True)))[:, :, 0]
            shifted = alpha - z[:, None]
            unary = np.exp(shifted + beta)
            dG = (unary * w[:, None]).reshape(L * B, k)
            dA = np.zeros_like(A)
            if L > 1:
                pair = np.exp(
                    shifted[:-1, :, :, None] + inner + (G3[1:] + beta[1:])[:, :, None, :]
                )
                dA[:k, :k] = np.tensordot(w, pair.sum(axis=0), axes=1)
            dA[start, :k] = w @ unary[0]
            dA[:k, stop] = w @ unary[lens - 1, np.arange(B)]
            return (dG, dA)

        def score_vjp(g):
            w = g[:, 0]
            dG = np.zeros((L * B, k))
            dG[rows, flat] = w[query]
            dA = np.zeros_like(A)
            np.add.at(dA, (start, flat[first]), w)
            np.add.at(dA, (flat[last], stop), w)
            np.add.at(dA, (flat[inner_pos], flat[inner_pos + 1]), w[query[inner_pos]])
            return (dG, dA)

        tape.record(log_z, (emissions, crf.transitions), partition_vjp)
        tape.record(gold, (emissions, crf.transitions), score_vjp)
    return ops.add(log_z, ops.scale(gold, -1.0, tape), tape)


def gru_layer_by_records(layer, X, lengths, tape=None, rec_masks=None, out_mask=None):
    """``tagger.gru_layer`` as a record per cell, a ``concat`` of a
    two-cell layer's states and a ``dropout`` of the output rows, tiled
    over the time steps.  Each cell's record lists ``X`` only when the tape
    produced it."""
    rec_masks = rec_masks or (None,) * len(layer)
    states = [
        ops.gru_direction(cell, X, lengths, tape, mask, reverse=i == 1)
        for i, (cell, mask) in enumerate(zip(layer, rec_masks))
    ]
    out = states[0] if len(states) == 1 else ops.concat(states, tape)
    if out_mask is None:
        return out
    return ops.dropout(out, np.tile(out_mask, (out.shape[0] // len(out_mask), 1)), tape)


def total_loss_by_records(model, examples, mask_stream=None):
    """``tagger.total_loss`` with every CRF loss as ``crf_nll_by_records``
    and the weighted sum as ``scale``, a left fold of ``add`` and
    ``sum_all`` records."""
    *emissions, tape = model_forward(model, [e.inputs for e in examples], mask_stream)
    weight = dict(zip(HEAD_ORDER, model.weights.as_tuple()))
    per_query = None
    for i, (head, emission) in enumerate(zip(model.heads, emissions)):
        gold = [e.gold[i] for e in examples]
        term = ops.scale(crf_nll_by_records(head.crf, emission, gold, tape), weight[head.level], tape)
        per_query = term if per_query is None else ops.add(per_query, term, tape)
    return ops.sum_all(per_query, tape), per_query.data[:, 0], tape


def steiner_min_edges(edges, required):
    """Smallest number of edges in any connected edge subset covering the
    required nodes, by exhaustive subset enumeration; None when impossible."""
    required = set(required)
    if len(required) == 1:
        return 0
    edges = [tuple(e) for e in edges]
    for size in range(1, len(edges) + 1):
        for subset in itertools.combinations(edges, size):
            nodes = set()
            for a, b in subset:
                nodes.add(a)
                nodes.add(b)
            if not required <= nodes:
                continue
            # connectivity of the subset graph restricted to its own nodes
            adjacency = {n: set() for n in nodes}
            for a, b in subset:
                adjacency[a].add(b)
                adjacency[b].add(a)
            start = next(iter(required))
            seen = {start}
            frontier = [start]
            while frontier:
                for neighbor in adjacency[frontier.pop()]:
                    if neighbor not in seen:
                        seen.add(neighbor)
                        frontier.append(neighbor)
            if required <= seen:
                return size
    return None


def join_path_by_min_winner(graph, required):
    """The smallest join tree over ``required`` by the search that collects
    every connected superset of the smallest connected size and keeps the
    ``min`` sorted table tuple, then walks it breadth-first from its first
    name: as (tables, joins), or None when no superset connects."""
    required = set(required)

    def connects(nodes):
        seen, frontier = {nodes[0]}, [nodes[0]]
        while frontier:
            for neighbor in graph.neighbors(frontier.pop()):
                if neighbor in nodes and neighbor not in seen:
                    seen.add(neighbor)
                    frontier.append(neighbor)
        return seen == set(nodes)

    pool = sorted(set(graph.nodes) - required)
    for size in range(len(pool) + 1):
        winners = [
            nodes
            for extra in itertools.combinations(pool, size)
            if connects(nodes := tuple(sorted(required | set(extra))))
        ]
        if winners:
            nodes = min(winners)
            order, joins, queue = [nodes[0]], [], [nodes[0]]
            while queue:
                current = queue.pop(0)
                for neighbor in graph.neighbors(current):
                    if neighbor in nodes and neighbor not in order:
                        order.append(neighbor)
                        joins.append((current, neighbor, graph.joins_for(current, neighbor)[0]))
                        queue.append(neighbor)
            return tuple(order), tuple(joins)
    return None


def edge_pairs(graph):
    """The graph's edges as sorted (table, table) pairs, in sorted order."""
    return sorted(tuple(sorted(pair)) for pair in graph.edges)


def random_schema_graph(rng, max_tables=8):
    """A random FK schema with <= max_tables tables and its join graph."""
    count = int(rng.integers(2, max_tables + 1))
    names = [f"t{chr(ord('a') + i)}" for i in range(count)]
    tables = []
    fk_lists = {name: [] for name in names}
    pair_pool = list(itertools.combinations(range(count), 2))
    rng.shuffle(pair_pool)
    edge_count = int(rng.integers(1, min(len(pair_pool), 2 * count) + 1))
    for a, b in pair_pool[:edge_count]:
        fk_lists[names[a]].append(names[b])
    for name in names:
        attrs = [Attribute(name="id", is_pk=True, kind="number")]
        for i, ref in enumerate(fk_lists[name]):
            attrs.append(Attribute(name=f"{ref}_ref{i}", is_fk=True, ref_table=ref, kind="number"))
        tables.append(Table(name=name, kind="entity", attributes=tuple(attrs)))
    schema = Schema(name="random", tables=tuple(tables))
    return schema, build_schema_graph(schema)


_IDENT = r"[A-Za-z_][A-Za-z0-9_]*"
_QUALIFIED = rf"{_IDENT}\.{_IDENT}"
_SQL_RE = re.compile(
    rf"^SELECT (\*|{_QUALIFIED}(, {_QUALIFIED})*) FROM {_IDENT}"
    rf"( JOIN {_IDENT} ON {_QUALIFIED} = {_QUALIFIED})*"
    rf"( WHERE {_QUALIFIED} = '(?:[^']|'')*'( AND {_QUALIFIED} = '(?:[^']|'')*')*)?$"
)


def sql_grammar_ok(sql: str) -> bool:
    """Minimal select-join-where grammar check."""
    return _SQL_RE.match(sql) is not None


def build_value_index_per_cell(snapshot):
    """The value index built by normalizing every raw cell on its own."""
    postings = {}
    columns = []
    for column, values in snapshot.text_columns():
        columns.append(column)
        for value in values:
            words = normalize(value).split()
            if not words:
                continue
            for phrase in set(word_ngrams(words)):
                cols = postings.setdefault(phrase, {})
                cols[column] = cols.get(column, 0) + 1
    return InvertedValueIndex(postings, tuple(columns))


def scan_map_per_cell(snapshot, token_ngrams):
    """The row scan that normalizes every raw cell for every n-gram and
    tests it with ``in``: at most SCAN_ROW_LIMIT rows per column, most
    rows wins, ties to the smaller column name."""
    results = []
    for start, end, phrase in token_ngrams:
        needle = normalize(phrase)
        if not needle:
            continue
        hits = {}
        for column, values in snapshot.text_columns():
            count = 0
            for value in values:
                if needle in normalize(value):
                    count += 1
                    if count >= SCAN_ROW_LIMIT:
                        break
            if count:
                hits[column] = count
        if hits:
            column = min(hits, key=lambda col: (-hits[col], col))
            results.append(
                MappingResult(
                    start=start, end=end, target=column, kind="value", score=float(hits[column])
                )
            )
    return results


def _name_key(name):
    return name.lower().replace("_", " ")


def edit_distance_relation_map_per_name(token, schema, max_distance, token_index=0):
    """The edit-distance mapper that compares the token with every table
    and attribute name: least distance, then shorter name, then smaller
    name, then smaller target; None past ``max_distance``."""
    if not token:
        raise ValueError("cannot match an empty token")
    needle = _name_key(token)
    candidates = []
    for table in schema.tables:
        candidates.append((table.name, table.name))
        for attr in table.attributes:
            candidates.append((attr.name, f"{table.name}.{attr.name}"))
    best = None
    for name, target in candidates:
        distance = edit_distance(needle, _name_key(name))
        key = (distance, len(name), name, target)
        if best is None or key < best[0]:
            best = (key, name, target)
    if best is None or best[0][0] > max_distance:
        return None
    return MappingResult(
        start=token_index,
        end=token_index + 1,
        target=best[2],
        kind="relation",
        score=float(best[0][0]),
    )


def cosine_similarity(a, b):
    norm = float(np.linalg.norm(a) * np.linalg.norm(b))
    if norm == 0.0:
        return 0.0
    return float(np.dot(a, b)) / norm


def embedding_similarity_map_per_candidate(table, token, candidates, threshold, token_index=0):
    """The embedding mapper that embeds every candidate as the ``np.mean``
    of its word vectors and scores it with ``cosine_similarity``."""
    if not 0.0 < threshold <= 1.0:
        raise ValueError(f"threshold must be in (0, 1], got {threshold}")
    vec = embed_token(table, token)
    best = None
    for surface, target in candidates:
        words = _name_key(surface).split()
        if not words:
            continue
        cand_vec = np.mean([embed_token(table, w) for w in words], axis=0)
        sim = cosine_similarity(vec, cand_vec)
        key = (-sim, target)
        if best is None or key < best[0]:
            best = (key, sim, target)
    if best is None or best[1] < threshold:
        return None
    return MappingResult(
        start=token_index, end=token_index + 1, target=best[2], kind="relation", score=best[1]
    )
