"""Brute-force oracles shared between the module tests and the acceptance
suite.  Everything here is deliberately independent of the implementations
it checks."""

import itertools
import re

import numpy as np

from dbtagger.baselines import (
    SCAN_ROW_LIMIT, InvertedValueIndex, MappingResult, edit_distance, normalize, word_ngrams,
)
from dbtagger.embeddings import embed_token
from dbtagger.numerics import Tensor, backward
from dbtagger.schema import Attribute, Schema, Table, build_schema_graph


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
    if not np.isfinite(loss.item()):
        raise ValueError(f"non-finite loss {loss.item()}")
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
        f_plus = make_loss()[0].item()
        p.data[i, j] = saved - h
        f_minus = make_loss()[0].item()
        p.data[i, j] = saved
        if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
            raise ValueError("non-finite loss during finite differencing")
        numeric = (f_plus - f_minus) / (2.0 * h)
        a = analytic[pi][i, j]
        err = abs(a - numeric) / max(abs(a), abs(numeric), 1.0)
        worst = max(worst, err)
    return worst


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
