"""Desk-scale query translation: collect the tagged mappings, find the
smallest join tree covering them over the FK graph, and render a
SELECT-join SQL skeleton.

The minimal tree is found exactly: a connected induced subgraph on
required-plus-extra tables has a spanning tree with (nodes - 1) edges, so
minimizing edges means minimizing the connected node superset.  Supersets
are tried by increasing size, each size's extra tables drawn by
``combinations`` from the sorted pool (table counts here are small).  The
extras are disjoint from the required tables, so that order is the
lexicographic order of the sorted supersets, and the first connected one is
the lexicographically smallest sorted table tuple of its size.  Its join
tree is the breadth-first tree from its smallest name.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .schema import JoinEdge, SchemaGraph
from .tagger import TaggedQuery


class JoinPathError(ValueError):
    """No join path covers the required tables; counts as inaccurate."""


@dataclass(frozen=True)
class MappingSet:
    tables: frozenset[str]
    attributes: frozenset[str]
    value_spans: tuple[tuple[str, str], ...]  # (qualified attribute, literal)
    conditions: tuple[str, ...]

    def __post_init__(self):
        for attr in self.attributes:
            if "." not in attr:
                raise ValueError(f"attribute {attr!r} is not qualified as table.attribute")
        for attr, _ in self.value_spans:
            if "." not in attr:
                raise ValueError(f"value span attribute {attr!r} is not qualified")

    @property
    def empty(self) -> bool:
        return not (self.tables or self.attributes or self.value_spans)

    def required_tables(self) -> set[str]:
        required = set(self.tables)
        required.update(a.split(".", 1)[0] for a in self.attributes)
        required.update(a.split(".", 1)[0] for a, _ in self.value_spans)
        return required


def mappings_from_tags(tagged: TaggedQuery) -> MappingSet:
    """Collect tables, attributes, merged value spans and condition tokens
    from a tagged query."""
    tables = set()
    attributes = set()
    conditions = []
    for token in tagged.tokens:
        if token.type_tag in ("TABLE", "TABLEREF"):
            tables.add(token.schema_tag)
        elif token.type_tag in ("ATTR", "ATTRREF"):
            attributes.add(token.schema_tag)
        elif token.type_tag == "COND":
            conditions.append(token.text)
    value_spans = tuple((span.attribute, span.text) for span in tagged.value_spans)
    return MappingSet(
        tables=frozenset(tables),
        attributes=frozenset(attributes),
        value_spans=value_spans,
        conditions=tuple(conditions),
    )


@dataclass(frozen=True)
class JoinPath:
    tables: tuple[str, ...]                       # BFS discovery order
    joins: tuple[tuple[str, str, JoinEdge], ...]  # (already-joined, new, FK edge)


def _spanning_tree(graph: SchemaGraph, nodes: tuple[str, ...]):
    """Breadth-first walk of the subgraph induced by ``nodes`` from
    ``nodes[0]``: the tables in discovery order and the (joined, new) pair
    that reached each later one; None when the nodes are not connected."""
    unseen = set(nodes[1:])
    order, pairs = [nodes[0]], []
    for current in order:  # ``order`` grows behind the walk: it is the queue
        for neighbor in graph.neighbors(current):
            if neighbor in unseen:
                unseen.remove(neighbor)
                order.append(neighbor)
                pairs.append((current, neighbor))
    return None if unseen else (order, pairs)


def infer_join_path(graph: SchemaGraph, mappings: MappingSet) -> JoinPath:
    """Smallest join tree covering every table the mappings touch; among
    equal sizes, the one on the lexicographically smallest sorted tables.

    Raises JoinPathError when the required tables cannot be connected.
    """
    if mappings.empty:
        raise ValueError("mapping set is empty; nothing to translate")
    required = mappings.required_tables()
    unknown = sorted(required - set(graph.nodes))
    if unknown:
        raise JoinPathError(f"tables not in the schema graph: {', '.join(unknown)}")
    extras_pool = sorted(set(graph.nodes) - required)
    for size in range(len(extras_pool) + 1):
        for extra in combinations(extras_pool, size):
            tree = _spanning_tree(graph, tuple(sorted(required.union(extra))))
            if tree is not None:
                order, pairs = tree
                joins = tuple((a, b, graph.joins_for(a, b)[0]) for a, b in pairs)
                return JoinPath(tables=tuple(order), joins=joins)
    raise JoinPathError(f"no join path connects tables: {', '.join(sorted(required))}")


def _quote(literal: str) -> str:
    return "'" + literal.replace("'", "''") + "'"


def render_sql(path: JoinPath, mappings: MappingSet) -> str:
    """SELECT-join skeleton over the join path; conditions are equality
    predicates per merged value span, in query order."""
    select = ", ".join(sorted(mappings.attributes)) if mappings.attributes else "*"
    parts = [f"SELECT {select} FROM {path.tables[0]}"]
    for _, table, edge in path.joins:
        parts.append(f"JOIN {table} ON {edge.owner}.{edge.fk_attr} = {edge.referenced}.{edge.ref_attr}")
    predicates = [f"{attr} = {_quote(literal)}" for attr, literal in mappings.value_spans]
    if predicates:
        parts.append("WHERE " + " AND ".join(predicates))
    return " ".join(parts)
