"""Independent checks of the program's outputs.

Nothing here calls into ``dbtagger``: join graphs are rebuilt from the
schema's FK attributes, minimal join trees are found by brute force over
node bitmasks, and the outcome a tagged question must reach (SQL, no join
path, or a refused mapping set) is derived from its tags alone.
"""

from __future__ import annotations

import re
from itertools import combinations

_IDENT = r"[A-Za-z_][A-Za-z0-9_]*"
_COLUMN = rf"{_IDENT}\.{_IDENT}"
_LITERAL = r"'(?:[^']|'')*'"
SQL_GRAMMAR = re.compile(
    rf"SELECT (?:\*|{_COLUMN}(?:, {_COLUMN})*) FROM (?P<root>{_IDENT})"
    rf"(?P<joins>(?: JOIN {_IDENT} ON {_COLUMN} = {_COLUMN})*)"
    rf"(?: WHERE {_COLUMN} = {_LITERAL}(?: AND {_COLUMN} = {_LITERAL})*)?"
)
_JOIN_TABLE = re.compile(rf" JOIN ({_IDENT}) ON")


def sql_tables(sql: str) -> list[str] | None:
    """Tables in FROM/JOIN order, or None when the SQL breaks the grammar."""
    match = SQL_GRAMMAR.fullmatch(sql)
    if match is None:
        return None
    return [match.group("root")] + _JOIN_TABLE.findall(match.group("joins"))


class FkGraph:
    """Undirected table graph read straight from FK attributes."""

    def __init__(self, schema):
        self.nodes = [t.name for t in schema.tables]
        self.index = {name: i for i, name in enumerate(self.nodes)}
        self.adj = [0] * len(self.nodes)
        for table in schema.tables:
            for attr in table.attributes:
                if attr.is_fk and attr.ref_table != table.name:
                    a, b = self.index[table.name], self.index[attr.ref_table]
                    self.adj[a] |= 1 << b
                    self.adj[b] |= 1 << a
        self.component = [-1] * len(self.nodes)
        for start in range(len(self.nodes)):
            if self.component[start] < 0:
                for i in _bits(self._flood(1 << start, (1 << len(self.nodes)) - 1)):
                    self.component[i] = start

    def _flood(self, seed: int, within: int) -> int:
        seen = frontier = seed
        while frontier:
            reach = 0
            for i in _bits(frontier):
                reach |= self.adj[i]
            frontier = reach & within & ~seen
            seen |= frontier
        return seen

    def has_edge(self, a: str, b: str) -> bool:
        return bool(self.adj[self.index[a]] >> self.index[b] & 1)

    def connected(self, tables) -> bool:
        return len({self.component[self.index[t]] for t in tables}) == 1

    def steiner_nodes(self, required) -> int:
        """Fewest tables in a connected set holding ``required`` (which
        must lie in one component), by enumeration over extra tables."""
        req = 0
        for t in required:
            req |= 1 << self.index[t]
        first = req & -req
        extras = [i for i in range(len(self.nodes)) if not req >> i & 1]
        for size in range(len(extras) + 1):
            for combo in combinations(extras, size):
                mask = req
                for i in combo:
                    mask |= 1 << i
                if self._flood(first, mask) == mask:
                    return len(required) + size
        raise ValueError("required tables are not connected")


def _bits(mask: int):
    i = 0
    while mask:
        if mask & 1:
            yield i
        mask >>= 1
        i += 1


def check_join_tree(graph: FkGraph, required, tables, joins) -> str | None:
    """``joins`` are (joined table, new table) pairs in the path's order."""
    if len(set(tables)) != len(tables):
        return "join path repeats a table"
    if not set(required) <= set(tables):
        return f"join path {tables} misses required tables {sorted(set(required) - set(tables))}"
    if len(joins) != len(tables) - 1:
        return f"{len(joins)} joins for {len(tables)} tables is not a tree"
    joined = {tables[0]}
    for old, new in joins:
        if old not in joined or new in joined or not graph.has_edge(old, new):
            return f"join {old} -> {new} is not a tree edge over the FK graph"
        joined.add(new)
    best = graph.steiner_nodes(required)
    if len(tables) != best:
        return f"join tree has {len(joins)} edges, brute force finds {best - 1}"
    return None


def expected_translation(tags, graph: FkGraph) -> str:
    """Outcome the translator must reach for (type, schema) tag pairs:
    'refused' when the mapping set is invalid or empty, 'no_path' when its
    tables are unknown or disconnected, else 'sql'."""
    tables, attrs = set(), set()
    for type_tag, schema_tag in tags:
        if type_tag in ("TABLE", "TABLEREF"):
            tables.add(schema_tag)
        elif type_tag in ("ATTR", "ATTRREF", "VALUE"):
            if "." not in schema_tag:
                return "refused"
            attrs.add(schema_tag)
    if not tables and not attrs:
        return "refused"
    required = tables | {a.split(".", 1)[0] for a in attrs}
    if not required <= set(graph.nodes) or not graph.connected(required):
        return "no_path"
    return "sql"


def required_from_tags(tags) -> set[str]:
    required = set()
    for type_tag, schema_tag in tags:
        if type_tag in ("TABLE", "TABLEREF"):
            required.add(schema_tag)
        elif type_tag in ("ATTR", "ATTRREF", "VALUE"):
            required.add(schema_tag.split(".", 1)[0])
    return required
