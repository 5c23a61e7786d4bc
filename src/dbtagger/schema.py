"""Relational schema model: tag vocabulary derivation, statistics, join
graph construction and offline content snapshots for the baseline mappers.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

from .corpus import TagLevel, TagVocab


class SchemaError(ValueError):
    pass


class SnapshotError(ValueError):
    pass


@dataclass(frozen=True)
class Attribute:
    name: str
    is_pk: bool = False
    is_fk: bool = False
    ref_table: str | None = None
    kind: str = "text"  # "text" | "number"

    def __post_init__(self):
        if self.is_fk and not self.ref_table:
            raise SchemaError(f"FK attribute {self.name!r} must name its referenced table")
        if self.ref_table and not self.is_fk:
            raise SchemaError(f"attribute {self.name!r} has ref {self.ref_table!r} but is not FK")
        if self.kind not in ("text", "number"):
            raise SchemaError(f"attribute {self.name!r} has unknown kind {self.kind!r}")


@dataclass(frozen=True)
class Table:
    name: str
    kind: str  # "entity" | "relation"
    attributes: tuple[Attribute, ...]

    def __post_init__(self):
        if self.kind not in ("entity", "relation"):
            raise SchemaError(f"table {self.name!r} has unknown kind {self.kind!r}")
        names = [a.name for a in self.attributes]
        if len(names) != len(set(names)):
            raise SchemaError(f"duplicate attribute names in table {self.name!r}")

    def attribute(self, name: str) -> Attribute:
        for a in self.attributes:
            if a.name == name:
                return a
        raise KeyError(f"table {self.name!r} has no attribute {name!r}")


@dataclass(frozen=True)
class Schema:
    name: str
    tables: tuple[Table, ...]

    def __post_init__(self):
        if not self.tables:
            raise SchemaError("no tables")
        names = [t.name for t in self.tables]
        if len(names) != len(set(names)):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise SchemaError(f"duplicate table names: {', '.join(dupes)}")
        known = set(names)
        for t in self.tables:
            for a in t.attributes:
                if a.is_fk and a.ref_table not in known:
                    raise SchemaError(
                        f"{t.name}.{a.name} references unknown table {a.ref_table!r}"
                    )

    def table(self, name: str) -> Table:
        for t in self.tables:
            if t.name == name:
                return t
        raise KeyError(f"no table named {name!r}")

    @property
    def table_names(self) -> list[str]:
        return [t.name for t in self.tables]


def _field(obj, key: str, kind: type, where: str, default=None, required: bool = False):
    """``obj[key]`` checked to be a ``kind``; absent or null gives the default."""
    if not isinstance(obj, dict):
        raise SchemaError(f"{where} must be a JSON object, got {type(obj).__name__}")
    value = obj.get(key)
    if value is None:
        if required:
            raise SchemaError(f"{where} has no {key!r}")
        return default
    if not isinstance(value, kind):
        raise SchemaError(f"{where}.{key} must be {kind.__name__}, got {type(value).__name__}")
    return value


def load_schema(stream) -> Schema:
    """Load and validate a schema from its JSON representation."""
    text = stream if isinstance(stream, str) else stream.read()
    try:
        raw = json.loads(text)
    except (ValueError, RecursionError) as exc:  # RecursionError: nesting too deep
        raise SchemaError(f"invalid schema JSON: {exc}") from None
    tables = []
    for i, t in enumerate(_field(raw, "tables", list, "schema", default=[])):
        where = f"tables[{i}]"
        name = _field(t, "name", str, where, required=True)
        attrs = []
        for j, a in enumerate(_field(t, "attributes", list, where, default=[])):
            at = f"{where}.attributes[{j}]"
            attrs.append(
                Attribute(
                    name=_field(a, "name", str, at, required=True),
                    is_pk=_field(a, "pk", bool, at, default=False),
                    is_fk=_field(a, "fk", bool, at, default=False),
                    ref_table=_field(a, "ref", str, at),
                    kind=_field(a, "kind", str, at, default="text"),
                )
            )
        kind = _field(t, "kind", str, where, required=True)
        tables.append(Table(name=name, kind=kind, attributes=tuple(attrs)))
    return Schema(name=_field(raw, "name", str, "schema", default="schema"), tables=tuple(tables))


def derive_schema_tags(schema: Schema) -> TagVocab:
    """Schema-tag vocabulary: table names, qualified non-PK/FK attributes,
    plus COND and O."""
    symbols = {"COND", "O"}
    for t in schema.tables:
        symbols.add(t.name)
        for a in t.attributes:
            if not a.is_pk and not a.is_fk:
                symbols.add(f"{t.name}.{a.name}")
    return TagVocab.from_symbols(TagLevel.SCHEMA, symbols)


@dataclass(frozen=True)
class SchemaStats:
    schema_name: str
    entity_tables: int
    relation_tables: int
    total_tables: int
    total_attributes: int
    non_pk_fk_attributes: int
    derived_tag_count: int
    expected_tag_count: int | None = None

    @property
    def warning(self) -> str | None:
        if self.expected_tag_count is not None and self.expected_tag_count != self.derived_tag_count:
            return (
                f"derived tag count {self.derived_tag_count} differs from the expected "
                f"count {self.expected_tag_count}; reporting both, not reconciling"
            )
        return None


def schema_stats(schema: Schema, expected_tags: int | None = None) -> SchemaStats:
    entity = sum(1 for t in schema.tables if t.kind == "entity")
    relation = sum(1 for t in schema.tables if t.kind == "relation")
    total_attrs = sum(len(t.attributes) for t in schema.tables)
    plain = sum(
        1 for t in schema.tables for a in t.attributes if not a.is_pk and not a.is_fk
    )
    return SchemaStats(
        schema_name=schema.name,
        entity_tables=entity,
        relation_tables=relation,
        total_tables=len(schema.tables),
        total_attributes=total_attrs,
        non_pk_fk_attributes=plain,
        derived_tag_count=derive_schema_tags(schema).size,
        expected_tag_count=expected_tags,
    )


@dataclass(frozen=True)
class JoinEdge:
    """One FK relationship, stored on the graph edge for SQL rendering."""

    owner: str       # table holding the FK
    fk_attr: str
    referenced: str
    ref_attr: str    # PK of the referenced table (first attribute as fallback)


@dataclass
class SchemaGraph:
    """Undirected join graph over tables; one logical edge per table pair,
    FK multiplicity preserved in the edge payload."""

    nodes: tuple[str, ...]
    edges: dict[frozenset, tuple[JoinEdge, ...]] = field(default_factory=dict)

    def neighbors(self, table: str) -> list[str]:
        out = set()
        for pair in self.edges:
            if table in pair:
                out.update(pair - {table})
        return sorted(out)

    def has_edge(self, a: str, b: str) -> bool:
        return frozenset((a, b)) in self.edges

    def joins_for(self, a: str, b: str) -> tuple[JoinEdge, ...]:
        return self.edges[frozenset((a, b))]

    def edge_pairs(self) -> list[tuple[str, str]]:
        return sorted(tuple(sorted(pair)) for pair in self.edges)


def build_schema_graph(schema: Schema) -> SchemaGraph:
    edges: dict[frozenset, list[JoinEdge]] = {}
    for t in schema.tables:
        for a in t.attributes:
            if not a.is_fk:
                continue
            if a.ref_table == t.name:
                continue  # self-references carry no join edge
            ref = schema.table(a.ref_table)
            ref_attr = next((ra.name for ra in ref.attributes if ra.is_pk), None)
            if ref_attr is None:
                ref_attr = ref.attributes[0].name if ref.attributes else "id"
            key = frozenset((t.name, a.ref_table))
            edges.setdefault(key, []).append(
                JoinEdge(owner=t.name, fk_attr=a.name, referenced=a.ref_table, ref_attr=ref_attr)
            )
    return SchemaGraph(
        nodes=tuple(schema.table_names),
        edges={k: tuple(sorted(v, key=lambda e: (e.owner, e.fk_attr))) for k, v in edges.items()},
    )


class ContentSnapshot:
    """Offline copy of table contents, stored column-wise as raw strings."""

    def __init__(self, schema: Schema, columns: dict[str, dict[str, list[str]]]):
        self.schema = schema
        self._columns = columns

    def row_count(self, table: str) -> int:
        cols = self._columns.get(table)
        if not cols:
            return 0
        return len(next(iter(cols.values())))

    def column(self, table: str, attr: str) -> list[str]:
        return self._columns.get(table, {}).get(attr, [])

    def text_columns(self):
        """Yield (qualified name, values) for every non-key text attribute
        (the mappable ones), in deterministic table/attribute order."""
        for t in self.schema.tables:
            for a in t.attributes:
                if a.kind == "text" and not a.is_pk and not a.is_fk:
                    yield f"{t.name}.{a.name}", self.column(t.name, a.name)

    def estimated_bytes(self) -> int:
        total = 0
        for cols in self._columns.values():
            for values in cols.values():
                total += sum(len(v.encode("utf-8")) for v in values) + 8 * len(values)
        return total


def load_snapshot(schema: Schema, streams: dict[str, str]) -> ContentSnapshot:
    """Load per-table TSVs (header = attribute names) into a snapshot.

    Tables without a stream are loaded empty.  Reports header mismatches
    and ragged rows with their location.
    """
    columns: dict[str, dict[str, list[str]]] = {}
    for table_name, text in streams.items():
        if table_name not in schema.table_names:
            raise SnapshotError(f"no table named {table_name!r} in schema {schema.name!r}")
        table = schema.table(table_name)
        lines = text.splitlines()
        if not lines:
            raise SnapshotError(f"table {table_name!r}: empty snapshot stream")
        header = lines[0].split("\t")
        expected = [a.name for a in table.attributes]
        missing = sorted(set(expected) - set(header))
        if missing:
            raise SnapshotError(
                f"table {table_name!r}: header missing columns: {', '.join(missing)}"
            )
        extra = sorted(set(header) - set(expected))
        if extra:
            raise SnapshotError(
                f"table {table_name!r}: header has unknown columns: {', '.join(extra)}"
            )
        if len(header) != len(expected):
            raise SnapshotError(f"table {table_name!r}: header repeats a column")
        cols: dict[str, list[str]] = {name: [] for name in header}
        for lineno, line in enumerate(lines[1:], start=2):
            if not line:
                continue
            cells = line.split("\t")
            if len(cells) != len(header):
                raise SnapshotError(
                    f"table {table_name!r} line {lineno}: expected {len(header)} cells, "
                    f"got {len(cells)}"
                )
            for name, cell in zip(header, cells):
                cols[name].append(cell)
        columns[table_name] = cols
    return ContentSnapshot(schema, columns)


_WORDS = (
    "amber", "basil", "cedar", "delta", "ember", "fjord", "grove", "heron",
    "iris", "jasper", "koral", "lumen", "maple", "noble", "ocean", "pearl",
    "quill", "raven", "sable", "tulip", "umber", "velvet", "willow", "zephyr",
)


def synthetic_snapshot(schema: Schema, rows: int, seed: int = 0) -> ContentSnapshot:
    """Generate a deterministic snapshot with the requested row count per
    table; used for load and scaling benchmarks."""
    rng = random.Random(seed)
    columns: dict[str, dict[str, list[str]]] = {}
    for t in schema.tables:
        cols: dict[str, list[str]] = {}
        for a in t.attributes:
            if a.kind == "number" or a.is_pk or a.is_fk:
                cols[a.name] = [str(i) for i in range(rows)]
            else:
                cols[a.name] = [
                    f"{rng.choice(_WORDS)} {rng.choice(_WORDS)} {i}" for i in range(rows)
                ]
        columns[t.name] = cols
    return ContentSnapshot(schema, columns)


def synthetic_table_tsv(attribute_names: list[str], rows: int, seed: int = 0) -> str:
    """One synthetic TSV stream matching the given header, for load tests."""
    rng = random.Random(seed)
    out = ["\t".join(attribute_names)]
    for i in range(rows):
        out.append("\t".join(f"{rng.choice(_WORDS)}{i}" for _ in attribute_names))
    return "\n".join(out) + "\n"
