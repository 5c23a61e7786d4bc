import json

import pytest

from dbtagger.schema import (
    SchemaError,
    SnapshotError,
    build_schema_graph,
    derive_schema_tags,
    load_schema,
    load_snapshot,
    schema_stats,
    synthetic_snapshot,
    synthetic_table_tsv,
)


def test_load_imdb_subset(imdb_subset):
    assert set(imdb_subset.table_names) == {"movie", "people", "cast", "written_by"}
    assert imdb_subset.table("cast").attribute("movie_id").ref_table == "movie"


def test_dangling_fk_rejected():
    raw = {
        "name": "bad",
        "tables": [
            {
                "name": "a",
                "kind": "entity",
                "attributes": [{"name": "x", "pk": False, "fk": True, "ref": "missing"}],
            }
        ],
    }
    with pytest.raises(SchemaError, match="missing"):
        load_schema(json.dumps(raw))


def test_empty_tables_rejected():
    with pytest.raises(SchemaError, match="no tables"):
        load_schema(json.dumps({"name": "empty", "tables": []}))


def test_duplicate_table_names_rejected():
    raw = {
        "name": "dup",
        "tables": [
            {"name": "a", "kind": "entity", "attributes": [{"name": "x"}]},
            {"name": "a", "kind": "entity", "attributes": [{"name": "y"}]},
        ],
    }
    with pytest.raises(SchemaError, match="duplicate table names: a"):
        load_schema(json.dumps(raw))


def test_derive_schema_tags_subset(imdb_subset):
    vocab = derive_schema_tags(imdb_subset)
    expected = {
        "movie", "cast", "people", "written_by",
        "movie.title", "cast.role", "people.gender", "people.name",
        "COND", "O",
    }
    assert set(vocab.symbols) == expected
    assert list(vocab.symbols) == sorted(expected)


def test_derive_schema_tags_all_pk_fk():
    raw = {
        "name": "allkeys",
        "tables": [
            {"name": "a", "kind": "entity", "attributes": [{"name": "id", "pk": True}]},
            {
                "name": "b",
                "kind": "relation",
                "attributes": [{"name": "a_id", "fk": True, "ref": "a"}],
            },
        ],
    }
    vocab = derive_schema_tags(load_schema(json.dumps(raw)))
    assert set(vocab.symbols) == {"a", "b", "COND", "O"}


def test_derive_schema_tags_permutation_invariant(imdb_subset):
    from dbtagger.schema import Schema

    shuffled = Schema(name=imdb_subset.name, tables=tuple(reversed(imdb_subset.tables)))
    assert derive_schema_tags(shuffled) == derive_schema_tags(imdb_subset)


def test_schema_tag_shape_exhaustive(imdb_full):
    table_names = set(imdb_full.table_names)
    plain = {
        f"{t.name}.{a.name}"
        for t in imdb_full.tables
        for a in t.attributes
        if not a.is_pk and not a.is_fk
    }
    for symbol in derive_schema_tags(imdb_full).symbols:
        assert symbol in table_names or symbol in plain or symbol in ("COND", "O")


def test_stats_imdb_full_shape(imdb_full):
    stats = schema_stats(imdb_full, expected_tags=31)
    assert (stats.entity_tables, stats.relation_tables, stats.total_tables) == (6, 11, 17)
    assert stats.total_attributes == 55
    assert stats.non_pk_fk_attributes == 14
    assert stats.derived_tag_count == 17 + 14 + 2 == 33
    assert stats.warning is not None and "31" in stats.warning and "33" in stats.warning


def test_stats_yelp_full_shape(yelp_full):
    stats = schema_stats(yelp_full, expected_tags=20)
    assert (stats.total_tables, stats.total_attributes, stats.non_pk_fk_attributes) == (7, 38, 16)
    assert stats.derived_tag_count == 25
    assert stats.warning is not None


def test_stats_single_table():
    raw = {
        "name": "one",
        "tables": [
            {"name": "t", "kind": "entity", "attributes": [{"name": "id", "pk": True}]}
        ],
    }
    stats = schema_stats(load_schema(json.dumps(raw)))
    assert (
        stats.entity_tables,
        stats.relation_tables,
        stats.total_tables,
        stats.total_attributes,
        stats.non_pk_fk_attributes,
    ) == (1, 0, 1, 1, 0)
    assert stats.derived_tag_count == 3
    assert stats.warning is None


def test_stats_table_order_invariant(imdb_full):
    from dbtagger.schema import Schema

    shuffled = Schema(name=imdb_full.name, tables=tuple(reversed(imdb_full.tables)))
    assert schema_stats(shuffled) == schema_stats(imdb_full)


def test_schema_graph_edges(imdb_subset):
    graph = build_schema_graph(imdb_subset)
    assert graph.has_edge("cast", "movie")
    assert graph.has_edge("cast", "people")
    assert graph.has_edge("written_by", "movie")
    assert graph.has_edge("written_by", "people")
    assert not graph.has_edge("movie", "people")
    # symmetry
    for a, b in graph.edge_pairs():
        assert graph.has_edge(b, a)
    assert graph.neighbors("movie") == ["cast", "written_by"]


def test_schema_graph_no_fk_no_edges():
    raw = {
        "name": "flat",
        "tables": [
            {"name": "a", "kind": "entity", "attributes": [{"name": "x"}]},
            {"name": "b", "kind": "entity", "attributes": [{"name": "y"}]},
        ],
    }
    graph = build_schema_graph(load_schema(json.dumps(raw)))
    assert graph.edge_pairs() == []


def test_duplicate_fk_single_edge_with_multiplicity():
    raw = {
        "name": "multi",
        "tables": [
            {"name": "person", "kind": "entity", "attributes": [{"name": "id", "pk": True}]},
            {
                "name": "marriage",
                "kind": "relation",
                "attributes": [
                    {"name": "husband_id", "fk": True, "ref": "person"},
                    {"name": "wife_id", "fk": True, "ref": "person"},
                ],
            },
        ],
    }
    graph = build_schema_graph(load_schema(json.dumps(raw)))
    assert graph.edge_pairs() == [("marriage", "person")]
    joins = graph.joins_for("marriage", "person")
    assert [j.fk_attr for j in joins] == ["husband_id", "wife_id"]


def test_load_snapshot_counts(movie_snapshot):
    assert movie_snapshot.row_count("movie") == 5
    assert movie_snapshot.row_count("cast") == 4
    assert "The Truman Show" in movie_snapshot.column("movie", "title")


def test_snapshot_header_missing_column(imdb_subset):
    with pytest.raises(SnapshotError, match="missing columns: title"):
        load_snapshot(imdb_subset, {"movie": "id\n1\n"})


def test_snapshot_ragged_row(imdb_subset):
    with pytest.raises(SnapshotError, match="line 3"):
        load_snapshot(imdb_subset, {"movie": "id\ttitle\n1\tHeat\n2\n"})


def test_snapshot_rejects_unknown_table_and_repeated_column(imdb_subset):
    with pytest.raises(SnapshotError, match="no table named 'nope'"):
        load_snapshot(imdb_subset, {"nope": "id\n1\n"})
    with pytest.raises(SnapshotError, match="repeats a column"):
        load_snapshot(imdb_subset, {"movie": "id\ttitle\tid\n1\tHeat\t2\n"})


@pytest.mark.parametrize("text", ["[" * 100_000 + "]" * 100_000, '{"name": ' + "7" * 5000 + "}"])
def test_schema_json_too_deep_or_too_long_is_a_schema_error(text):
    with pytest.raises(SchemaError, match="invalid schema JSON"):
        load_schema(text)


def test_snapshot_million_rows(imdb_subset):
    rows = 10**6
    tsv = synthetic_table_tsv(["id", "title"], rows, seed=4)
    snapshot = load_snapshot(imdb_subset, {"movie": tsv})
    assert snapshot.row_count("movie") == rows


def test_synthetic_snapshot_deterministic(imdb_subset):
    a = synthetic_snapshot(imdb_subset, 50, seed=7)
    b = synthetic_snapshot(imdb_subset, 50, seed=7)
    assert a.column("movie", "title") == b.column("movie", "title")
    assert a.row_count("people") == 50
