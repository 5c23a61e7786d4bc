import numpy as np
import pytest

from dbtagger.schema import build_schema_graph
from dbtagger.tagger import TaggedQuery, TaggedToken, merge_value_spans
from dbtagger.translate import (
    JoinPathError,
    MappingSet,
    infer_join_path,
    mappings_from_tags,
    render_sql,
)
from oracles import (
    edge_pairs, join_path_by_min_winner, random_schema_graph, sql_grammar_ok, steiner_min_edges,
)

TABLE1_SQL = (
    "SELECT * FROM cast JOIN movie ON cast.movie_id = movie.id "
    "WHERE cast.role = 'John Nash' AND movie.title = 'A Beautiful Mind'"
)


def tagged_from_gold(query):
    tokens = [TaggedToken(t.text, t.type_tag, t.schema_tag) for t in query.tokens]
    return TaggedQuery(tokens=tuple(tokens), value_spans=merge_value_spans(tokens))


def mapping_tables(*tables):
    return MappingSet(
        tables=frozenset(tables), attributes=frozenset(), value_spans=(), conditions=()
    )


def test_mappings_from_table1(table1_query):
    mappings = mappings_from_tags(tagged_from_gold(table1_query))
    assert mappings.tables == {"cast", "movie"}
    assert mappings.attributes == frozenset()
    assert mappings.value_spans == (
        ("cast.role", "John Nash"),
        ("movie.title", "A Beautiful Mind"),
    )
    assert mappings.conditions == ("in",)


def test_mappings_all_other_tokens_empty():
    tokens = tuple(TaggedToken(w, "O", "O") for w in ("show", "me", "something"))
    mappings = mappings_from_tags(TaggedQuery(tokens=tokens, value_spans=()))
    assert mappings.empty


def test_mappings_deduplicate_tables():
    tokens = (
        TaggedToken("movies", "TABLE", "movie"),
        TaggedToken("films", "TABLE", "movie"),
        TaggedToken("title", "ATTR", "movie.title"),
    )
    mappings = mappings_from_tags(TaggedQuery(tokens=tokens, value_spans=()))
    assert mappings.tables == {"movie"}
    assert mappings.attributes == {"movie.title"}


def test_attr_vs_value_reading_distinguished():
    # same schema tag, different type tags: only the VALUE side becomes a span
    tokens = [
        TaggedToken("title", "ATTR", "movie.title"),
        TaggedToken("Heat", "VALUE", "movie.title"),
    ]
    tagged = TaggedQuery(tokens=tuple(tokens), value_spans=merge_value_spans(tokens))
    mappings = mappings_from_tags(tagged)
    assert mappings.attributes == {"movie.title"}
    assert mappings.value_spans == (("movie.title", "Heat"),)


def test_join_path_single_table(imdb_subset):
    graph = build_schema_graph(imdb_subset)
    path = infer_join_path(graph, mapping_tables("movie"))
    assert path.tables == ("movie",) and path.joins == ()


def test_join_path_movie_people_goes_through_cast(imdb_subset):
    # cast and written_by both bridge movie-people in two edges; the sorted
    # node tuple (cast, movie, people) wins the tie lexicographically
    graph = build_schema_graph(imdb_subset)
    path = infer_join_path(graph, mapping_tables("movie", "people"))
    assert set(path.tables) == {"cast", "movie", "people"}
    assert len(path.joins) == 2


def test_join_path_unreachable_table(imdb_subset):
    import json

    from dbtagger.schema import load_schema

    raw = json.loads(open("tests/fixtures/imdb_subset.json").read())
    raw["tables"].append({"name": "island", "kind": "entity", "attributes": [{"name": "x"}]})
    graph = build_schema_graph(load_schema(json.dumps(raw)))
    with pytest.raises(JoinPathError):
        infer_join_path(graph, mapping_tables("movie", "island"))


def test_join_path_empty_mappings_rejected(imdb_subset):
    graph = build_schema_graph(imdb_subset)
    with pytest.raises(ValueError, match="empty"):
        infer_join_path(graph, mapping_tables())


def test_join_path_coverage(imdb_subset):
    graph = build_schema_graph(imdb_subset)
    mappings = MappingSet(
        tables=frozenset({"written_by"}),
        attributes=frozenset({"people.gender"}),
        value_spans=(("movie.title", "Heat"),),
        conditions=(),
    )
    path = infer_join_path(graph, mappings)
    assert mappings.required_tables() <= set(path.tables)


def test_join_path_matches_steiner_oracle_sample():
    rng = np.random.default_rng(17)
    for _ in range(20):
        _, graph = random_schema_graph(rng)
        nodes = list(graph.nodes)
        k = int(rng.integers(1, min(4, len(nodes)) + 1))
        required = list(rng.choice(nodes, size=k, replace=False))
        want = steiner_min_edges(edge_pairs(graph), required)
        try:
            got = len(infer_join_path(graph, mapping_tables(*required)).joins)
        except JoinPathError:
            got = None
        assert got == want


def test_join_path_keeps_the_min_winner_tie_break():
    rng = np.random.default_rng(23)
    for _ in range(150):
        _, graph = random_schema_graph(rng, max_tables=9)
        nodes = list(graph.nodes)
        k = int(rng.integers(1, min(4, len(nodes)) + 1))
        required = list(rng.choice(nodes, size=k, replace=False))
        try:
            path = infer_join_path(graph, mapping_tables(*required))
            got = (path.tables, path.joins)
        except JoinPathError:
            got = None
        assert got == join_path_by_min_winner(graph, required)


def test_render_table1_sql(table1_query, imdb_subset):
    graph = build_schema_graph(imdb_subset)
    mappings = mappings_from_tags(tagged_from_gold(table1_query))
    path = infer_join_path(graph, mappings)
    sql = render_sql(path, mappings)
    assert sql == TABLE1_SQL
    assert sql_grammar_ok(sql)


def test_render_single_table_attribute_only(imdb_subset):
    graph = build_schema_graph(imdb_subset)
    mappings = MappingSet(
        tables=frozenset(),
        attributes=frozenset({"movie.title"}),
        value_spans=(),
        conditions=(),
    )
    path = infer_join_path(graph, mappings)
    assert render_sql(path, mappings) == "SELECT movie.title FROM movie"


def test_render_escapes_quotes(imdb_subset):
    graph = build_schema_graph(imdb_subset)
    mappings = MappingSet(
        tables=frozenset(),
        attributes=frozenset(),
        value_spans=(("movie.title", "O'Brien's Day"),),
        conditions=(),
    )
    sql = render_sql(infer_join_path(graph, mappings), mappings)
    assert "O''Brien''s Day" in sql
    assert sql_grammar_ok(sql)


def test_render_injective_on_fixture_mapping_sets(imdb_subset, fixture_corpus):
    graph = build_schema_graph(imdb_subset)
    rendered = {}
    for query in fixture_corpus.queries:
        mappings = mappings_from_tags(tagged_from_gold(query))
        if mappings.empty:
            continue
        try:
            path = infer_join_path(graph, mappings)
        except JoinPathError:
            continue
        sql = render_sql(path, mappings)
        assert sql_grammar_ok(sql)
        if sql in rendered:
            assert rendered[sql] == mappings  # identical inputs may collide
        rendered[sql] = mappings


def test_render_deterministic(table1_query, imdb_subset):
    graph = build_schema_graph(imdb_subset)
    mappings = mappings_from_tags(tagged_from_gold(table1_query))
    a = render_sql(infer_join_path(graph, mappings), mappings)
    b = render_sql(infer_join_path(graph, mappings), mappings)
    assert a == b
