import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from dbtagger import baselines, schema as schema_mod
from dbtagger.baselines import (
    SCAN_ROW_LIMIT,
    InvertedValueIndex,
    build_value_index,
    edit_distance,
    edit_distance_relation_map,
    embedding_similarity_map,
    normalize,
    scan_map,
    tfidf_map,
    word_ngrams,
)
from dbtagger.embeddings import EmbeddingTable
from dbtagger.schema import Attribute, ContentSnapshot, Schema, Table, load_schema


def one_column_snapshot(values, table="movie", attr="title"):
    raw = {
        "name": "tiny",
        "tables": [
            {
                "name": table,
                "kind": "entity",
                "attributes": [{"name": "id", "pk": True, "kind": "number"}, {"name": attr}],
            }
        ],
    }
    schema = load_schema(json.dumps(raw))
    columns = {"id": [str(i) for i in range(len(values))], attr: list(values)}
    return schema, ContentSnapshot(schema, {table: columns})


def test_normalize():
    assert normalize("The Truman Show?") == "the truman show"
    assert normalize("  written_by  ") == "written by"
    assert normalize("!!!") == ""


def test_word_ngrams_enumeration_oracle():
    words = "the truman show".split()
    got = set(word_ngrams(words))
    # independent enumeration: every window of length 1..3
    want = {
        " ".join(words[i : i + n])
        for n in (1, 2, 3)
        for i in range(len(words) - n + 1)
    }
    assert got == want
    assert len(got) == 6


def test_build_value_index_single_row():
    schema, snapshot = one_column_snapshot(["The Truman Show"])
    index = build_value_index(snapshot, schema)
    assert set(index.postings) == {
        "the truman show", "the truman", "truman show", "the", "truman", "show",
    }
    for phrase in index.postings:
        assert index.postings[phrase] == {"movie.title": 1}


def test_equal_postings_are_one_read_only_mapping():
    schema, snapshot = one_column_snapshot(["heat wave", "cold wave", "Heat"])
    index = build_value_index(snapshot, schema)
    assert index.postings["heat"] == {"movie.title": 2}
    assert index.postings["heat"] is index.postings["wave"]
    assert index.postings["cold"] is index.postings["heat wave"]
    with pytest.raises(TypeError):
        index.postings["heat"]["movie.title"] = 1
    with pytest.raises(TypeError):
        index.postings["cold"]["other.column"] = 1
    assert index.postings["cold"] == {"movie.title": 1}


def test_value_index_of_a_10k_row_snapshot_stays_under_14_mb(imdb_subset):
    snapshot = schema_mod.synthetic_snapshot(imdb_subset, 10_000, seed=1)
    tracemalloc.start()
    try:
        index = build_value_index(snapshot, imdb_subset)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(index) == 88_122
    assert kept < 14e6 and peak < 14e6


def test_build_value_index_empty_snapshot():
    schema, snapshot = one_column_snapshot([])
    assert len(build_value_index(snapshot, schema)) == 0


def test_same_value_two_columns_two_postings():
    raw = {
        "name": "two",
        "tables": [
            {"name": "actor", "kind": "entity", "attributes": [{"name": "name"}]},
            {"name": "writer", "kind": "entity", "attributes": [{"name": "name"}]},
        ],
    }
    schema = load_schema(json.dumps(raw))
    snapshot = ContentSnapshot(
        schema, {"actor": {"name": ["Matt Demon"]}, "writer": {"name": ["Matt Demon"]}}
    )
    index = build_value_index(snapshot, schema)
    assert index.postings["matt demon"] == {"actor.name": 1, "writer.name": 1}
    assert len(index.lookup("matt demon")) == 2


def test_tf_counts_cells_once_each():
    schema, snapshot = one_column_snapshot(["Heat", "Heat", "Heat Wave"])
    index = build_value_index(snapshot, schema)
    assert index.postings["heat"] == {"movie.title": 3}
    assert index.postings["heat wave"] == {"movie.title": 1}


def test_tfidf_map_truman_show():
    schema, snapshot = one_column_snapshot(["The Truman Show", "Heat"])
    index = build_value_index(snapshot, schema)
    tokens = "What is the writer of The Truman Show".split()
    results = tfidf_map(index, tokens)
    spans = [(r.start, r.end, r.target) for r in results]
    # the trigram wins and suppresses "the"/"truman"/"show" inside it; the
    # stray lowercase "the" at position 2 still matches the unigram posting
    assert (5, 8, "movie.title") in spans
    assert all(not (r.start >= 5 and r.end <= 8 and (r.end - r.start) < 3) for r in results)


def test_tfidf_biggest_tf_wins():
    raw = {
        "name": "two",
        "tables": [
            {"name": "actor", "kind": "entity", "attributes": [{"name": "name"}]},
            {"name": "writer", "kind": "entity", "attributes": [{"name": "name"}]},
        ],
    }
    schema = load_schema(json.dumps(raw))
    actor_rows = {"name": ["Matt Demon"] * 5}
    writer_rows = {"name": ["Matt Demon"] * 2}
    snapshot = ContentSnapshot(schema, {"actor": actor_rows, "writer": writer_rows})
    index = build_value_index(snapshot, schema)
    results = tfidf_map(index, ["Matt", "Demon"])
    assert len(results) == 1
    assert results[0].target == "actor.name"
    assert results[0].start == 0 and results[0].end == 2


def test_tfidf_tie_breaks_lexicographically():
    index = InvertedValueIndex(
        postings={"heat": {"b.col": 3, "a.col": 3}}, columns=("a.col", "b.col")
    )
    results = tfidf_map(index, ["Heat"])
    assert results[0].target == "a.col"


def test_tfidf_no_match():
    schema, snapshot = one_column_snapshot(["Heat"])
    index = build_value_index(snapshot, schema)
    assert tfidf_map(index, ["zebra", "crossing"]) == []


def test_tfidf_results_never_overlap():
    schema, snapshot = one_column_snapshot(
        ["The Truman Show", "Truman Show Live", "Show", "The Show"]
    )
    index = build_value_index(snapshot, schema)
    tokens = "The Truman Show Show The Truman".split()
    results = tfidf_map(index, tokens)
    taken = set()
    for r in results:
        span = set(range(r.start, r.end))
        assert not span & taken
        taken |= span


def reference_edit_distance(a, b):
    """Textbook full-matrix DP, kept separate from the implementation."""
    m, n = len(a), len(b)
    table = [[0] * (n + 1) for _ in range(m + 1)]
    for i in range(m + 1):
        table[i][0] = i
    for j in range(n + 1):
        table[0][j] = j
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            table[i][j] = min(
                table[i - 1][j] + 1,
                table[i][j - 1] + 1,
                table[i - 1][j - 1] + (a[i - 1] != b[j - 1]),
            )
    return table[m][n]


def test_edit_distance_against_dp_oracle():
    rng = np.random.default_rng(5)
    alphabet = "abcde_"
    for _ in range(50):
        a = "".join(rng.choice(list(alphabet), size=rng.integers(0, 9)))
        b = "".join(rng.choice(list(alphabet), size=rng.integers(0, 9)))
        assert edit_distance(a, b) == reference_edit_distance(a, b)


def test_edit_distance_written_by(imdb_subset):
    # "written" vs "written_by" (underscore as space) needs three insertions
    assert edit_distance("written", "written by") == 3
    assert edit_distance_relation_map("written", imdb_subset, max_distance=2) is None
    hit = edit_distance_relation_map("written", imdb_subset, max_distance=3)
    assert hit is not None and hit.target == "written_by" and hit.score == 3.0


def test_edit_distance_exact_name(imdb_subset):
    hit = edit_distance_relation_map("movie", imdb_subset, max_distance=0)
    assert hit is not None and hit.target == "movie" and hit.score == 0.0


def test_edit_distance_director_no_match():
    raw = {
        "name": "three",
        "tables": [
            {"name": "movie", "kind": "entity", "attributes": [{"name": "id", "pk": True}]},
            {"name": "people", "kind": "entity", "attributes": [{"name": "id", "pk": True}]},
            {"name": "cast", "kind": "relation", "attributes": [{"name": "id", "pk": True}]},
        ],
    }
    schema = load_schema(json.dumps(raw))
    for name in ("movie", "people", "cast", "id"):
        assert reference_edit_distance("director", name) > 2
    assert edit_distance_relation_map("director", schema, max_distance=2) is None


def test_edit_distance_tie_prefers_shorter_then_lexicographic():
    raw = {
        "name": "ties",
        "tables": [
            {"name": "ab", "kind": "entity", "attributes": [{"name": "zz"}]},
            {"name": "ax", "kind": "entity", "attributes": [{"name": "ay"}]},
        ],
    }
    schema = load_schema(json.dumps(raw))
    # "aq" is distance 1 from ab, ax, ay; all length 2; lexicographic -> ab
    hit = edit_distance_relation_map("aq", schema, max_distance=2)
    assert hit.target == "ab"


# Name pieces: mixed case and underscores, so that a key differs from its
# name and short names tie on distance and on length.
_name = st.text(alphabet="aAbBiI_1", min_size=1, max_size=5).filter(lambda n: not n[0].isdigit())


@st.composite
def schema_and_tokens(draw):
    """1-3 tables of 0-3 attributes; names repeat across tables, so a
    table and an attribute, or two attributes, can share a name.  Tokens
    add "İ", whose lowercase form is two characters long."""
    table_names = draw(st.lists(_name, min_size=1, max_size=3, unique=True))
    tables = []
    for table_name in table_names:
        attrs = draw(st.lists(st.sampled_from(table_names) | _name, max_size=3, unique=True))
        tables.append(Table(table_name, "entity", tuple(Attribute(a) for a in attrs)))
    schema = Schema("random", tuple(tables))
    names = table_names + [a.name for t in tables for a in t.attributes]
    token = st.text(alphabet="aAbB_ İ1", min_size=1, max_size=7) | st.sampled_from(names)
    return schema, draw(st.lists(token, min_size=1, max_size=5))


@settings(max_examples=200, deadline=None)
@given(schema_and_tokens(), st.integers(0, 3))
def test_edit_distance_map_matches_the_per_name_oracle(case, max_distance):
    schema, tokens = case
    for i, token in enumerate(tokens):
        got = edit_distance_relation_map(token, schema, max_distance, token_index=i)
        assert got == oracles.edit_distance_relation_map_per_name(token, schema, max_distance, i)


def test_edit_distance_skips_names_outside_the_length_window(monkeypatch, imdb_subset):
    calls = []

    def counting_edit_distance(a, b):
        calls.append((a, b))
        return edit_distance(a, b)

    monkeypatch.setattr(baselines, "edit_distance", counting_edit_distance)
    keys = [t.name for t in imdb_subset.tables]
    keys += [a.name for t in imdb_subset.tables for a in t.attributes]
    keys = [name.lower().replace("_", " ") for name in keys]
    for token in ("movie", "written", "Title", "İd", "x", "directed_by_whom"):
        needle = token.lower().replace("_", " ")
        for max_distance in range(4):
            calls.clear()
            edit_distance_relation_map(token, imdb_subset, max_distance)
            assert all(a == needle for a, _ in calls)
            want = [key for key in keys if abs(len(key) - len(needle)) <= max_distance]
            assert sorted(b for _, b in calls) == sorted(want)


def _toy_embeddings():
    vectors = {
        "north": np.array([0.0, 1.0]),
        "east": np.array([1.0, 0.0]),
        "northeast": np.array([1.0, 1.0]),
        "token": np.array([0.05, 1.0]),
    }
    return EmbeddingTable(2, vectors, bucket_count=32, subword_seed=1)


def test_embedding_similarity_identical_token():
    table = _toy_embeddings()
    hit = embedding_similarity_map(table, "north", [("north", "t.north")], threshold=1.0)
    assert hit is not None and hit.target == "t.north"
    assert hit.score == pytest.approx(1.0, abs=1e-12)


def test_embedding_similarity_below_threshold():
    table = _toy_embeddings()
    assert embedding_similarity_map(table, "north", [("east", "t.east")], threshold=0.5) is None


def test_embedding_similarity_argmax_matches_hand_cosines():
    table = _toy_embeddings()
    candidates = [("north", "t.north"), ("east", "t.east"), ("northeast", "t.ne")]
    hit = embedding_similarity_map(table, "token", candidates, threshold=0.1)
    vec = table.vectors["token"]
    hand = {
        target: float(np.dot(vec, table.vectors[word]) / (np.linalg.norm(vec) * np.linalg.norm(table.vectors[word])))
        for word, target in candidates
    }
    best = max(sorted(hand), key=lambda t: hand[t])
    assert hit.target == best
    assert hit.score == pytest.approx(hand[best], abs=1e-12)


def test_embedding_similarity_multiword_mean():
    table = _toy_embeddings()
    hit = embedding_similarity_map(table, "northeast", [("north east", "t.ne")], threshold=0.9)
    assert hit is not None  # mean of north+east is parallel to northeast
    assert hit.score == pytest.approx(1.0, abs=1e-12)


# Embedding words: "zero" has the zero vector; "İ" lowercases to "i̇";
# "snark" and "Boojum" are not in the table, so they take the sub-word path.
_VOCAB = ("north", "east", "zero", "twin", "i̇", "id")
_WORDS = _VOCAB + ("North", "İ", "ID", "snark", "Boojum")
_component = st.sampled_from([-1.0, -0.5, 0.0, 0.25, 1.0, 3.0])


@st.composite
def table_and_candidates(draw):
    """A 3-d table whose vectors repeat (ties on similarity), with
    candidates of 1-4 words joined by spaces or underscores, surfaces that
    hold no word, and targets that repeat."""
    vectors = {w: np.array(draw(st.lists(_component, min_size=3, max_size=3))) for w in _VOCAB}
    vectors["zero"] = np.zeros(3)
    vectors["twin"] = vectors["north"].copy()
    table = EmbeddingTable(3, vectors, bucket_count=64, subword_seed=draw(st.integers(0, 3)))
    surface = st.builds(
        lambda words, sep: sep.join(words),
        st.lists(st.sampled_from(_WORDS), min_size=1, max_size=4),
        st.sampled_from([" ", "_"]),
    ) | st.sampled_from(["", "_", " "])
    target = st.sampled_from(["t.a", "t.b", "u.a", "u"])
    candidates = draw(st.lists(st.tuples(surface, target), max_size=6))
    tokens = draw(st.lists(st.sampled_from(_WORDS), min_size=1, max_size=4))
    return table, candidates, tokens


@settings(max_examples=200, deadline=None)
@given(
    table_and_candidates(),
    st.sampled_from([1.0, 0.5]) | st.floats(min_value=1e-9, max_value=1.0),
)
def test_embedding_map_matches_the_per_candidate_oracle(case, threshold):
    table, candidates, tokens = case
    for i, token in enumerate(tokens):
        got = embedding_similarity_map(table, token, candidates, threshold, token_index=i)
        want = oracles.embedding_similarity_map_per_candidate(table, token, candidates, threshold, i)
        assert got == want


def test_scan_map_single_column():
    schema, snapshot = one_column_snapshot(["Heat", "Cold"])
    results = scan_map(snapshot, [(0, 1, "Heat")])
    assert len(results) == 1 and results[0].target == "movie.title"
    assert results[0].score == 1.0


def test_scan_map_prefers_more_rows():
    raw = {
        "name": "two",
        "tables": [
            {"name": "a", "kind": "entity", "attributes": [{"name": "x"}]},
            {"name": "b", "kind": "entity", "attributes": [{"name": "x"}]},
        ],
    }
    schema = load_schema(json.dumps(raw))
    snapshot = ContentSnapshot(
        schema,
        {"a": {"x": ["heat wave"] * 10}, "b": {"x": ["heat"] * 3}},
    )
    results = scan_map(snapshot, [(0, 1, "heat")])
    assert results[0].target == "a.x" and results[0].score == 10.0


def test_scan_map_row_cap_makes_ties_deterministic():
    raw = {
        "name": "two",
        "tables": [
            {"name": "a", "kind": "entity", "attributes": [{"name": "x"}]},
            {"name": "b", "kind": "entity", "attributes": [{"name": "x"}]},
        ],
    }
    schema = load_schema(json.dumps(raw))
    snapshot = ContentSnapshot(
        schema,
        {"a": {"x": ["heat"] * 2600}, "b": {"x": ["heat"] * 2200}},
    )
    results = scan_map(snapshot, [(0, 1, "heat")])
    # both columns cap at 2000; the tie resolves lexicographically
    assert results[0].score == 2000.0
    assert results[0].target == "a.x"


def test_cosine_zero_vector_is_zero():
    assert oracles.cosine_similarity(np.zeros(3), np.ones(3)) == 0.0


def test_mappers_are_pure(movie_snapshot, imdb_subset):
    index = build_value_index(movie_snapshot, imdb_subset)
    tokens = "who acted in The Truman Show".split()
    assert tfidf_map(index, tokens) == tfidf_map(index, tokens)
    grams = [(4, 7, "The Truman Show")]
    assert scan_map(movie_snapshot, grams) == scan_map(movie_snapshot, grams)


# Cell pieces: mixed case, punctuation, and whitespace that ``normalize``
# folds into a space ("\n" among them, the separator of the normalized text).
_PIECES = ("heat", "Heat", "wave", "a", "B", "ab", "-", "!", "'", " ", "\n", "\t", "\x1c", "\x85")
_cell = st.lists(st.sampled_from(_PIECES), max_size=5).map("".join)


@st.composite
def snapshot_and_grams(draw):
    """A snapshot of 1-3 text columns (one may hold more than SCAN_ROW_LIMIT
    matching rows) beside a key column and an attribute with no data, and
    query n-grams that include the end of one cell joined to the start of
    the next."""
    columns = []
    for _ in range(draw(st.integers(1, 3))):
        cells = draw(st.lists(_cell, max_size=6))
        if cells and draw(st.integers(0, 2)) == 0:
            cells = cells * (SCAN_ROW_LIMIT // len(cells) + 1)
        columns.append(cells)
    attributes = [Attribute("id", is_pk=True, kind="number")]
    attributes += [Attribute(f"c{i}") for i in range(len(columns))] + [Attribute("absent")]
    schema = Schema("random", (Table("t", "entity", tuple(attributes)),))
    data = {f"c{i}": cells for i, cells in enumerate(columns)}
    data["id"] = [str(i) for i in range(max(map(len, columns)))]
    snapshot = ContentSnapshot(schema, {"t": data})

    phrases = draw(st.lists(_cell, max_size=4))
    for cells in columns:
        if len(cells) >= 2:
            i = draw(st.integers(0, len(cells) - 2))
            cut_end = draw(st.integers(0, len(cells[i])))
            cut_start = draw(st.integers(0, len(cells[i + 1])))
            phrases.append(cells[i][cut_end:] + " " + cells[i + 1][:cut_start])
        if cells:
            phrases.append(draw(st.sampled_from(cells)))
    grams = [(i, i + 1, phrase) for i, phrase in enumerate(phrases)]
    return schema, snapshot, grams


@settings(max_examples=150, deadline=None)
@given(snapshot_and_grams())
def test_mappers_match_the_per_cell_oracles(case):
    schema, snapshot, grams = case
    assert scan_map(snapshot, grams) == oracles.scan_map_per_cell(snapshot, grams)
    index = build_value_index(snapshot, schema)
    want = oracles.build_value_index_per_cell(snapshot)
    assert index.postings == want.postings
    assert index.columns == want.columns


def test_scan_counts_a_row_holding_the_needle_twice_once():
    schema, snapshot = one_column_snapshot(["heat heat", "Heat-heat!", "cold", "heat"])
    [hit] = scan_map(snapshot, [(0, 1, "HEAT")])
    assert hit.score == 3.0


def test_scan_needle_never_spans_two_rows():
    schema, snapshot = one_column_snapshot(["maple", "grove"])
    assert scan_map(snapshot, [(0, 2, "maple grove")]) == []
    assert oracles.scan_map_per_cell(snapshot, [(0, 2, "maple grove")]) == []


def test_mappers_match_the_per_cell_oracles_on_the_fixture_snapshot(movie_snapshot, imdb_subset):
    index = build_value_index(movie_snapshot, imdb_subset)
    want = oracles.build_value_index_per_cell(movie_snapshot)
    assert index.postings == want.postings and index.columns == want.columns
    phrases = sorted(index.postings) + ["who acted in", "Beautiful  Mind!", "e", "??"]
    grams = [(i, i + 1, phrase) for i, phrase in enumerate(phrases)]
    got = scan_map(movie_snapshot, grams)
    assert got == oracles.scan_map_per_cell(movie_snapshot, grams)
    assert len(got) >= len(index.postings)


def test_each_cell_is_normalized_once(monkeypatch):
    calls = []

    def counting_normalize(text):
        calls.append(text)
        return normalize(text)

    monkeypatch.setattr(schema_mod, "normalize", counting_normalize)
    monkeypatch.setattr(baselines, "normalize", counting_normalize)
    raw = {
        "name": "two",
        "tables": [
            {
                "name": "m",
                "kind": "entity",
                "attributes": [
                    {"name": "id", "pk": True, "kind": "number"},
                    {"name": "title"},
                    {"name": "year", "kind": "number"},
                ],
            },
            {"name": "p", "kind": "entity", "attributes": [{"name": "name"}]},
        ],
    }
    schema = load_schema(json.dumps(raw))
    titles = ["Heat", "Heat Wave", "", "The Truman Show"] * 25
    names = ["Matt Demon", "heat"] * 30
    snapshot = ContentSnapshot(
        schema,
        {
            "m": {"id": [str(i) for i in range(100)], "title": titles, "year": ["1999"] * 100},
            "p": {"name": names},
        },
    )
    text_cells = len(titles) + len(names)
    assert len(calls) == text_cells
    build_value_index(snapshot, schema)
    assert len(calls) == text_cells
    grams = [(0, 1, "heat"), (1, 2, "Wave"), (0, 2, "matt demon")]
    scans = 5
    for _ in range(scans):
        scan_map(snapshot, grams)
    assert len(calls) == text_cells + scans * len(grams)
