import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dbtagger.corpus import (
    CorpusError,
    Dataset,
    TagLevel,
    Token,
    build_tag_vocab,
    parse_corpus,
    serialize,
    split_folds,
    train_val_split,
    validate_against_vocab,
)


def test_parse_table1(table1_text):
    ds = parse_corpus(table1_text)
    assert len(ds) == 1
    query = ds.queries[0]
    assert len(query) == 10
    token = query.tokens[1]
    assert (token.text, token.pos, token.type_tag, token.schema_tag) == (
        "acted", "VBD", "TABLEREF", "cast",
    )
    # lowercase cond in the file canonicalizes to COND
    assert query.tokens[4].schema_tag == "COND"
    assert query.words == "who acted John Nash in the movie A Beautiful Mind".split()


def test_parse_empty_stream_is_an_error():
    with pytest.raises(CorpusError, match="no queries"):
        parse_corpus("")
    with pytest.raises(CorpusError, match="no queries"):
        parse_corpus("# only a comment\n\n")


def test_parse_reports_line_numbers():
    bad = "who\tWP\tO\tO\nacted\tVBD\tTABLEREF\n"
    with pytest.raises(CorpusError, match="line 2"):
        parse_corpus(bad)


def test_o_type_with_schema_tag_rejected():
    bad = "who\tWP\tO\tmovie\n"
    with pytest.raises(CorpusError, match="type O but schema tag 'movie'"):
        parse_corpus(bad)


def test_cond_type_with_other_schema_rejected():
    with pytest.raises(CorpusError, match="type COND"):
        parse_corpus("in\tIN\tCOND\tmovie\n")


def test_value_needs_qualified_attribute():
    with pytest.raises(CorpusError, match="qualified attribute"):
        parse_corpus("Nash\tNNP\tVALUE\tmovie\n")


@pytest.mark.parametrize(
    "row",
    [
        "movie\tNN\tTABLE\tmovie.title",
        "acted\tVBD\tTABLEREF\tcast.role",
        "title\tNN\tATTR\tmovie",
        "whose\tWP\tATTRREF\tmovie",
    ],
)
def test_relation_type_tags_need_their_schema_tag_shape(row):
    type_tag = row.split("\t")[2]
    with pytest.raises(CorpusError, match=f"line 2: token .* has type {type_tag} but schema tag"):
        parse_corpus("who\tWP\tO\tO\n" + row + "\n")


def test_unknown_type_tag():
    with pytest.raises(CorpusError, match="unknown type tag 'TBL'"):
        parse_corpus("who\tWP\tTBL\tmovie\n")


def test_roundtrip_table1(table1_text):
    ds = parse_corpus(table1_text)
    again = parse_corpus(serialize(ds))
    assert again.queries == ds.queries
    # canonical form is a fixed point
    assert serialize(again) == serialize(ds)


def test_roundtrip_fixture_corpus(fixture_corpus):
    assert parse_corpus(serialize(fixture_corpus)).queries == fixture_corpus.queries


def test_build_tag_vocab_table1(table1_text):
    ds = parse_corpus(table1_text)
    vocab = build_tag_vocab(ds, TagLevel.SCHEMA)
    assert vocab.symbols == ("COND", "O", "cast", "cast.role", "movie", "movie.title")
    assert vocab.size == 6
    assert vocab.index_of("cast") == 2
    assert "movie" in vocab.symbols and "people" not in vocab.symbols


def test_type_vocab_is_subset_of_the_seven(fixture_corpus):
    vocab = build_tag_vocab(fixture_corpus, TagLevel.TYPE)
    assert set(vocab.symbols) <= {"TABLE", "TABLEREF", "ATTR", "ATTRREF", "VALUE", "COND", "O"}


def test_vocab_idempotent_under_duplication(table1_text):
    one = parse_corpus(table1_text)
    two = Dataset(queries=one.queries + one.queries, name="twice")
    assert build_tag_vocab(one, TagLevel.SCHEMA) == build_tag_vocab(two, TagLevel.SCHEMA)


def test_validate_against_vocab(fixture_corpus, table1_text):
    small = build_tag_vocab(parse_corpus(table1_text), TagLevel.SCHEMA)
    with pytest.raises(CorpusError, match="people"):
        validate_against_vocab(fixture_corpus, small)


def _dataset(n):
    queries = parse_corpus(
        "\n\n".join(f"q{i}\tNN\tTABLE\tmovie" for i in range(n))
    ).queries
    return Dataset(queries=queries, name=f"ds{n}")


def test_split_folds_partitions():
    ds = _dataset(12)
    pairs = split_folds(ds, k=6, seed=1)
    assert len(pairs) == 6
    seen = []
    for train, test in pairs:
        assert len(test) == 2
        assert len(train) == 10
        assert not set(test.queries) & set(train.queries)
        seen.extend(test.queries)
    assert sorted(q.tokens[0].text for q in seen) == sorted(
        q.tokens[0].text for q in ds.queries
    )


def test_split_folds_deterministic():
    ds = _dataset(13)
    a = split_folds(ds, k=6, seed=42)
    b = split_folds(ds, k=6, seed=42)
    assert [(t.queries, e.queries) for t, e in a] == [(t.queries, e.queries) for t, e in b]
    c = split_folds(ds, k=6, seed=43)
    assert [(t.queries, e.queries) for t, e in a] != [(t.queries, e.queries) for t, e in c]


def test_split_folds_599_queries_sizes():
    # the largest published query-log size: fold sizes must be 99 or 100
    sizes = sorted(len(test) for _, test in split_folds(_dataset(599), k=6, seed=0))
    assert sizes == [99, 100, 100, 100, 100, 100]


def test_split_folds_rejects_too_many_folds():
    with pytest.raises(ValueError, match="cannot split"):
        split_folds(_dataset(4), k=6, seed=0)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(min_value=2, max_value=40), k=st.integers(min_value=2, max_value=8),
       seed=st.integers(min_value=0, max_value=2**31))
def test_fold_partition_property(n, k, seed):
    if k > n:
        return
    ds = _dataset(n)
    pairs = split_folds(ds, k=k, seed=seed)
    covered = [q for _, test in pairs for q in test.queries]
    assert len(covered) == n
    assert {q.tokens[0].text for q in covered} == {q.tokens[0].text for q in ds.queries}
    for train, test in pairs:
        assert len(train) + len(test) == n


def test_vocab_monotone_under_extension(fixture_corpus):
    base = Dataset(queries=fixture_corpus.queries[:10], name="base")
    bigger = Dataset(queries=fixture_corpus.queries[:11], name="bigger")
    assert set(build_tag_vocab(base, TagLevel.SCHEMA).symbols) <= set(
        build_tag_vocab(bigger, TagLevel.SCHEMA).symbols
    )


def test_train_val_split_sizes():
    train, val = train_val_split(_dataset(120), seed=3)
    assert (len(train), len(val)) == (100, 20)
    # 131 queries: round(131/6) = 22 validation queries
    train, val = train_val_split(_dataset(131), seed=3)
    assert (len(train), len(val)) == (109, 22)


def test_train_val_split_deterministic_and_disjoint():
    ds = _dataset(30)
    a_train, a_val = train_val_split(ds, seed=9)
    b_train, b_val = train_val_split(ds, seed=9)
    assert a_train.queries == b_train.queries and a_val.queries == b_val.queries
    assert not set(a_train.queries) & set(a_val.queries)
    assert len(a_train) + len(a_val) == 30


def test_train_val_split_too_small():
    with pytest.raises(ValueError, match="at least 6"):
        train_val_split(_dataset(5), seed=0)


def test_token_invariants_direct():
    with pytest.raises(CorpusError):
        Token(text="two words", pos="NN", type_tag="TABLE", schema_tag="movie")
    with pytest.raises(CorpusError):
        Token(text="", pos="NN", type_tag="TABLE", schema_tag="movie")
