import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fixture_text
from dbtagger.embeddings import (
    SUBWORD_MEMO,
    EmbeddingFormatError,
    EmbeddingTable,
    char_ngrams,
    embed_query,
    embed_token,
    fnv1a,
    load_embeddings,
    subword_vector,
)


def test_load_two_line_file():
    table = load_embeddings("cat 1 0 0\ndog 0 1 0\n")
    assert len(table.vectors) == 2 and table.dimension == 3
    assert np.array_equal(table.vectors["cat"], [1.0, 0.0, 0.0])


def test_mixed_dimensions_rejected():
    with pytest.raises(EmbeddingFormatError, match="line 2"):
        load_embeddings("cat 1 0 0\ndog 0 1 0 5\n")


@pytest.mark.parametrize("component", ["nan", "inf", "-inf", "NaN"])
def test_non_finite_component_rejected(component):
    with pytest.raises(EmbeddingFormatError, match="line 2: non-finite"):
        load_embeddings(f"2 3\nfoo {component} 1 2\n")


def test_empty_file_rejected():
    with pytest.raises(EmbeddingFormatError, match="no vectors"):
        load_embeddings("")


def test_count_dim_header_and_subword_line():
    table = load_embeddings("#subword B=1024 seed=7\n2 3\ncat 1 0 0\ndog 0 1 0\n")
    assert table.dimension == 3
    assert table.bucket_count == 1024 and table.subword_seed == 7


@pytest.mark.parametrize(
    "header, message",
    [
        ("#subword B=0 seed=7", "B must be an integer in 1..2^64-1, got '0'"),
        ("#subword B=-3", "got '-3'"),
        (f"#subword B={1 << 64}", "B must be an integer in 1..2^64-1"),
        (f"#subword B=8 seed={1 << 64}", "seed must be an integer in 0..2^64-1"),
        ("#subword seed=-1", "got '-1'"),
        ("#subword B=1.5", "got '1.5'"),
        ("#subword seed=abc", "got 'abc'"),
    ],
)
def test_subword_header_out_of_range_rejected(header, message):
    with pytest.raises(EmbeddingFormatError, match="line 2") as info:
        load_embeddings(f"cat 1 0 0\n{header}\ndog 0 1 0\n")
    assert message in str(info.value)


@pytest.mark.parametrize("kwargs", [{"bucket_count": 0}, {"subword_seed": 1 << 64}])
def test_table_rejects_unusable_subword_parameters(kwargs):
    with pytest.raises(ValueError):
        EmbeddingTable(3, {"cat": np.zeros(3)}, **kwargs)


def test_300_dim_subset_fixture():
    table = load_embeddings(fixture_text("emb300_subset.vec"))
    assert table.dimension == 300
    assert "movie" in table.vectors


def test_exact_match_is_bitwise(fixture_embeddings):
    stored = fixture_embeddings.vectors["movie"]
    assert embed_token(fixture_embeddings, "movie") is stored


def test_lowercase_fallback():
    table = load_embeddings("movie 1 2 3\n")
    assert np.array_equal(embed_token(table, "Movie"), [1.0, 2.0, 3.0])


def test_oov_is_deterministic_mean_of_ngram_buckets():
    table = load_embeddings("#subword B=512 seed=3\nmovie 1 2 3\n")
    token = "Zorble"
    got = embed_token(table, token)
    assert np.array_equal(got, embed_token(table, token))

    # independent recomputation: enumerate padded n-grams by hand
    padded = "<" + token + ">"
    grams = [
        padded[i : i + n]
        for n in range(3, 7)
        for i in range(len(padded) - n + 1)
    ]
    assert grams == char_ngrams(token)
    total = np.zeros(3)
    for gram in grams:
        h = 2166136261
        for byte in gram.encode("utf-8"):
            h = ((h ^ byte) * 16777619) & 0xFFFFFFFF
        bucket = h % 512
        total += np.random.default_rng([3, bucket]).uniform(-1 / 3, 1 / 3, 3)
    assert np.allclose(got, total / len(grams), rtol=0, atol=0)


def test_fnv1a_reference_value():
    # FNV-1a of empty input is the offset basis
    assert fnv1a(b"") == 2166136261


def test_embed_query_rows():
    table = load_embeddings("a 1 0\nb 0 1\n")
    X = embed_query(table, ["a"])
    assert X.shape == (1, 2) and np.array_equal(X, [[1.0, 0.0]])
    X2 = embed_query(table, ["a", "b", "a"])
    assert X2.shape == (3, 2)
    assert np.array_equal(X2[::-1], embed_query(table, ["a", "b", "a"][::-1]))


def test_embed_query_table1_shape(fixture_embeddings, table1_query):
    X = embed_query(fixture_embeddings, table1_query.words)
    assert X.shape == (10, fixture_embeddings.dimension)


def test_embed_query_table1_at_300_dims(table1_query):
    # tokens missing from the 300-dim subset fall through to subwords,
    # so the full query still embeds to a 10 x 300 matrix
    table = load_embeddings(fixture_text("emb300_subset.vec"))
    X = embed_query(table, table1_query.words)
    assert X.shape == (10, 300)
    assert np.all(np.isfinite(X))


def test_empty_token_rejected(fixture_embeddings):
    with pytest.raises(ValueError):
        embed_token(fixture_embeddings, "")


@settings(max_examples=60, deadline=None)
@given(token=st.text(alphabet=st.characters(min_codepoint=33, max_codepoint=0x2FF), min_size=1, max_size=12))
def test_oov_vectors_always_finite(token):
    table = EmbeddingTable(4, {}, bucket_count=64, subword_seed=5)
    vec = embed_token(table, token)
    assert vec.shape == (4,)
    assert np.all(np.isfinite(vec))


def _subword_oracle(table: EmbeddingTable, token: str) -> np.ndarray:
    """The sub-word vector drawn afresh: each n-gram bucket from its own
    ``default_rng([seed, bucket])``, summed in n-gram order."""
    d = table.dimension
    grams = char_ngrams(token)
    total = np.zeros(d)
    for gram in grams:
        bucket = fnv1a(gram.encode("utf-8")) % table.bucket_count
        total += np.random.default_rng([table.subword_seed, bucket]).uniform(-1 / d, 1 / d, d)
    return total / len(grams)


def _random_words(rng, count):
    letters = list("abcdefghijklmnopqrstuvwxyzÄéß-'")
    return ["".join(rng.choice(letters, size=rng.integers(1, 13))) for _ in range(count)]


def test_subword_memo_matches_fresh_draws_bit_for_bit():
    tables = [
        EmbeddingTable(32, {}),
        EmbeddingTable(7, {}, bucket_count=97, subword_seed=3),
    ]
    words = _random_words(np.random.default_rng(41), 150)
    for word in words + words:  # the second pass reads the memo
        for table in tables:
            got = embed_token(table, word)
            assert np.array_equal(got, _subword_oracle(table, word))
            assert got.dtype == np.float64 and not got.flags.writeable


def test_subword_memo_stays_at_its_bound():
    table = EmbeddingTable(4, {}, bucket_count=64, subword_seed=11)
    for i in range(10_000):
        embed_token(table, f"w{i}")
    assert subword_vector.cache_info().currsize == SUBWORD_MEMO


def test_table_with_embedded_unseen_words_pickles():
    table = load_embeddings("#subword B=512 seed=3\nmovie 1 2 3\n")
    words = ["Zorble", "quintessa", "movie", "Movie"]
    before = [embed_token(table, w) for w in words]
    again = pickle.loads(pickle.dumps(table))
    subword_vector.cache_clear()
    for word, vec in zip(words, before):
        assert np.array_equal(embed_token(again, word), vec)
