"""Property-based fuzzing of every loader: a malformed model file, schema
JSON or embeddings text ends in the loader's own ValueError subclass and,
from the command line, in ``error:`` and exit 1.  Whatever loads must be
usable."""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import model_files
from conftest import FIXTURES
from dbtagger import cli
from dbtagger.corpus import TagLevel, build_tag_vocab, parse_corpus
from dbtagger.embeddings import EmbeddingFormatError, EmbeddingTable, load_embeddings
from dbtagger.schema import SchemaError, load_schema
from dbtagger.tagger import DBTaggerModel, ModelFormatError, load_model, save_model, tag_query

QUERY = ["who", "acted", "Nash", "unseen"]


def _small_model_blob() -> bytes:
    corpus = parse_corpus(
        "who\tWP\tO\tO\nacted\tVBD\tTABLEREF\tcast\nNash\tNNP\tVALUE\tcast.role\n\n"
        "movie\tNN\tTABLE\tmovie\ntitle\tNN\tATTR\tmovie.title\n"
    )
    rng = np.random.default_rng(0)
    words = sorted({t.text for q in corpus.queries for t in q.tokens})
    emb = EmbeddingTable(3, {w: rng.standard_normal(3) for w in words})
    vocabs = {level: build_tag_vocab(corpus, level) for level in TagLevel}
    return save_model(DBTaggerModel.build(emb, vocabs, hidden=2, seed=0))


BLOB = _small_model_blob()
SIZE_FIELDS = model_files.size_fields(BLOB)


def _cli(args: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        status = cli.run(args)
    return status, out.getvalue(), err.getvalue()


def _assert_cli_error(args: list[str]):
    status, out, err = _cli(args)
    assert (status, out) == (1, "") and err.startswith("error:"), err


@pytest.fixture(scope="module", autouse=True)
def one_parser():
    """Build the CLI parser once: argparse set-up would otherwise take a
    third of this module's time."""
    parser = cli.build_parser()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "build_parser", lambda: parser)
        yield


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    (path / "queries.txt").write_text(" ".join(QUERY) + "\n")
    return path


# ---------------------------------------------------------------------------
# model bytes


def _check_model_bytes(blob: bytes, workdir):
    path = workdir / "fuzzed.bin"
    path.write_bytes(blob)
    args = ["tag", "--model", str(path), "--input", str(workdir / "queries.txt")]
    try:
        model = load_model(blob)
    except ModelFormatError:
        _assert_cli_error(args)
        return
    try:
        tagged = tag_query(model, QUERY)
    except ValueError as exc:  # finite parameters whose scores overflow
        assert "not finite" in str(exc)
        _assert_cli_error(args)
        return
    assert [t.text for t in tagged.tokens] == QUERY
    assert all(t.type_tag in model.vocabs[TagLevel.TYPE].symbols for t in tagged.tokens)
    assert all(t.schema_tag in model.vocabs[TagLevel.SCHEMA].symbols for t in tagged.tokens)
    assert _cli(args)[0] == 0


@settings(max_examples=150, deadline=None)
@given(length=st.integers(0, len(BLOB) - 1))
def test_truncated_model_file(workdir, length):
    with pytest.raises(ModelFormatError):
        load_model(BLOB[:length])
    _check_model_bytes(BLOB[:length], workdir)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")  # a flipped exponent
@settings(max_examples=300, deadline=None)
@given(bit=st.integers(0, 8 * len(BLOB) - 1))
def test_model_file_with_one_bit_flipped(workdir, bit):
    flipped = bytearray(BLOB)
    flipped[bit // 8] ^= 1 << (bit % 8)
    _check_model_bytes(bytes(flipped), workdir)


@settings(max_examples=300, deadline=None)
@given(field=st.sampled_from(SIZE_FIELDS), value=st.integers(0, len(BLOB)))
def test_model_file_with_a_size_field_rewritten(workdir, field, value):
    _check_model_bytes(model_files.with_u32(BLOB, field[1], value), workdir)


# ---------------------------------------------------------------------------
# schema JSON

_SCHEMA_WORDS = ["name", "tables", "kind", "attributes", "pk", "fk", "ref", "movie",
                 "cast", "id", "entity", "relation", "text", "number", ""]
# any character a UTF-8 file can hold (st.text's own default spends
# seconds deriving the same set from the codec)
_chars = st.characters(blacklist_categories=("Cs",))
_word = st.sampled_from(_SCHEMA_WORDS) | st.text(_chars, max_size=4)
_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | _word,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_word, inner, max_size=5),
    max_leaves=40,
)
_any_text = st.text(_chars)
schema_texts = (
    _json.map(json.dumps)
    | _any_text
    | st.integers(1, 100_000).map(lambda n: "[" * n + "]" * n)
    | st.integers(1, 10_000).map(lambda n: '{"name": ' + "7" * n + "}")
)


@settings(max_examples=200, deadline=None)
@given(text=schema_texts)
def test_schema_json(workdir, text):
    path = workdir / "schema.json"
    path.write_text(text, encoding="utf-8")
    try:
        load_schema(text)
    except SchemaError:
        _assert_cli_error(["stats", "--schema", str(path)])
    else:
        assert _cli(["stats", "--schema", str(path)])[0] == 0


# ---------------------------------------------------------------------------
# embeddings text

_field = st.sampled_from(
    ["who", "movie", "0", "1", "-2.5", "3", "1e308", "1e999", "nan", "inf", "-inf", "x",
     "#subword", "B=0", "B=7", "seed=-1", "seed=3", "B=18446744073709551616"]
) | st.floats().map(repr)
_line = st.lists(_field, max_size=5).map(" ".join) | st.text(_chars, max_size=10)
embedding_texts = st.lists(_line, max_size=8).map("\n".join)


@settings(max_examples=200, deadline=None)
@given(text=embedding_texts)
def test_embeddings_text(workdir, text):
    try:
        table = load_embeddings(text)
    except EmbeddingFormatError:
        path = workdir / "vectors.vec"
        path.write_text(text, encoding="utf-8")
        _assert_cli_error([
            "train", "--corpus", str(FIXTURES / "fixture_corpus.tsv"),
            "--schema", str(FIXTURES / "imdb_subset.json"), "--emb", str(path),
            "--out", str(workdir / "never.bin"),
        ])
        assert not (workdir / "never.bin").exists()
        return
    assert table.dimension >= 1 and len(table.vectors) >= 1
    for vec in table.vectors.values():
        assert vec.shape == (table.dimension,) and np.isfinite(vec).all()
