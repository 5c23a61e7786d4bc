"""Property-based fuzzing of every loader: a malformed model file, schema
JSON or embeddings text ends in the loader's own ValueError subclass and,
from the command line, in ``error:`` and exit 1.  Whatever loads must be
usable.  Across the subcommands, any mix of path and numeric flags ends in
a clean exit 0 or in one ``error:`` line and exit 1."""

import io
import json
import re
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
from dbtagger.variants import build_vocabs

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


# ---------------------------------------------------------------------------
# the command line: one error contract across the subcommands

# Each subcommand's input and output path flags, and its numeric flags as
# (the value a plain run passes, the large but cheap value); translate reads
# --tagged or --model, and --query with --model.
_TRAINING = {"--epochs": (2, 2), "--switch-epoch": (1, 2), "--batch-size": (4, 64),
             "--hidden": (3, 8), "--dropout": (0.5, 0.5), "--patience": (1, 3)}
_SUBCOMMANDS = {
    "train": (("--corpus", "--schema", "--emb"), ("--out", "--history"), _TRAINING),
    "cv": (("--corpus", "--schema", "--emb"), (), {**_TRAINING, "--k": (2, 9)}),
    "tag": (("--model", "--input"), (), {}),
    "eval": (("--model", "--corpus"), (), {}),
    "bench": (("--schema", "--model", "--queries"), ("--out",), {"--reps": (1, 3), "--rows": (5, 50)}),
    "stats": (("--schema",), (), {"--expected-tags": (28, 10**6)}),
    "translate": (("--schema", "--tagged", "--model"), (), {}),
}
# what each input flag reads, and a file of another kind to give it instead
_READS = {"--corpus": "corpus.tsv", "--schema": "schema.json", "--emb": "emb.vec",
          "--model": "model.bin", "--input": "queries.txt", "--queries": "queries.txt",
          "--tagged": "tagged.tsv"}
_WRONG_KIND = {"corpus.tsv": "schema.json", "schema.json": "corpus.tsv", "emb.vec": "model.bin",
               "model.bin": "emb.vec", "queries.txt": "model.bin", "tagged.tsv": "schema.json"}


@pytest.fixture(scope="module")
def cli_files(tmp_path_factory):
    """The valid input files: eight fixture queries, the imdb subset, the
    fixture embeddings, an untrained model over them, queries to tag and a
    tagged query to translate; and an empty directory for outputs."""
    path = tmp_path_factory.mktemp("cli")
    corpus_text = "\n\n".join(
        (FIXTURES / "fixture_corpus.tsv").read_text(encoding="utf-8").split("\n\n")[:8]
    ) + "\n"
    texts = {
        "corpus.tsv": corpus_text,
        "schema.json": (FIXTURES / "imdb_subset.json").read_text(encoding="utf-8"),
        "emb.vec": (FIXTURES / "fixture_embeddings.vec").read_text(encoding="utf-8"),
        "queries.txt": " ".join(QUERY) + "\nwho wrote Heat\n",
        "tagged.tsv": "movie\tTABLE\tmovie\ntitle\tATTR\tmovie.title\n",
    }
    for name, text in texts.items():
        (path / name).write_text(text, encoding="utf-8")
    vocabs = build_vocabs(parse_corpus(corpus_text), load_schema(texts["schema.json"]))
    model = DBTaggerModel.build(load_embeddings(texts["emb.vec"]), vocabs, hidden=2, seed=0)
    (path / "model.bin").write_bytes(save_model(model))
    (path / "out").mkdir()
    return path


@st.composite
def _input_path(draw, files, flag, perturbed):
    valid = files / _READS[flag]
    kind = draw(st.sampled_from(["mutated", "wrong kind", "missing", "directory"])) if perturbed else "valid"
    if kind == "valid":
        return str(valid)
    if kind == "wrong kind":
        return str(files / _WRONG_KIND[valid.name])
    if kind == "missing":
        return str(files / "absent" / valid.name)
    if kind == "directory":
        return str(files)
    blob = bytearray(valid.read_bytes())
    at = draw(st.integers(0, len(blob) - 1))
    if draw(st.booleans()):
        del blob[at:]
    else:
        blob[at] = draw(st.integers(0, 255))
    mutated = files / f"mutated{flag}"
    mutated.write_bytes(bytes(blob))
    return str(mutated)


@st.composite
def _argv(draw, files):
    """A subcommand's arguments with up to three flags perturbed: a path
    flag to a mutated copy, a file of the wrong kind, a missing path or a
    directory; a numeric flag to -1, 0, 1 or its large value.  The other
    flags take valid files and plain values."""
    command = draw(st.sampled_from(sorted(_SUBCOMMANDS)))
    inputs, outputs, numbers = _SUBCOMMANDS[command]
    numbers = {"--seed": (0, 2**32), **numbers}
    flags = sorted({*inputs, *outputs, *numbers})
    perturbed = draw(st.sets(st.sampled_from(flags), max_size=3))
    argv = []
    for flag in inputs:
        if command == "translate" and flag != "--schema" and draw(st.booleans()):
            continue
        argv += [flag, draw(_input_path(files, flag, flag in perturbed))]
    if "--model" in argv and command == "translate":
        argv += ["--query", " ".join(QUERY)]
    for flag in outputs:
        where = files / "out"
        if flag in perturbed:  # a missing directory, a file, a directory itself
            where = draw(st.sampled_from([files / "absent", files / "corpus.tsv", files]))
        argv += [flag, str(where if where == files else where / flag.strip("-"))]
    for flag, (plain, large) in numbers.items():
        value = draw(st.sampled_from([-1, 0, 1, large])) if flag in perturbed else plain
        argv += [flag, str(value)]
    seed = argv.index("--seed")
    return [*argv[seed : seed + 2], command, *argv[:seed], *argv[seed + 2 :]]


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_every_subcommand_exits_cleanly_or_with_one_error_line(cli_files, data):
    argv = data.draw(_argv(cli_files))
    status, out, err = _cli(argv)
    if status == 2:  # translate given neither --tagged nor --model
        assert argv[2] == "translate" and "--tagged" not in argv and "--model" not in argv, err
        return
    if status == 0:
        assert not re.search(r"\b(nan|inf)\b", out, re.IGNORECASE), out
        return
    assert status == 1, (status, err)
    assert err.startswith("error: ") and err.count("\n") == 1, err
