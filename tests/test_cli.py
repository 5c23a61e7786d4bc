import json
import shutil
from pathlib import Path

import numpy as np
import pytest

import model_files
from conftest import FIXTURES
from dbtagger.cli import run
from dbtagger.tagger import DBTaggerModel, load_model, save_model


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli")
    for name in ("fixture_corpus.tsv", "imdb_subset.json", "fixture_embeddings.vec", "table1.tsv"):
        shutil.copy(FIXTURES / name, path / name)
    return path


@pytest.fixture(scope="module")
def trained_model_path(workdir):
    out = workdir / "model.bin"
    status = run(
        [
            "train",
            "--corpus", str(workdir / "fixture_corpus.tsv"),
            "--schema", str(workdir / "imdb_subset.json"),
            "--emb", str(workdir / "fixture_embeddings.vec"),
            "--out", str(out),
            "--hidden", "16",
            "--epochs", "8",
            "--switch-epoch", "4",
        ]
    )
    assert status == 0
    return out


def test_train_writes_model_and_history(trained_model_path, workdir):
    assert trained_model_path.exists()
    history = Path(str(trained_model_path) + ".history.csv")
    assert history.exists()
    lines = history.read_text().splitlines()
    assert lines[0] == "epoch,phase,mean_loss,val_accuracy"
    assert len(lines) == 9
    assert lines[1].split(",")[1] == "adadelta"
    assert lines[-1].split(",")[1] == "nadam"


def test_train_determinism_byte_identical(workdir, trained_model_path):
    out2 = workdir / "model2.bin"
    status = run(
        [
            "train",
            "--corpus", str(workdir / "fixture_corpus.tsv"),
            "--schema", str(workdir / "imdb_subset.json"),
            "--emb", str(workdir / "fixture_embeddings.vec"),
            "--out", str(out2),
            "--hidden", "16",
            "--epochs", "8",
            "--switch-epoch", "4",
        ]
    )
    assert status == 0
    assert out2.read_bytes() == trained_model_path.read_bytes()
    assert Path(str(out2) + ".history.csv").read_text() == Path(
        str(trained_model_path) + ".history.csv"
    ).read_text()


def test_tag_subcommand(trained_model_path, workdir, capsys):
    queries = workdir / "queries.txt"
    queries.write_text("who wrote Green Book\n")
    status = run(["tag", "--model", str(trained_model_path), "--input", str(queries)])
    assert status == 0
    out = capsys.readouterr().out
    rows = [line.split("\t") for line in out.strip().splitlines()]
    assert [r[0] for r in rows] == ["who", "wrote", "Green", "Book"]
    assert all(len(r) == 3 for r in rows)


def test_tag_json_format(trained_model_path, workdir, capsys):
    queries = workdir / "queries.txt"
    queries.write_text("who wrote Green Book\n")
    status = run(
        ["--format", "json", "tag", "--model", str(trained_model_path), "--input", str(queries)]
    )
    assert status == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["tokens"] == ["who", "wrote", "Green", "Book"]
    assert len(payload["type_tags"]) == 4


def test_eval_subcommand(trained_model_path, workdir, capsys):
    status = run(
        [
            "--format", "json",
            "eval",
            "--model", str(trained_model_path),
            "--corpus", str(workdir / "fixture_corpus.tsv"),
        ]
    )
    assert status == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["total_tokens"] == 347
    assert 0.0 <= payload["token_accuracy"] <= 1.0


def test_stats_subcommand_with_warning(capsys):
    status = run(
        ["stats", "--schema", str(FIXTURES / "imdb_full.json"), "--expected-tags", "31"]
    )
    assert status == 0
    out = capsys.readouterr().out
    assert "total tables\t17" in out
    assert "nonPK-FK attributes\t14" in out
    assert "derived tags\t33" in out
    assert "WARNING" in out and "31" in out


def test_stats_byte_identical_across_runs(capsys):
    argv = ["--format", "json", "stats", "--schema", str(FIXTURES / "imdb_subset.json")]
    assert run(argv) == 0
    first = capsys.readouterr().out
    assert run(argv) == 0
    assert capsys.readouterr().out == first


def test_translate_from_tagged_file(workdir, capsys):
    status = run(
        [
            "translate",
            "--schema", str(workdir / "imdb_subset.json"),
            "--tagged", str(_tagged_file(workdir)),
        ]
    )
    assert status == 0
    out = capsys.readouterr().out.strip()
    assert out == (
        "SELECT * FROM cast JOIN movie ON cast.movie_id = movie.id "
        "WHERE cast.role = 'John Nash' AND movie.title = 'A Beautiful Mind'"
    )


def _tagged_file(workdir):
    path = workdir / "tagged.tsv"
    rows = []
    for line in (workdir / "table1.tsv").read_text().splitlines():
        token, _, type_tag, schema_tag = line.split("\t")
        rows.append(f"{token}\t{type_tag}\t{schema_tag}")
    path.write_text("\n".join(rows) + "\n")
    return path


def test_translate_reports_inaccurate(workdir, capsys):
    path = workdir / "island.tsv"
    path.write_text("movies\tTABLE\tmovie\npeople\tTABLE\tpeople\n")
    # break the graph: schema without relation tables
    broken = workdir / "broken.json"
    raw = json.loads((workdir / "imdb_subset.json").read_text())
    raw["tables"] = [t for t in raw["tables"] if t["name"] in ("movie", "people")]
    broken.write_text(json.dumps(raw))
    status = run(["translate", "--schema", str(broken), "--tagged", str(path)])
    assert status == 0
    assert capsys.readouterr().out.strip() == "INACCURATE: no join path"


def test_cv_subcommand_tiny(workdir, capsys):
    status = run(
        [
            "cv",
            "--corpus", str(workdir / "fixture_corpus.tsv"),
            "--schema", str(workdir / "imdb_subset.json"),
            "--emb", str(workdir / "fixture_embeddings.vec"),
            "--k", "2",
            "--hidden", "4",
            "--epochs", "2",
            "--switch-epoch", "1",
        ]
    )
    assert status == 0
    out = capsys.readouterr().out
    assert "DBTagger\tfold0" in out and "DBTagger\tmean" in out


def test_bench_subcommand_small(workdir, capsys):
    out_csv = workdir / "bench.csv"
    status = run(
        [
            "bench",
            "--schema", str(workdir / "imdb_subset.json"),
            "--rows", "20,40",
            "--reps", "1",
            "--out", str(out_csv),
        ]
    )
    assert status == 0
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "rows,mapper,median_ms,mem_bytes"
    mappers = {line.split(",")[1] for line in lines[1:]}
    assert mappers == {"scan", "inv_index"}
    assert len(lines) == 1 + 2 * 2


def test_tag_overfit_model_reproduces_table1(overfit_model, workdir, capsys):
    from dbtagger.tagger import save_model

    model, _ = overfit_model
    model_path = workdir / "overfit.bin"
    model_path.write_bytes(save_model(model))
    queries = workdir / "t1.txt"
    queries.write_text("who acted John Nash in the movie A Beautiful Mind\n")
    assert run(["tag", "--model", str(model_path), "--input", str(queries)]) == 0
    rows = [line.split("\t") for line in capsys.readouterr().out.strip().splitlines()]
    want_type = ["O", "TABLEREF", "VALUE", "VALUE", "COND", "O", "TABLE", "VALUE", "VALUE", "VALUE"]
    want_schema = ["O", "cast", "cast.role", "cast.role", "COND", "O", "movie",
                   "movie.title", "movie.title", "movie.title"]
    assert [r[1] for r in rows] == want_type
    assert [r[2] for r in rows] == want_schema


def test_error_paths_exit_nonzero(workdir, capsys):
    status = run(["stats", "--schema", str(workdir / "missing.json")])
    assert status == 1
    assert "error:" in capsys.readouterr().err
    bad = workdir / "bad.tsv"
    bad.write_text("who\tWP\tO\tmovie\n")
    status = run(
        [
            "train",
            "--corpus", str(bad),
            "--schema", str(workdir / "imdb_subset.json"),
            "--emb", str(workdir / "fixture_embeddings.vec"),
            "--out", str(workdir / "nope.bin"),
        ]
    )
    assert status == 1
    assert "type O" in capsys.readouterr().err


@pytest.mark.parametrize(
    "raw, message",
    [
        ("[1, 2]", "schema must be a JSON object"),
        ('{"tables": [{"kind": "entity"}]}', "tables[0] has no 'name'"),
        ('{"tables": [{"name": "movie"}]}', "tables[0] has no 'kind'"),
        ('{"tables": [{"name": "movie", "kind": "entity", "attributes": [{"pk": true}]}]}',
         "tables[0].attributes[0] has no 'name'"),
        ('{"tables": [{"name": "movie", "kind": "entity", "attributes": [{"name": "id", "pk": "false"}]}]}',
         "tables[0].attributes[0].pk must be bool, got str"),
        ('{"tables": [7]}', "tables[0] must be a JSON object"),
        ('{"tables": {"movie": {}}}', "schema.tables must be list"),
    ],
)
def test_stats_rejects_malformed_schema(workdir, capsys, raw, message):
    path = workdir / "malformed.json"
    path.write_text(raw)
    assert run(["stats", "--schema", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and message in captured.err


def test_tag_rejects_model_with_trailing_bytes(trained_model_path, workdir, capsys):
    padded = workdir / "padded.bin"
    padded.write_bytes(trained_model_path.read_bytes() + b"garbage")
    queries = workdir / "queries.txt"
    queries.write_text("who wrote Green Book\n")
    assert run(["tag", "--model", str(padded), "--input", str(queries)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err and "trailing bytes" in captured.err


def test_tag_rejects_version_1_model(trained_model_path, workdir, capsys):
    blob = trained_model_path.read_bytes()
    old = workdir / "v1.bin"
    old.write_bytes(blob[:5] + (1).to_bytes(4, "little") + blob[9:])
    queries = workdir / "queries.txt"
    queries.write_text("who wrote Green Book\n")
    assert run(["tag", "--model", str(old), "--input", str(queries)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err and "unsupported model version 1" in captured.err


def _tag_status(model_blob: bytes, workdir, name: str):
    path = workdir / name
    path.write_bytes(model_blob)
    queries = workdir / "queries.txt"
    queries.write_text("who wrote Green Book\n")
    return run(["tag", "--model", str(path), "--input", str(queries)])


@pytest.mark.parametrize("case", ["hidden 0", "hidden 100000", "300000 POS symbols"])
def test_tag_rejects_model_declaring_sizes_it_does_not_store(
    trained_model_path, workdir, capsys, monkeypatch, case
):
    blob = model_files.crafted(trained_model_path.read_bytes())[case]

    def build(*args, **kwargs):
        raise AssertionError("DBTaggerModel.build was reached")

    monkeypatch.setattr(DBTaggerModel, "build", build)
    assert _tag_status(blob, workdir, "crafted.bin") == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


def test_tag_rejects_model_with_non_finite_values(trained_model_path, workdir, capsys):
    model = load_model(trained_model_path.read_bytes())
    model.heads[2].crf.emit_bias.data[0, 0] = np.nan
    assert _tag_status(save_model(model), workdir, "nan.bin") == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "head.SCHEMA.crf.emit_bias" in captured.err
    model = load_model(trained_model_path.read_bytes())
    token = next(iter(model.embeddings.vectors))
    model.embeddings.vectors[token] = np.full(model.embeddings.dimension, np.inf)
    assert _tag_status(save_model(model), workdir, "inf.bin") == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and repr(token) in captured.err


def test_tag_rejects_model_whose_scores_overflow(trained_model_path, workdir, capsys):
    model = load_model(trained_model_path.read_bytes())
    model.heads[2].crf.transitions.data[:] = 1e308
    with np.errstate(over="ignore"):
        assert _tag_status(save_model(model), workdir, "overflow.bin") == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "not finite" in captured.err


def test_train_rejects_non_finite_embedding(workdir, capsys):
    vectors = workdir / "nan.vec"
    vectors.write_text("2 3\nwho nan 1 2\n")
    status = run(
        [
            "train",
            "--corpus", str(workdir / "fixture_corpus.tsv"),
            "--schema", str(workdir / "imdb_subset.json"),
            "--emb", str(vectors),
            "--out", str(workdir / "never.bin"),
        ]
    )
    assert status == 1
    err = capsys.readouterr().err
    assert "error:" in err and "line 2" in err and "non-finite" in err
    assert not (workdir / "never.bin").exists()


def test_train_rejects_hidden_zero(workdir, capsys):
    status = run(
        [
            "train",
            "--corpus", str(workdir / "fixture_corpus.tsv"),
            "--schema", str(workdir / "imdb_subset.json"),
            "--emb", str(workdir / "fixture_embeddings.vec"),
            "--out", str(workdir / "zero.bin"),
            "--hidden", "0",
        ]
    )
    assert status == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "hidden size must be >= 1" in err
    assert not (workdir / "zero.bin").exists()


def test_bench_rejects_zero_repetitions(workdir, capsys):
    status = run(
        ["bench", "--schema", str(workdir / "imdb_subset.json"), "--rows", "10", "--reps", "0"]
    )
    assert status == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "repetitions must be >= 1" in captured.err
