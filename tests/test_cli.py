import json
import shutil
from pathlib import Path

import numpy as np
import pytest

import model_files
from conftest import FIXTURES
from dbtagger import cli, training
from dbtagger.cli import run
from dbtagger.evaluation import MetricsReport
from dbtagger.tagger import DBTaggerModel, load_model, save_model
from dbtagger.training import TrainConfig


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


@pytest.mark.parametrize("flag", ["--out", "--history"])
def test_train_checks_its_output_directories_before_fitting(flag, workdir, monkeypatch, capsys):
    fits = []
    monkeypatch.setattr(cli, "fit_variant", lambda *args, **kwargs: fits.append(args))
    paths = {"--out": workdir / "unwritten.bin", "--history": workdir / "unwritten.csv"}
    paths[flag] = workdir / "missing" / "m.bin"
    status = run(
        [
            "train",
            "--corpus", str(workdir / "fixture_corpus.tsv"),
            "--schema", str(workdir / "imdb_subset.json"),
            "--emb", str(workdir / "fixture_embeddings.vec"),
            *(arg for pair in paths.items() for arg in (pair[0], str(pair[1]))),
        ]
    )
    err = capsys.readouterr().err
    assert status == 1 and fits == []
    assert err.startswith("error:") and len(err.splitlines()) == 1 and "missing" in err
    assert not any(path.exists() for path in paths.values())


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


def test_train_and_cv_flags_default_to_train_config(workdir, monkeypatch, capsys):
    seen = []

    def fake_train(model, dataset, config, val=None):
        seen.append(config)
        return []

    def fake_cross_validate(dataset, schema, embeddings, config, k, variant):
        seen.append(config)
        return [], MetricsReport(1.0, 1.0, 1.0, 1.0)

    monkeypatch.setattr(training, "train", fake_train)
    monkeypatch.setattr(cli, "cross_validate", fake_cross_validate)
    inputs = [
        "--corpus", str(workdir / "fixture_corpus.tsv"),
        "--schema", str(workdir / "imdb_subset.json"),
        "--emb", str(workdir / "fixture_embeddings.vec"),
    ]
    out = ["--out", str(workdir / "untrained.bin")]
    assert run(["train", *inputs, *out]) == 0
    assert run(["train", *inputs, *out, "--patience", "2"]) == 0
    assert run(["cv", *inputs]) == 0
    assert run(["--seed", "5", "cv", *inputs, "--dropout", "0.25", "--weights", "0,0.5,0.5"]) == 0
    capsys.readouterr()
    assert seen == [
        TrainConfig(),
        TrainConfig(patience=2),
        TrainConfig(),
        TrainConfig(seed=5, dropout=0.25, weights=(0.0, 0.5, 0.5)),
    ]


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


IMDB_FULL_WARNING = (
    "derived tag count 33 differs from the expected count 31; reporting both, not reconciling"
)


@pytest.mark.parametrize(
    "argv, expected",
    [
        (
            ["stats", "--schema", str(FIXTURES / "imdb_full.json"), "--expected-tags", "31"],
            "schema\timdb\n"
            "entity tables\t6\n"
            "relation tables\t11\n"
            "total tables\t17\n"
            "total attributes\t55\n"
            "nonPK-FK attributes\t14\n"
            "derived tags\t33\n"
            "expected tags\t31\n"
            f"WARNING\t{IMDB_FULL_WARNING}\n",
        ),
        (
            ["--format", "json", "stats", "--schema", str(FIXTURES / "imdb_full.json"),
             "--expected-tags", "31"],
            '{"derived_tags": 33, "entity_tables": 6, "expected_tags": 31, '
            '"nonPK_FK_attributes": 14, "relation_tables": 11, "schema": "imdb", '
            f'"total_attributes": 55, "total_tables": 17, "warning": "{IMDB_FULL_WARNING}"}}\n',
        ),
        (
            ["stats", "--schema", str(FIXTURES / "imdb_subset.json")],
            "schema\timdb_subset\n"
            "entity tables\t2\n"
            "relation tables\t2\n"
            "total tables\t4\n"
            "total attributes\t10\n"
            "nonPK-FK attributes\t4\n"
            "derived tags\t10\n",
        ),
        (
            ["--format", "json", "stats", "--schema", str(FIXTURES / "imdb_subset.json")],
            '{"derived_tags": 10, "entity_tables": 2, "expected_tags": null, '
            '"nonPK_FK_attributes": 4, "relation_tables": 2, "schema": "imdb_subset", '
            '"total_attributes": 10, "total_tables": 4, "warning": null}\n',
        ),
    ],
    ids=["full-text", "full-json", "subset-text", "subset-json"],
)
def test_stats_exact_stdout(capsys, argv, expected):
    assert run(argv) == 0
    assert capsys.readouterr().out == expected


def test_format_is_text_or_json(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["--format", "tsv", "stats", "--schema", str(FIXTURES / "imdb_subset.json")])
    assert exc.value.code == 2
    assert "invalid choice: 'tsv'" in capsys.readouterr().err


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


def test_translate_rejects_an_unknown_type_tag(workdir, capsys):
    path = workdir / "unknown_type.tsv"
    path.write_text("movie\tTABLE\tmovie\nby\tO\tO\nNolan\tVALUEX\tpeople.name\n")
    schema = workdir / "imdb_subset.json"
    status = run(["translate", "--schema", str(schema), "--tagged", str(path)])
    assert status == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: line 3: unknown type tag 'VALUEX' on token 'Nolan'\n"


@pytest.mark.parametrize("row", ["title\tATTR\tmovie", "movie\tTABLE\tmovie.title"])
def test_translate_rejects_a_relation_tag_of_the_wrong_shape(workdir, capsys, row):
    path = workdir / "wrong_shape.tsv"
    path.write_text(row + "\n")
    schema = workdir / "imdb_subset.json"
    status = run(["translate", "--schema", str(schema), "--tagged", str(path)])
    assert status == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: line 1: token ")


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


@pytest.mark.parametrize("raw", ["abc", "0", "-2"])
def test_cv_rejects_a_malformed_thread_count(workdir, capsys, monkeypatch, raw):
    monkeypatch.setenv("DBTAG_THREADS", raw)
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
    assert status == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: DBTAG_THREADS") and repr(raw) in captured.err


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


@pytest.mark.parametrize("name", ["", "a.b", "x y", 'q"t', "1a"])
@pytest.mark.parametrize("where", ["tables[0]", "tables[0].attributes[0]"])
def test_stats_rejects_a_name_that_is_not_an_identifier(workdir, capsys, where, name):
    table, attribute = (name, "x") if where == "tables[0]" else ("t", name)
    raw = {"tables": [{"name": table, "kind": "entity", "attributes": [{"name": attribute}]}]}
    path = workdir / "bad_name.json"
    path.write_text(json.dumps(raw))
    assert run(["stats", "--schema", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {where}: ")
    assert f"name {name!r} is not a plain identifier" in captured.err


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
    # eval decodes through the same path and refuses to score the tags
    corpus = str(workdir / "fixture_corpus.tsv")
    with np.errstate(over="ignore"):
        assert run(["eval", "--model", str(workdir / "overflow.bin"), "--corpus", corpus]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "not finite" in captured.err


@pytest.mark.parametrize("rate", [float("nan"), float("inf"), 1.5, -3.0])
def test_tag_rejects_model_with_dropout_rate_outside_0_1(trained_model_path, workdir, capsys, rate):
    blob = model_files.with_dropout_rate(trained_model_path.read_bytes(), rate)
    assert _tag_status(blob, workdir, "dropout.bin") == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "dropout rate" in captured.err


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


def test_train_rejects_negative_patience(workdir, capsys):
    status = run(
        [
            "train",
            "--corpus", str(workdir / "fixture_corpus.tsv"),
            "--schema", str(workdir / "imdb_subset.json"),
            "--emb", str(workdir / "fixture_embeddings.vec"),
            "--out", str(workdir / "impatient.bin"),
            "--patience", "-1",
        ]
    )
    assert status == 1
    assert capsys.readouterr().err == "error: patience must be >= 0, got -1\n"
    assert not (workdir / "impatient.bin").exists()


@pytest.mark.parametrize(
    "command, threads",
    [
        (["train", "--out", "never.bin"], "1"),
        (["cv"], "1"),
        (["cv", "--variant", "all"], "1"),
        (["cv", "--variant", "all"], "2"),
    ],
    ids=["train", "cv", "cv-all", "cv-all-2-workers"],
)
def test_train_and_cv_refuse_a_schema_tag_the_schema_cannot_derive(
    workdir, tmp_path, capsys, monkeypatch, command, threads
):
    corpus = tmp_path / "nosuch.tsv"
    text = (workdir / "fixture_corpus.tsv").read_text(encoding="utf-8")
    corpus.write_text(text.replace("movie.title", "movie.nosuch"), encoding="utf-8")
    monkeypatch.setenv("DBTAG_THREADS", threads)
    monkeypatch.chdir(tmp_path)
    status = run(
        [
            *command,
            "--corpus", str(corpus),
            "--schema", str(workdir / "imdb_subset.json"),
            "--emb", str(workdir / "fixture_embeddings.vec"),
            "--hidden", "4",
            "--epochs", "2",
            "--switch-epoch", "1",
        ]
    )
    assert status == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: SCHEMA tags not covered by the vocabulary: movie.nosuch\n"
    assert not (tmp_path / "never.bin").exists()


def test_bench_rejects_zero_repetitions(workdir, capsys):
    status = run(
        ["bench", "--schema", str(workdir / "imdb_subset.json"), "--rows", "10", "--reps", "0"]
    )
    assert status == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "repetitions must be >= 1" in captured.err


@pytest.mark.parametrize("rows, least", [("-3", "-3"), ("0", "0"), ("20,0", "0"), (",", "none")])
def test_bench_rejects_a_row_count_below_one(workdir, capsys, rows, least):
    out_csv = workdir / "never.csv"
    status = run(
        ["bench", "--schema", str(workdir / "imdb_subset.json"), "--rows", rows,
         "--out", str(out_csv)]
    )
    assert status == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: row counts must be >= 1, got {least}\n"
    assert not out_csv.exists()


def test_stats_rejects_a_negative_expected_tag_count(capsys):
    status = run(
        ["stats", "--schema", str(FIXTURES / "imdb_full.json"), "--expected-tags", "-4"]
    )
    assert status == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: expected tag count must be >= 0, got -4\n"


@pytest.mark.parametrize("command", ["train", "stats"])
def test_negative_seed_is_refused_naming_the_flag(workdir, capsys, command):
    args = {
        "train": [
            "train",
            "--corpus", str(workdir / "fixture_corpus.tsv"),
            "--schema", str(workdir / "imdb_subset.json"),
            "--emb", str(workdir / "fixture_embeddings.vec"),
            "--out", str(workdir / "seedless.bin"),
        ],
        "stats": ["stats", "--schema", str(workdir / "imdb_subset.json")],
    }[command]
    status = run(["--seed", "-1", *args])
    assert status == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --seed must be >= 0, got -1\n"
    assert not (workdir / "seedless.bin").exists()
