import sys
from pathlib import Path

import pytest

FIXTURES = Path(__file__).parent / "fixtures"
sys.path.insert(0, str(Path(__file__).parent))

from dbtagger.corpus import parse_corpus
from dbtagger.embeddings import load_embeddings
from dbtagger.schema import ContentSnapshot, load_schema
from dbtagger.training import TrainConfig, fit_variant


def fixture_text(name: str) -> str:
    return (FIXTURES / name).read_text(encoding="utf-8")


@pytest.fixture(scope="session")
def table1_text():
    return fixture_text("table1.tsv")


@pytest.fixture(scope="session")
def table1_query(table1_text):
    return parse_corpus(table1_text).queries[0]


@pytest.fixture(scope="session")
def fixture_corpus():
    return parse_corpus(fixture_text("fixture_corpus.tsv"), name="fixture")


@pytest.fixture(scope="session")
def imdb_subset():
    return load_schema(fixture_text("imdb_subset.json"))


@pytest.fixture(scope="session")
def imdb_full():
    return load_schema(fixture_text("imdb_full.json"))


@pytest.fixture(scope="session")
def yelp_full():
    return load_schema(fixture_text("yelp_full.json"))


@pytest.fixture(scope="session")
def fixture_embeddings():
    return load_embeddings(fixture_text("fixture_embeddings.vec"))


@pytest.fixture(scope="session")
def movie_snapshot(imdb_subset):
    columns = {}
    for name in ("movie", "people", "cast", "written_by"):
        lines = fixture_text(f"snapshot/{name}.tsv").splitlines()
        header, *rows = [line.split("\t") for line in lines]
        columns[name] = {attr: [row[i] for row in rows] for i, attr in enumerate(header)}
    return ContentSnapshot(imdb_subset, columns)


def train_fixture_model(fixture_corpus, imdb_subset, fixture_embeddings, seed=13):
    """Fit the full model on the bundled corpus with the default
    configuration, stopping once training schema accuracy reaches 1.0."""
    config = TrainConfig(epochs=200, switch_epoch=50, seed=seed, stop_at_accuracy=1.0)
    return fit_variant(
        "DBTagger", fixture_corpus, fixture_corpus, imdb_subset, fixture_embeddings, config
    )


@pytest.fixture(scope="session")
def overfit_model(fixture_corpus, imdb_subset, fixture_embeddings):
    """Model trained to memorize the fixture corpus, shared where tests
    need a converged tagger."""
    model, history = train_fixture_model(fixture_corpus, imdb_subset, fixture_embeddings)
    return model, history
