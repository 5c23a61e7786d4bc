"""The paper's ablations as configurations of the tagging network
(``tagger.DBTaggerModel``): a plain CRF over word vectors, single-task
uni/bi GRU stacks, and the staged multi-task pipeline where each task
consumes the previous task's predicted tags as one-hot inputs."""

from __future__ import annotations

import numpy as np

from .corpus import Dataset, TagLevel, build_tag_vocab
from .embeddings import EmbeddingTable
from .numerics import Tensor
from .schema import Schema, derive_schema_tags
from .tagger import (
    HEAD_ORDER,
    BiGruLayer,
    CrfLayer,
    DBTaggerModel,
    GruCell,
    TaskHead,
    TaskWeights,
)

VARIANTS = ("CRF", "ST_Uni", "ST_Bi", "MT_Seq", "DBTagger")


def _single_task(
    level: TagLevel, vocabs, embeddings, encoder, crf: CrfLayer, dropout_rate, extra_features=None
) -> DBTaggerModel:
    """The network with one head at ``level`` whose CRF reads the encoder
    output directly; all of the loss weight sits on that head."""
    weights = TaskWeights(*(float(other == level) for other in HEAD_ORDER))
    head = TaskHead(level, None, crf)
    return DBTaggerModel(embeddings, encoder, [head], vocabs, weights, dropout_rate, extra_features)


def _one_hot_features(previous, vocab):
    """Previous-stage predictions as cached one-hot rows, one matrix per
    sentence of a chunk; the sentences not seen before are decoded together."""
    cache: dict[tuple, np.ndarray] = {}

    def extra(sentences: list[list[str]]) -> list[np.ndarray]:
        new = [key for key in dict.fromkeys(map(tuple, sentences)) if key not in cache]
        if new:
            for key, tags in zip(new, previous.predict_tags([list(k) for k in new])):
                mat = np.zeros((len(key), vocab.size))
                for i, tag in enumerate(tags):
                    mat[i, vocab.index_of(tag)] = 1.0
                cache[key] = mat
        return [cache[tuple(s)] for s in sentences]

    return extra


class MtSeqTagger:
    """Three separately trained stages; each later stage sees word vectors
    plus the previous stage's predicted tags."""

    def __init__(self, embeddings, vocabs, hidden, dropout_rate):
        self.embeddings = embeddings
        self.vocabs = vocabs
        self.hidden = hidden
        self.dropout_rate = dropout_rate
        self.stages: dict[TagLevel, DBTaggerModel] = {}

    def _make_stage(self, level: TagLevel, input_size: int, extra_features, rng) -> DBTaggerModel:
        u = self.hidden
        encoder = [("enc0.bi", BiGruLayer(input_size, u, rng)), ("enc1.uni", GruCell(2 * u, u, rng))]
        crf = CrfLayer(self.vocabs[level].size, u, rng)
        return _single_task(
            level, self.vocabs, self.embeddings, encoder, crf, self.dropout_rate, extra_features
        )

    def fit(self, dataset: Dataset, config, val: Dataset | None = None):
        from .training import train

        rng = np.random.default_rng(config.seed)
        d = self.embeddings.dimension
        history = None
        previous = None
        for i, level in enumerate(HEAD_ORDER):
            if previous is None:
                extra, width = None, 0
            else:
                extra = _one_hot_features(previous, self.vocabs[HEAD_ORDER[i - 1]])
                width = self.vocabs[HEAD_ORDER[i - 1]].size
            stage = self._make_stage(level, d + width, extra, rng)
            history = train(stage, dataset, config, val=val)
            self.stages[level] = stage
            previous = stage
        return history

    def parameters(self) -> list[tuple[str, Tensor]]:
        params = []
        for level, stage in self.stages.items():
            params += [(f"{level.value}.{n}", t) for n, t in stage.parameters()]
        return params

    def predict_tags(self, sentences: list[list[str]]) -> list[list[str]]:
        return self.stages[TagLevel.SCHEMA].predict_tags(sentences)


def build_vocabs(dataset: Dataset, schema: Schema | None):
    """POS/TYPE vocabularies from the corpus, SCHEMA from the schema when
    one is attached (so every derivable tag is predictable)."""
    vocabs = {
        TagLevel.POS: build_tag_vocab(dataset, TagLevel.POS),
        TagLevel.TYPE: build_tag_vocab(dataset, TagLevel.TYPE),
        TagLevel.SCHEMA: (
            derive_schema_tags(schema) if schema is not None
            else build_tag_vocab(dataset, TagLevel.SCHEMA)
        ),
    }
    return vocabs


def make_variant(name: str, vocabs, embeddings: EmbeddingTable, config):
    """Instantiate an untrained variant; MT_Seq defers stage creation to fit."""
    u = config.hidden
    d = embeddings.dimension
    rng = np.random.default_rng(config.seed)
    if name == "DBTagger":
        return DBTaggerModel.build(
            embeddings,
            vocabs,
            hidden=u,
            weights=config.task_weights(),
            dropout_rate=config.dropout,
            seed=config.seed,
        )
    if name == "MT_Seq":
        return MtSeqTagger(embeddings, vocabs, u, config.dropout)
    if name == "CRF":
        encoder, width = [], d
    elif name == "ST_Uni":
        encoder, width = [("enc0.uni", GruCell(d, u, rng)), ("enc1.uni", GruCell(u, u, rng))], u
    elif name == "ST_Bi":
        encoder = [("enc0.bi", BiGruLayer(d, u, rng)), ("enc1.bi", BiGruLayer(2 * u, u, rng))]
        width = 2 * u
    else:
        raise ValueError(f"unknown variant {name!r}; choose from {', '.join(VARIANTS)}")
    crf = CrfLayer(vocabs[TagLevel.SCHEMA].size, width, rng)
    return _single_task(TagLevel.SCHEMA, vocabs, embeddings, encoder, crf, config.dropout)


def fit_variant(name, train_ds: Dataset, full_ds: Dataset, schema, embeddings, config):
    """Build and train one variant; vocabularies come from the full dataset
    plus schema so fold splits cannot strand tags."""
    from .training import train

    vocabs = build_vocabs(full_ds, schema)
    model = make_variant(name, vocabs, embeddings, config)
    if isinstance(model, MtSeqTagger):
        model.fit(train_ds, config)
    else:
        train(model, train_ds, config)
    return model
