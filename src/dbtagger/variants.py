"""The paper's ablations as configurations of the tagging network
(``tagger.DBTaggerModel``): a plain CRF over word vectors, single-task
uni/bi GRU stacks, and the staged multi-task pipeline where each task
consumes the previous task's predicted tags as one-hot inputs.  A variant
is the list of networks ("stages") that ``training.fit_variant`` trains in
turn."""

from __future__ import annotations

import numpy as np

from .corpus import Dataset, TagLevel, build_tag_vocab
from .embeddings import EmbeddingTable
from .schema import Schema, derive_schema_tags
from .tagger import (
    HEAD_ORDER,
    DBTaggerModel,
    TaskHead,
    TaskWeights,
    fresh_bigru,
    fresh_crf,
    fresh_gru,
)

VARIANTS = ("CRF", "ST_Uni", "ST_Bi", "MT_Seq", "DBTagger")


def _single_task(
    level: TagLevel, vocabs, embeddings, encoder, crf, dropout_rate, extra_features=None
) -> DBTaggerModel:
    """The network with one head at ``level`` whose CRF reads the encoder
    output directly; all of the loss weight sits on that head."""
    weights = TaskWeights(*(float(other == level) for other in HEAD_ORDER))
    head = TaskHead(level, None, crf)
    return DBTaggerModel(embeddings, encoder, [head], vocabs, weights, dropout_rate, extra_features)


def _one_hot_features(previous: DBTaggerModel, vocab):
    """The extra features of an MT_Seq stage: the previous stage's predicted
    tags as one-hot rows, as a (width, function) pair.  Each sentence's
    predictions are cached on its first use, so the previous stage must be
    trained before this stage first runs; the sentences not seen before are
    decoded together."""
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

    return vocab.size, extra


def build_vocabs(dataset: Dataset, schema: Schema):
    """POS/TYPE vocabularies from the corpus, SCHEMA from the schema (so
    every derivable tag is predictable)."""
    return {
        TagLevel.POS: build_tag_vocab(dataset, TagLevel.POS),
        TagLevel.TYPE: build_tag_vocab(dataset, TagLevel.TYPE),
        TagLevel.SCHEMA: derive_schema_tags(schema),
    }


def make_variant(name: str, vocabs, embeddings: EmbeddingTable, config) -> list[DBTaggerModel]:
    """The untrained stages of a variant, to be trained in order; the last
    one tags.  MT_Seq has a POS, a TYPE and a SCHEMA stage, each later one
    reading word vectors plus the previous stage's predicted tags; the other
    variants have one stage."""
    u = config.hidden
    d = embeddings.dimension
    rng = np.random.default_rng(config.seed)
    if name == "DBTagger":
        weights, rate = config.task_weights(), config.dropout
        return [DBTaggerModel.build(embeddings, vocabs, u, weights, rate, seed=config.seed)]
    if name == "MT_Seq":
        stages, extra = [], None
        for level in HEAD_ORDER:
            width = d if extra is None else d + extra[0]
            bi, uni = fresh_bigru(width, u, rng), fresh_gru(2 * u, u, rng)
            crf = fresh_crf(vocabs[level].size, u, rng)
            encoder = [("enc0.bi", bi), ("enc1.uni", uni)]
            stage = _single_task(level, vocabs, embeddings, encoder, crf, config.dropout, extra)
            stages.append(stage)
            extra = _one_hot_features(stage, vocabs[level])
        return stages
    if name == "CRF":
        encoder, width = [], d
    elif name == "ST_Uni":
        encoder, width = [("enc0.uni", fresh_gru(d, u, rng)), ("enc1.uni", fresh_gru(u, u, rng))], u
    elif name == "ST_Bi":
        encoder = [("enc0.bi", fresh_bigru(d, u, rng)), ("enc1.bi", fresh_bigru(2 * u, u, rng))]
        width = 2 * u
    else:
        raise ValueError(f"unknown variant {name!r}; choose from {', '.join(VARIANTS)}")
    crf = fresh_crf(vocabs[TagLevel.SCHEMA].size, width, rng)
    return [_single_task(TagLevel.SCHEMA, vocabs, embeddings, encoder, crf, config.dropout)]
