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
    fresh_crf,
    fresh_gru,
)

VARIANTS = ("CRF", "ST_Uni", "ST_Bi", "MT_Seq", "DBTagger")


def _single_task(
    level: TagLevel, vocabs, embeddings, encoder, crf, dropout_rate, previous=None
) -> DBTaggerModel:
    """The network with one head at ``level`` whose CRF reads the encoder
    output directly; all of the loss weight sits on that head."""
    weights = TaskWeights(*(float(other == level) for other in HEAD_ORDER))
    head = TaskHead(level, None, crf)
    return DBTaggerModel(embeddings, encoder, [head], vocabs, weights, dropout_rate, previous)


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

    def layer(width: int, cells: int):  # a forward cell, then a reverse one
        return tuple(fresh_gru(width, u, rng) for _ in range(cells))

    if name == "DBTagger":
        weights, rate = config.task_weights(), config.dropout
        return [DBTaggerModel.build(embeddings, vocabs, u, weights, rate, seed=config.seed)]
    if name == "MT_Seq":
        stages = []
        for level in HEAD_ORDER:
            previous = stages[-1] if stages else None
            width = d + (previous.tag_vocab.size if previous else 0)
            encoder = [("enc0.bi", layer(width, 2)), ("enc1.uni", layer(2 * u, 1))]
            crf = fresh_crf(vocabs[level].size, u, rng)
            stage = _single_task(level, vocabs, embeddings, encoder, crf, config.dropout, previous)
            stages.append(stage)
        return stages
    if name == "CRF":
        encoder, width = [], d
    elif name == "ST_Uni":
        encoder, width = [("enc0.uni", layer(d, 1)), ("enc1.uni", layer(u, 1))], u
    elif name == "ST_Bi":
        encoder, width = [("enc0.bi", layer(d, 2)), ("enc1.bi", layer(2 * u, 2))], 2 * u
    else:
        raise ValueError(f"unknown variant {name!r}; choose from {', '.join(VARIANTS)}")
    crf = fresh_crf(vocabs[TagLevel.SCHEMA].size, width, rng)
    return [_single_task(TagLevel.SCHEMA, vocabs, embeddings, encoder, crf, config.dropout)]
