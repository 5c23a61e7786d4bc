"""Alternative tagging architectures benchmarked against the full model:
a plain CRF over word vectors, single-task uni/bi GRU stacks, and the
staged multi-task pipeline where each task consumes the previous task's
predicted tags as one-hot inputs."""

from __future__ import annotations

import numpy as np

from . import numerics as nm
from .corpus import AnnotatedQuery, Dataset, TagLevel, build_tag_vocab
from .embeddings import EmbeddingTable, embed_query
from .numerics import Tape, Tensor
from .schema import Schema, derive_schema_tags
from .tagger import (
    BiGruLayer,
    CrfLayer,
    DBTaggerModel,
    GruCell,
    MaskStream,
    bigru_forward,
    crf_nll,
    gru_sequence,
    viterbi_decode,
)

VARIANTS = ("CRF", "ST_Uni", "ST_Bi", "MT_Seq", "DBTagger")


class SingleTaskTagger:
    """GRU encoder stack (possibly empty) feeding one CRF over one tag level."""

    def __init__(
        self,
        level: TagLevel,
        vocab,
        embeddings: EmbeddingTable,
        encoder: list[tuple[str, object]],
        crf: CrfLayer,
        dropout_rate: float,
        extra_features=None,
    ):
        self.level = level
        self.vocab = vocab
        self.embeddings = embeddings
        self.encoder = encoder  # list of ("uni", GruCell) | ("bi", BiGruLayer)
        self.crf = crf
        self.dropout_rate = dropout_rate
        self.extra_features = extra_features

    def parameters(self) -> list[tuple[str, Tensor]]:
        params = []
        for i, (kind, layer) in enumerate(self.encoder):
            params += layer.parameters(f"enc{i}.{kind}")
        params += self.crf.parameters("crf")
        return params

    def input_matrix(self, tokens: list[str]) -> np.ndarray:
        X = embed_query(self.embeddings, tokens)
        if self.extra_features is not None:
            X = np.hstack([X, self.extra_features(tokens)])
        return X

    def forward(
        self, tokens, mask_stream: MaskStream | None = None, tape: Tape | None = None
    ) -> Tensor:
        """Emissions for one query; dropout applies when a mask stream is
        given, drawing masks layer by layer and the output mask last."""
        train = mask_stream is not None
        current: Tensor | np.ndarray = self.input_matrix(tokens)
        for kind, layer in self.encoder:
            if kind == "bi":
                masks = (
                    (mask_stream.column(layer.hidden_size), mask_stream.column(layer.hidden_size))
                    if train
                    else (None, None)
                )
                current = bigru_forward(layer, current, tape, masks)
            else:
                rec_mask = mask_stream.column(layer.hidden_size) if train else None
                current = gru_sequence(layer, current, tape, rec_mask)
        if not isinstance(current, Tensor):
            current = Tensor(current)
        if train and self.encoder:
            out_mask = mask_stream.row(current.shape[1])
            current = nm.dropout(current, np.tile(out_mask, (len(tokens), 1)), tape)
        return self.crf.emissions(current, tape)

    def query_loss(self, query: AnnotatedQuery, mask_stream: MaskStream | None):
        tape = Tape()
        emissions = self.forward(query.words, mask_stream, tape)
        gold = [self.vocab.index_of(t) for t in query.tags(self.level)]
        return crf_nll(self.crf, emissions, gold, tape), tape

    def predict_tags(self, tokens: list[str]) -> list[str]:
        indices, _ = viterbi_decode(self.crf, self.forward(tokens))
        return [self.vocab.symbols[i] for i in indices]

    def gold_tags(self, query: AnnotatedQuery) -> list[str]:
        return query.tags(self.level)


def _one_hot_features(previous, vocab):
    """Previous-stage predictions as cached one-hot rows."""
    cache: dict[tuple, np.ndarray] = {}

    def extra(tokens: list[str]) -> np.ndarray:
        key = tuple(tokens)
        if key not in cache:
            tags = previous.predict_tags(list(key))
            mat = np.zeros((len(key), vocab.size))
            for i, tag in enumerate(tags):
                mat[i, vocab.index_of(tag)] = 1.0
            cache[key] = mat
        return cache[key]

    return extra


class MtSeqTagger:
    """Three separately trained stages; each later stage sees word vectors
    plus the previous stage's predicted tags."""

    def __init__(self, embeddings, vocabs, hidden, dropout_rate, seed):
        self.embeddings = embeddings
        self.vocabs = vocabs
        self.hidden = hidden
        self.dropout_rate = dropout_rate
        self.seed = seed
        self.stages: dict[TagLevel, SingleTaskTagger] = {}

    def _make_stage(self, level: TagLevel, input_size: int, extra_features, rng) -> SingleTaskTagger:
        u = self.hidden
        encoder = [("bi", BiGruLayer(input_size, u, rng)), ("uni", GruCell(2 * u, u, rng))]
        crf = CrfLayer(self.vocabs[level].size, u, rng)
        return SingleTaskTagger(
            level, self.vocabs[level], self.embeddings, encoder, crf,
            self.dropout_rate, extra_features,
        )

    def fit(self, dataset: Dataset, config, val: Dataset | None = None):
        from .training import train

        rng = np.random.default_rng(config.seed)
        d = self.embeddings.dimension
        order = (TagLevel.POS, TagLevel.TYPE, TagLevel.SCHEMA)
        history = None
        previous = None
        for i, level in enumerate(order):
            if previous is None:
                extra, width = None, 0
            else:
                extra = _one_hot_features(previous, self.vocabs[order[i - 1]])
                width = self.vocabs[order[i - 1]].size
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

    def predict_tags(self, tokens: list[str]) -> list[str]:
        return self.stages[TagLevel.SCHEMA].predict_tags(tokens)

    def gold_tags(self, query: AnnotatedQuery) -> list[str]:
        return query.tags(TagLevel.SCHEMA)


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
    schema_vocab = vocabs[TagLevel.SCHEMA]
    if name == "DBTagger":
        return DBTaggerModel.build(
            embeddings,
            vocabs,
            hidden=u,
            weights=config.task_weights(),
            dropout_rate=config.dropout,
            seed=config.seed,
        )
    if name == "CRF":
        crf = CrfLayer(schema_vocab.size, d, rng)
        return SingleTaskTagger(
            TagLevel.SCHEMA, schema_vocab, embeddings, [], crf, config.dropout
        )
    if name == "ST_Uni":
        encoder = [("uni", GruCell(d, u, rng)), ("uni", GruCell(u, u, rng))]
        crf = CrfLayer(schema_vocab.size, u, rng)
        return SingleTaskTagger(
            TagLevel.SCHEMA, schema_vocab, embeddings, encoder, crf, config.dropout
        )
    if name == "ST_Bi":
        encoder = [("bi", BiGruLayer(d, u, rng)), ("bi", BiGruLayer(2 * u, u, rng))]
        crf = CrfLayer(schema_vocab.size, 2 * u, rng)
        return SingleTaskTagger(
            TagLevel.SCHEMA, schema_vocab, embeddings, encoder, crf, config.dropout
        )
    if name == "MT_Seq":
        return MtSeqTagger(embeddings, vocabs, u, config.dropout, config.seed)
    raise ValueError(f"unknown variant {name!r}; choose from {', '.join(VARIANTS)}")


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
