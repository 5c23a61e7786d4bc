"""Reading, validating and splitting three-level annotated query logs.

The on-disk format is CoNLL style: one token per line as
``token<TAB>pos<TAB>type<TAB>schema``, a blank line ending each query,
``#`` starting a comment line.  Datasets and vocabularies are immutable
after construction.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Iterable

TYPE_TAGS = frozenset({"TABLE", "TABLEREF", "ATTR", "ATTRREF", "VALUE", "COND", "O"})

RELATION_TYPE_TAGS = frozenset({"TABLE", "TABLEREF", "ATTR", "ATTRREF"})


class TagLevel(str, Enum):
    POS = "POS"
    TYPE = "TYPE"
    SCHEMA = "SCHEMA"


class CorpusError(ValueError):
    """Malformed or inconsistent corpus input, with the offending line."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


def check_tag_pair(text: str, type_tag: str, schema_tag: str) -> None:
    """Raise CorpusError unless ``type_tag`` is a known type tag that may
    label a token with ``schema_tag``: O pairs only with O, COND only with
    COND, and VALUE only with a qualified ``table.attribute``."""
    if type_tag not in TYPE_TAGS:
        raise CorpusError(f"unknown type tag {type_tag!r} on token {text!r}")
    if type_tag == "O" and schema_tag != "O":
        raise CorpusError(f"token {text!r} has type O but schema tag {schema_tag!r} (must be O)")
    if type_tag == "COND" and schema_tag != "COND":
        raise CorpusError(
            f"token {text!r} has type COND but schema tag {schema_tag!r} (must be COND)"
        )
    if type_tag == "VALUE" and "." not in schema_tag:
        raise CorpusError(
            f"token {text!r} has type VALUE but schema tag {schema_tag!r} "
            "does not name a qualified attribute"
        )


@dataclass(frozen=True)
class Token:
    text: str
    pos: str
    type_tag: str
    schema_tag: str

    def __post_init__(self):
        if not self.text or any(c.isspace() for c in self.text):
            raise CorpusError(f"token text must be non-empty without whitespace, got {self.text!r}")
        if not self.pos:
            raise CorpusError(f"empty POS tag on token {self.text!r}")
        check_tag_pair(self.text, self.type_tag, self.schema_tag)

    def tag(self, level: TagLevel) -> str:
        if level is TagLevel.POS:
            return self.pos
        if level is TagLevel.TYPE:
            return self.type_tag
        return self.schema_tag


@dataclass(frozen=True)
class AnnotatedQuery:
    tokens: tuple[Token, ...]

    def __post_init__(self):
        if len(self.tokens) < 1:
            raise CorpusError("a query must contain at least one token")

    def __len__(self) -> int:
        return len(self.tokens)

    @property
    def words(self) -> list[str]:
        return [t.text for t in self.tokens]

    def tags(self, level: TagLevel) -> list[str]:
        return [t.tag(level) for t in self.tokens]


@dataclass(frozen=True)
class Dataset:
    queries: tuple[AnnotatedQuery, ...]
    name: str = "corpus"

    def __post_init__(self):
        if not self.queries:
            raise CorpusError("no queries")

    def __len__(self) -> int:
        return len(self.queries)


@dataclass(frozen=True)
class TagVocab:
    """Dense symbol<->index mapping for one tag level.

    Indices run 0..k-1 over the observed symbols in sorted order; the
    boundary symbols START/STOP live at k and k+1 and are never emitted.
    """

    level: TagLevel
    symbols: tuple[str, ...]

    @classmethod
    def from_symbols(cls, level: TagLevel, symbols: Iterable[str]) -> "TagVocab":
        return cls(level=level, symbols=tuple(sorted(set(symbols))))

    @property
    def size(self) -> int:
        return len(self.symbols)

    def index_of(self, symbol: str) -> int:
        try:
            return self._index[symbol]
        except KeyError:
            raise KeyError(f"tag {symbol!r} not in {self.level.value} vocabulary") from None

    @cached_property
    def _index(self) -> dict[str, int]:
        return {s: i for i, s in enumerate(self.symbols)}


def canonical_schema_tag(raw: str) -> str:
    """COND and O are canonicalized case-insensitively; all else untouched."""
    if raw.upper() == "COND":
        return "COND"
    if raw.upper() == "O":
        return "O"
    return raw


def parse_corpus(text: str, name: str = "corpus") -> Dataset:
    """Parse the tab-separated corpus format into a validated Dataset.

    Every diagnostic carries the 1-based line number it was raised for.
    """
    queries: list[AnnotatedQuery] = []
    current: list[Token] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if line.startswith("#"):
            continue
        if not line.strip():
            if current:
                queries.append(AnnotatedQuery(tokens=tuple(current)))
                current = []
            continue
        cols = line.split("\t")
        if len(cols) != 4:
            raise CorpusError(f"expected 4 tab-separated columns, got {len(cols)}", line=lineno)
        text, pos, type_tag, schema_tag = (c.strip() for c in cols)
        try:
            token = Token(
                text=text,
                pos=pos,
                type_tag=type_tag,
                schema_tag=canonical_schema_tag(schema_tag),
            )
        except CorpusError as exc:
            raise CorpusError(str(exc), line=lineno) from None
        current.append(token)
    if current:
        queries.append(AnnotatedQuery(tokens=tuple(current)))
    if not queries:
        raise CorpusError("no queries")
    return Dataset(queries=tuple(queries), name=name)


def serialize(dataset: Dataset) -> str:
    """Inverse of parse_corpus, emitting the canonical form of every tag."""
    blocks = []
    for query in dataset.queries:
        blocks.append(
            "\n".join(f"{t.text}\t{t.pos}\t{t.type_tag}\t{t.schema_tag}" for t in query.tokens)
        )
    return "\n\n".join(blocks) + "\n"


def build_tag_vocab(dataset: Dataset, level: TagLevel) -> TagVocab:
    return TagVocab.from_symbols(level, (t.tag(level) for q in dataset.queries for t in q.tokens))


def validate_against_vocab(dataset: Dataset, vocab: TagVocab) -> None:
    """Check every tag of the vocab's level is contained in the vocabulary."""
    missing = sorted(
        {t.tag(vocab.level) for q in dataset.queries for t in q.tokens} - set(vocab.symbols)
    )
    if missing:
        raise CorpusError(
            f"{vocab.level.value} tags not covered by the vocabulary: {', '.join(missing)}"
        )


def split_folds(dataset: Dataset, k: int, seed: int) -> list[tuple[Dataset, Dataset]]:
    """Deterministic k-fold split at query granularity.

    Queries are shuffled with a seeded permutation and dealt round-robin,
    so the test folds partition the dataset with sizes differing by at
    most one.
    """
    n = len(dataset.queries)
    if k < 2:
        raise ValueError(f"need at least 2 folds, got {k}")
    if k > n:
        raise ValueError(f"cannot split {n} queries into {k} folds")
    order = list(dataset.queries)
    random.Random(seed).shuffle(order)
    pairs = []
    for i in range(k):
        test = [q for j, q in enumerate(order) if j % k == i]
        train = [q for j, q in enumerate(order) if j % k != i]
        pairs.append(
            (
                Dataset(queries=tuple(train), name=f"{dataset.name}-fold{i}-train"),
                Dataset(queries=tuple(test), name=f"{dataset.name}-fold{i}-test"),
            )
        )
    return pairs


def train_val_split(dataset: Dataset, seed: int) -> tuple[Dataset, Dataset]:
    """Split into train/validation with a 5-1 ratio, |val| = round(n/6)."""
    n = len(dataset.queries)
    if n < 6:
        raise ValueError(f"need at least 6 queries for a 5-1 split, got {n}")
    val_size = int(n / 6 + 0.5)
    order = list(dataset.queries)
    random.Random(seed).shuffle(order)
    val = order[:val_size]
    train = order[val_size:]
    return (
        Dataset(queries=tuple(train), name=f"{dataset.name}-train"),
        Dataset(queries=tuple(val), name=f"{dataset.name}-val"),
    )
