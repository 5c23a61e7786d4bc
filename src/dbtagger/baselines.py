"""Unsupervised keyword mappers used as comparison points: tf-idf over an
inverted word-n-gram value index, edit-distance matching against schema
names, embedding cosine similarity, and a capped row scan.

All mappers are pure functions of (index/snapshot, query).  Normalization
for indexing and lookup is ``schema.normalize``: lowercase, punctuation
stripped, whitespace collapsed.  Cells are normalized once, when the
snapshot is built; the index and the scan read that normalized copy, and
only query phrases are normalized here.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass
from itertools import chain
from types import MappingProxyType

import numpy as np

from .embeddings import EmbeddingTable, embed_token
from .schema import ContentSnapshot, Schema, normalize

NGRAM_LIMIT = 3
SCAN_ROW_LIMIT = 2000


def word_ngrams(words: list[str]) -> list[str]:
    """All contiguous word n-grams for n = 1..NGRAM_LIMIT."""
    grams = list(words)
    count = len(words)
    for n in range(2, min(NGRAM_LIMIT, count) + 1):
        for start in range(count - n + 1):
            grams.append(" ".join(words[start : start + n]))
    return grams


@dataclass(frozen=True, slots=True)
class MappingResult:
    start: int
    end: int  # exclusive token index
    target: str
    kind: str  # "relation" | "value"
    score: float

    def __post_init__(self):
        if self.end <= self.start:
            raise ValueError(f"empty span [{self.start}, {self.end})")
        if self.kind not in ("relation", "value"):
            raise ValueError(f"unknown mapping kind {self.kind!r}")


class InvertedValueIndex:
    """Phrase -> {column -> cell frequency} postings over database values.

    tf counts the cells of a column containing the phrase (each cell once);
    df is the number of columns with at least one such cell.
    """

    def __init__(self, postings: dict[str, Mapping[str, int]], columns: tuple[str, ...]):
        self.postings = postings
        self.columns = columns

    def lookup(self, phrase: str) -> Mapping[str, int] | None:
        return self.postings.get(phrase)

    def tfidf(self, phrase: str, column: str) -> float:
        hit = self.postings.get(phrase)
        if not hit or column not in hit:
            return 0.0
        idf = np.log((1 + len(self.columns)) / (1 + len(hit)))
        return hit[column] * float(idf)

    def __len__(self) -> int:
        return len(self.postings)

    def estimated_bytes(self) -> int:
        total = 0
        for phrase, cols in self.postings.items():
            total += len(phrase.encode("utf-8")) + 16 * len(cols)
        total += sum(len(c.encode("utf-8")) for c in self.columns)
        return total


def build_value_index(snapshot: ContentSnapshot, schema: Schema) -> InvertedValueIndex:
    """Index every word n-gram (n <= 3) of every normalized cell value.

    Phrases with equal postings share one read-only ``{column: tf}``
    mapping: the 88,122 phrases of a 10k-row synthetic snapshot of
    imdb_subset have 611 distinct postings.
    """
    # Until the end each phrase maps to its ((column, tf), ...) tuple,
    # interned so that equal tuples are one object while the build runs.
    postings: dict = {}
    interned: dict[tuple, tuple] = {}
    columns = []
    for column, text in snapshot.normalized_text():
        columns.append(column)
        # One set per cell: a cell counts once for each phrase it holds.
        cells = map(set, map(word_ngrams, map(str.split, text.split("\n"))))
        for phrase, tf in Counter(chain.from_iterable(cells)).items():
            key = postings.get(phrase, ()) + ((column, tf),)
            postings[phrase] = interned.setdefault(key, key)
    shared = {key: MappingProxyType(dict(key)) for key in set(postings.values())}
    for phrase, key in postings.items():
        postings[phrase] = shared[key]
    return InvertedValueIndex(postings, tuple(columns))


def _pick_column(hits: Mapping[str, int]) -> str:
    """Biggest tf wins; ties go to the lexicographically smallest column."""
    return min(hits, key=lambda col: (-hits[col], col))


def tfidf_map(index: InvertedValueIndex, tokens: list[str]) -> list[MappingResult]:
    """Longest-first exact phrase lookup over the query's word n-grams;
    shorter matches inside an accepted span are suppressed."""
    n = len(tokens)
    covered = [False] * n
    results = []
    for length in range(NGRAM_LIMIT, 0, -1):
        for start in range(0, n - length + 1):
            end = start + length
            if any(covered[start:end]):
                continue
            phrase = normalize(" ".join(tokens[start:end]))
            if not phrase:
                continue
            hits = index.lookup(phrase)
            if not hits:
                continue
            column = _pick_column(hits)
            results.append(
                MappingResult(
                    start=start,
                    end=end,
                    target=column,
                    kind="value",
                    score=index.tfidf(phrase, column),
                )
            )
            for i in range(start, end):
                covered[i] = True
    return sorted(results, key=lambda r: r.start)


def edit_distance(a: str, b: str) -> int:
    """Classic dynamic-programming Levenshtein distance."""
    if len(a) < len(b):
        a, b = b, a
    previous = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        current = [i]
        for j, cb in enumerate(b, start=1):
            current.append(
                min(previous[j] + 1, current[j - 1] + 1, previous[j - 1] + (ca != cb))
            )
        previous = current
    return previous[-1]


def _name_key(name: str) -> str:
    return name.lower().replace("_", " ")


def edit_distance_relation_map(
    token: str,
    schema: Schema,
    max_distance: int,
    token_index: int = 0,
) -> MappingResult | None:
    """Closest table or attribute name within ``max_distance`` edits
    (case-insensitive, underscores as spaces); ties prefer the shorter
    name, then the lexicographically smaller one.

    Levenshtein distance is at least the difference in length (Ukkonen
    1985), so names whose key length differs from the token's by more than
    ``max_distance`` cannot match and are not compared.
    """
    if not token:
        raise ValueError("cannot match an empty token")
    needle = _name_key(token)
    best = None
    for table in schema.tables:
        names = [table.name] + [attr.name for attr in table.attributes]
        for position, name in enumerate(names):
            key = _name_key(name)
            if abs(len(key) - len(needle)) > max_distance:
                continue
            target = f"{table.name}.{name}" if position else name
            candidate = (edit_distance(needle, key), len(name), name, target)
            if best is None or candidate < best:
                best = candidate
    if best is None or best[0] > max_distance:
        return None
    return MappingResult(
        start=token_index,
        end=token_index + 1,
        target=best[3],
        kind="relation",
        score=float(best[0]),
    )


def embedding_similarity_map(
    table: EmbeddingTable,
    token: str,
    candidates: list[tuple[str, str]],
    threshold: float,
    token_index: int = 0,
) -> MappingResult | None:
    """Highest cosine similarity at or above the threshold wins.

    ``candidates`` are (surface text, target) pairs; multi-word surfaces
    embed as the mean of their word vectors.  A zero vector has similarity
    0 to everything.  Each norm is ``sqrt(x . x)``, which is what
    ``np.linalg.norm`` computes for a 1-D vector.
    """
    if not 0.0 < threshold <= 1.0:
        raise ValueError(f"threshold must be in (0, 1], got {threshold}")
    vec = embed_token(table, token)
    vec_norm = math.sqrt(vec.dot(vec))
    best = None
    for surface, target in candidates:
        words = _name_key(surface).split()
        if not words:
            continue
        if len(words) == 1:
            cand_vec = embed_token(table, words[0])  # the mean of one row is that row
        else:
            cand_vec = np.mean([embed_token(table, w) for w in words], axis=0)
        norm = vec_norm * math.sqrt(cand_vec.dot(cand_vec))
        sim = 0.0 if norm == 0.0 else float(np.dot(vec, cand_vec)) / norm
        key = (-sim, target)
        if best is None or key < best[0]:
            best = (key, sim, target)
    if best is None or best[1] < threshold:
        return None
    return MappingResult(
        start=token_index, end=token_index + 1, target=best[2], kind="relation", score=best[1]
    )


def _matching_rows(text: str, needle: str) -> int:
    """Lines of ``text`` that contain ``needle``, at most ``SCAN_ROW_LIMIT``.

    The needle holds no newline, so each hit lies inside one line; after a
    hit the search resumes at the next line, which counts every row once.
    """
    count = 0
    at = text.find(needle)
    while at >= 0:
        count += 1
        if count >= SCAN_ROW_LIMIT:
            break
        at = text.find("\n", at + len(needle))
        if at >= 0:
            at = text.find(needle, at + 1)
    return count


def scan_map(
    snapshot: ContentSnapshot, token_ngrams: list[tuple[int, int, str]]
) -> list[MappingResult]:
    """Substring scan of every text column per query n-gram, counting at
    most ``SCAN_ROW_LIMIT`` matching rows per column; the column with the most
    matches wins, ties to the lexicographically smaller name."""
    results = []
    for start, end, phrase in token_ngrams:
        needle = normalize(phrase)
        if not needle:
            continue
        hits: dict[str, int] = {}
        for column, text in snapshot.normalized_text():
            count = _matching_rows(text, needle)
            if count:
                hits[column] = count
        if hits:
            column = _pick_column(hits)
            results.append(
                MappingResult(
                    start=start, end=end, target=column, kind="value", score=float(hits[column])
                )
            )
    return results
