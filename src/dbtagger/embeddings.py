"""Pre-trained word vectors with a deterministic sub-word fallback.

Lookup order is exact match, lowercase match, then the mean of hashed
character n-gram bucket vectors (n in [3, 6], FNV-1a over the token padded
with ``<`` and ``>``).  Bucket vectors are drawn from a per-bucket seeded
generator so out-of-vocabulary embeddings are reproducible from the file
alone; those of the SUBWORD_MEMO most recently embedded words are memoized.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

DEFAULT_BUCKETS = 1 << 21
DEFAULT_SUBWORD_SEED = 101
NGRAM_MIN = 3
NGRAM_MAX = 6
# Unseen words whose sub-word vector is kept: at most about 1 MB of vectors
# at d = 32 and 10 MB at d = 300.
SUBWORD_MEMO = 4096

_FNV_OFFSET = 2166136261
_FNV_PRIME = 16777619


class EmbeddingFormatError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


def fnv1a(data: bytes) -> int:
    """32-bit FNV-1a hash."""
    h = _FNV_OFFSET
    for byte in data:
        h = ((h ^ byte) * _FNV_PRIME) & 0xFFFFFFFF
    return h


def char_ngrams(token: str) -> list[str]:
    """All character n-grams of the boundary-padded token."""
    padded = f"<{token}>"
    grams = []
    for n in range(NGRAM_MIN, NGRAM_MAX + 1):
        for start in range(0, len(padded) - n + 1):
            grams.append(padded[start : start + n])
    return grams


@lru_cache(maxsize=SUBWORD_MEMO)
def subword_vector(subword_seed: int, bucket_count: int, dimension: int, token: str) -> np.ndarray:
    """Mean of the token's n-gram bucket vectors, read-only.  Module-level,
    so that an EmbeddingTable holds no cache and pickles as it is."""
    grams = char_ngrams(token)
    total = np.zeros(dimension)
    for gram in grams:
        bucket = fnv1a(gram.encode("utf-8")) % bucket_count
        rng = np.random.default_rng([subword_seed, bucket])
        total += rng.uniform(-1.0 / dimension, 1.0 / dimension, dimension)
    total /= len(grams)
    total.flags.writeable = False
    return total


class EmbeddingTable:
    def __init__(
        self,
        dimension: int,
        vectors: dict[str, np.ndarray],
        bucket_count: int = DEFAULT_BUCKETS,
        subword_seed: int = DEFAULT_SUBWORD_SEED,
    ):
        if dimension <= 0:
            raise ValueError(f"dimension must be positive, got {dimension}")
        if not 1 <= bucket_count < 1 << 64:
            raise ValueError(f"bucket count must lie in 1..2^64-1, got {bucket_count}")
        if not 0 <= subword_seed < 1 << 64:
            raise ValueError(f"subword seed must lie in 0..2^64-1, got {subword_seed}")
        self.dimension = dimension
        self.vectors = vectors
        self.bucket_count = bucket_count
        self.subword_seed = subword_seed

    def estimated_bytes(self) -> int:
        stored = sum(len(tok.encode("utf-8")) for tok in self.vectors)
        return stored + len(self.vectors) * self.dimension * 8


def embed_token(table: EmbeddingTable, token: str) -> np.ndarray:
    """Total lookup: exact, then lowercase, then sub-word mean."""
    if not token:
        raise ValueError("cannot embed an empty token")
    vec = table.vectors.get(token)
    if vec is not None:
        return vec
    vec = table.vectors.get(token.lower())
    if vec is not None:
        return vec
    return subword_vector(table.subword_seed, table.bucket_count, table.dimension, token)


def embed_query(table: EmbeddingTable, tokens: list[str]) -> np.ndarray:
    """Stack per-token embeddings into the query's input matrix (n x d)."""
    if not tokens:
        raise ValueError("cannot embed an empty query")
    return np.stack([embed_token(table, t) for t in tokens])


def load_embeddings(text: str) -> EmbeddingTable:
    """Parse the text vector format: ``token v1 ... vd`` per line.

    An optional first line ``count dim`` is accepted, as is a
    ``#subword B=<buckets> seed=<u64>`` line pinning the hash parameters.
    """
    bucket_count = DEFAULT_BUCKETS
    subword_seed = DEFAULT_SUBWORD_SEED
    dimension = None
    vectors: dict[str, np.ndarray] = {}

    body_started = False
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("#"):
            if line.startswith("#subword"):
                for part in line.split()[1:]:
                    key, _, value = part.partition("=")
                    if key not in ("B", "seed"):
                        continue
                    low = 1 if key == "B" else 0
                    if not (value.isdecimal() and low <= int(value) < 1 << 64):
                        raise EmbeddingFormatError(
                            f"#subword {key} must be an integer in {low}..2^64-1, got {value!r}",
                            line=lineno,
                        )
                    if key == "B":
                        bucket_count = int(value)
                    else:
                        subword_seed = int(value)
            continue
        fields = line.split()
        if not body_started and len(fields) == 2:
            try:
                int(fields[0]), int(fields[1])
            except ValueError:
                pass
            else:
                dimension = int(fields[1])
                body_started = True
                continue
        body_started = True
        token, values = fields[0], fields[1:]
        if not values:
            raise EmbeddingFormatError(f"no vector components for token {token!r}", line=lineno)
        try:
            vec = np.array([float(v) for v in values])
        except ValueError:
            raise EmbeddingFormatError(
                f"non-numeric vector component for token {token!r}", line=lineno
            ) from None
        if not np.isfinite(vec).all():
            raise EmbeddingFormatError(
                f"non-finite vector component for token {token!r}", line=lineno
            )
        if dimension is None:
            dimension = len(vec)
        elif len(vec) != dimension:
            raise EmbeddingFormatError(
                f"token {token!r} has {len(vec)} components, expected {dimension}", line=lineno
            )
        vectors[token] = vec

    if not vectors:
        raise EmbeddingFormatError("no vectors found")
    return EmbeddingTable(
        dimension=dimension,
        vectors=vectors,
        bucket_count=bucket_count,
        subword_seed=subword_seed,
    )
