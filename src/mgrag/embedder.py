"""Deterministic hashed-feature text embeddings, one keyed variant per layer.

Features are lowercase word unigrams plus character n-grams; each feature is
hashed with a layer-salted key to a signed slot, counts are accumulated, and
the vector is L2-normalized.  No model weights, so every downstream number
is reproducible from text alone.

A feature's slot and sign are a pure function of the feature, the key and
the dimension, so they are memoized: one table per (key, dim) maps a feature
to ``2 * slot + sign_bit``.  A table is cleared when it reaches
``_MEMO_CAP`` entries, which bounds its memory on text that rarely repeats a
feature.  The counts are summed with one ``np.bincount``; integer counts are
exact in float64, so the memo changes no bit of any vector.
"""

from __future__ import annotations

import hashlib
import math
import re
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ConfigError

_WORD_RE = re.compile(r"[a-z0-9]+")
_MASK64 = (1 << 64) - 1
# odd 64-bit multiplier; layer * stride mod 2^64 gives distinct salts for layers 1..5
_SALT_STRIDE = 0x9E3779B97F4A7C15


@dataclass(frozen=True)
class EmbedderSpec:
    """Embedding hyperparameters; ``shared_phi`` collapses all layer salts."""

    dim: int = 256
    ngram_min: int = 3
    ngram_max: int = 5
    hash_seed: int = 0
    shared_phi: bool = False

    def __post_init__(self):
        if self.dim < 8:
            raise ConfigError(f"embedding dim must be >= 8, got {self.dim}")
        if not 1 <= self.ngram_min <= self.ngram_max:
            raise ConfigError(
                f"bad n-gram range ({self.ngram_min}, {self.ngram_max})"
            )
        if self.hash_seed < 0:
            raise ConfigError("hash_seed must be non-negative")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "EmbedderSpec":
        return cls(**data)


def layer_salt(layer: int, spec: EmbedderSpec) -> int:
    return 0 if spec.shared_phi else (layer * _SALT_STRIDE) & _MASK64


def _features(text: str, spec: EmbedderSpec) -> list[bytes]:
    """Word unigrams (``w:``) and character n-grams (``g:``), as ASCII bytes."""
    # every matched character is [a-z0-9], so the joined words encode once as ASCII
    joined = " ".join(_WORD_RE.findall(text.lower())).encode("ascii")
    features = [b"w:" + word for word in joined.split()]
    for n in range(spec.ngram_min, spec.ngram_max + 1):
        features += [b"g:" + joined[i : i + n] for i in range(len(joined) - n + 1)]
    return features


_MEMO_CAP = 8192  # entries per table; a full table is cleared
_MEMO_TABLES = 64  # tables kept, one per (key, dim); all are dropped past this
_memo: dict[tuple[bytes, int], tuple[dict[bytes, int], hashlib.blake2b]] = {}


def _codes(features: list[bytes], key: bytes, dim: int) -> list[int]:
    """``2 * slot + sign_bit`` for each feature, memoized per (key, dim)."""
    table = _memo.get((key, dim))
    if table is None:
        if len(_memo) >= _MEMO_TABLES:
            _memo.clear()
        # the keyed state after the key block; copying it skips that block per hash
        table = _memo[(key, dim)] = ({}, hashlib.blake2b(key=key, digest_size=8))
    memo, base = table
    codes = list(map(memo.get, features))
    if None not in codes:
        return codes
    for i, code in enumerate(codes):
        if code is None:
            feature = features[i]
            code = memo.get(feature)  # a repeat of a miss earlier in this text
            if code is None:
                if len(memo) >= _MEMO_CAP:
                    memo.clear()
                state = base.copy()
                state.update(feature)
                h = int.from_bytes(state.digest(), "little")
                code = memo[feature] = ((h >> 1) % dim) * 2 + (h & 1)
            codes[i] = code
    return codes


def embed(text: str, layer: int, spec: EmbedderSpec = EmbedderSpec()) -> np.ndarray:
    """Embed ``text`` for one layer; a zero vector marks degenerate input.

    Degenerate means the text yielded no features (e.g. punctuation only);
    callers detect it with :func:`is_degenerate` and skip the unit.
    """
    if layer < 1:
        raise ValueError(f"layer must be >= 1, got {layer}")
    features = _features(text, spec)
    if not features:
        return np.zeros(spec.dim, dtype=np.float64)
    key = ((spec.hash_seed ^ layer_salt(layer, spec)) & _MASK64).to_bytes(8, "little")
    counts = np.bincount(_codes(features, key, spec.dim), minlength=2 * spec.dim)
    # odd codes are the +1 features of a slot, even codes its -1 features
    vec = (counts[1::2] - counts[0::2]).astype(np.float64)
    norm = math.sqrt(float(vec @ vec))
    if norm == 0.0:
        return vec
    return vec / norm


def is_degenerate(vec: np.ndarray) -> bool:
    return not np.any(vec)

