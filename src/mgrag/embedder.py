"""Deterministic hashed-feature text embeddings, one keyed variant per layer.

Features are lowercase word unigrams plus character n-grams; each feature is
hashed with a layer-salted key to a signed slot, counts are accumulated, and
the vector is L2-normalized.  No model weights, so every downstream number
is reproducible from text alone.
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


def _features(text: str, spec: EmbedderSpec):
    words = _WORD_RE.findall(text.lower())
    for word in words:
        yield "w:" + word
    joined = " ".join(words)
    for n in range(spec.ngram_min, spec.ngram_max + 1):
        for i in range(len(joined) - n + 1):
            yield "g:" + joined[i : i + n]


def embed(text: str, layer: int, spec: EmbedderSpec = EmbedderSpec()) -> np.ndarray:
    """Embed ``text`` for one layer; a zero vector marks degenerate input.

    Degenerate means the text yielded no features (e.g. punctuation only);
    callers detect it with :func:`is_degenerate` and skip the unit.
    """
    if layer < 1:
        raise ValueError(f"layer must be >= 1, got {layer}")
    key = ((spec.hash_seed ^ layer_salt(layer, spec)) & _MASK64).to_bytes(8, "little")
    vec = np.zeros(spec.dim, dtype=np.float64)
    for feature in _features(text, spec):
        digest = hashlib.blake2b(feature.encode("utf-8"), key=key, digest_size=8).digest()
        h = int.from_bytes(digest, "little")
        sign = 1.0 if h & 1 else -1.0
        vec[(h >> 1) % spec.dim] += sign
    norm = math.sqrt(float(vec @ vec))
    if norm == 0.0:
        return vec
    return vec / norm


def is_degenerate(vec: np.ndarray) -> bool:
    return not np.any(vec)

