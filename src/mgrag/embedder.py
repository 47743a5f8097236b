"""Deterministic hashed-feature text embeddings, one keyed variant per layer.

Features are lowercase word unigrams plus character n-grams; each feature is
hashed with a layer-salted key to a signed slot, and a text's vector is its
signed slot counts, L2-normalized.  No model weights, so every downstream
number is reproducible from text alone.

A feature's slot and sign are a pure function of the feature, the key and
the dimension, so they are memoized: one table per (key, dim) maps a feature
to ``2 * slot + sign_bit``.  A table is cleared when it reaches
``_MEMO_CAP`` entries, which bounds its memory on text that rarely repeats a
feature.  The counts are summed with one ``np.bincount``; integer counts are
exact in float64, so the memo changes no bit of any vector.

``embed`` serves one text (a query).  A build embeds each layer as one
``(n_units, dim)`` matrix.  A unit is a run of whole tokens of its document,
so its features are contiguous stretches of the document's: ``FeatureIndex``
extracts each document's features once and interns them, and ``embed_units``
maps the distinct features to codes once per layer, counts each unit's row
from slices of its document's codes and normalizes the matrix once: the
same integer counts ``embed`` makes from the unit's text, so the same bits.
"""

from __future__ import annotations

import hashlib
import re
from collections import defaultdict
from dataclasses import dataclass, fields
from itertools import count
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .errors import ConfigError

if TYPE_CHECKING:
    from .corpus import GranularUnit

_WORD_RE = re.compile(r"[a-z0-9]+")
_MASK64 = (1 << 64) - 1
# odd 64-bit multiplier; layer * stride mod 2^64 gives distinct salts for layers 1..5
_SALT_STRIDE = 0x9E3779B97F4A7C15
# far past any use: every embed costs O(dim + ngram_max), whatever the length of its text
_MAX_DIM = 65_536
_MAX_NGRAM = 32


@dataclass(frozen=True)
class EmbedderSpec:
    """Embedding hyperparameters; ``shared_phi`` collapses all layer salts."""

    dim: int = 256
    ngram_min: int = 3
    ngram_max: int = 5
    hash_seed: int = 0
    shared_phi: bool = False

    def __post_init__(self):
        for f in fields(self):  # the exact annotated type: a bool or a float would alias or crash
            value = getattr(self, f.name)
            if type(value).__name__ != f.type:
                raise ConfigError(f"{f.name} must be {f.type}, got {value!r}")
        if not 8 <= self.dim <= _MAX_DIM:
            raise ConfigError(f"embedding dim must lie in [8, {_MAX_DIM}], got {self.dim}")
        if not 1 <= self.ngram_min <= self.ngram_max <= _MAX_NGRAM:
            raise ConfigError(f"bad n-gram range ({self.ngram_min}, {self.ngram_max}), max {_MAX_NGRAM}")
        if not 0 <= self.hash_seed <= _MASK64:  # the key is 64 bits; a larger seed would alias
            raise ConfigError(f"hash_seed must lie in [0, 2**64 - 1], got {self.hash_seed}")


def layer_salt(layer: int, spec: EmbedderSpec) -> int:
    return 0 if spec.shared_phi else (layer * _SALT_STRIDE) & _MASK64


def _key(layer: int, spec: EmbedderSpec) -> bytes:
    return (spec.hash_seed ^ layer_salt(layer, spec)).to_bytes(8, "little")


def _feature_kinds(joined: bytes, spec: EmbedderSpec) -> list[list[bytes]]:
    """The words of the space-joined words ``joined``, then its character n-grams for each n."""
    return [joined.split()] + [
        [joined[i : i + n] for i in range(len(joined) - n + 1)]
        for n in range(spec.ngram_min, spec.ngram_max + 1)
    ]


def _prefixed(kinds) -> list[bytes]:
    """Features as hashed: words as ``w:`` unigrams, the n-grams of every n as ``g:``."""
    words, *grams = kinds
    return [b"w:" + word for word in words] + [b"g:" + gram for kind in grams for gram in kind]


def _features(text: str, spec: EmbedderSpec) -> list[bytes]:
    """Word unigrams and character n-grams of ``text``, as ASCII bytes."""
    # every matched character is [a-z0-9], so the joined words encode once as ASCII
    return _prefixed(_feature_kinds(" ".join(_WORD_RE.findall(text.lower())).encode("ascii"), spec))


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


def _signed_counts(codes, out: np.ndarray) -> np.ndarray:
    """Write into the row ``out`` each slot's count of +1 (odd) codes less its -1 (even) codes."""
    counts = np.bincount(np.asarray(codes, dtype=np.intp), minlength=2 * out.shape[0])
    return np.subtract(counts[1::2], counts[0::2], out=out)


def _normalize(rows: np.ndarray) -> np.ndarray:
    """Divide each row of signed counts by ``max(its L2 norm, 1)`` in place: a nonzero integer
    row has norm >= 1, and an all-zero row stays zero.  Integer squares sum exactly in any
    order, so a row's bits do not depend on the rows beside it."""
    norms = np.sqrt(np.einsum("...i,...i->...", rows, rows))[..., None]
    rows /= np.maximum(norms, 1.0)
    return rows


def embed(text: str, layer: int, spec: EmbedderSpec = EmbedderSpec()) -> np.ndarray:
    """Embed ``text`` for one layer; a zero vector marks degenerate input.

    Degenerate means the text yielded no features (e.g. punctuation only) or
    their signed counts all cancel.
    """
    if layer < 1:
        raise ValueError(f"layer must be >= 1, got {layer}")
    codes = _codes(_features(text, spec), _key(layer, spec), spec.dim)
    return _normalize(_signed_counts(codes, np.empty(spec.dim)))


@dataclass(frozen=True)
class _Document:
    ids: list[np.ndarray]  # per feature kind (words, then each n's n-grams), each feature's id
    word_starts: np.ndarray  # body offset of each word's first character
    joined_starts: list[int]  # offset of each word in the space-joined words, then their length + 1


class FeatureIndex:
    """Every document's features, extracted once and interned into one vocabulary.

    ``vocab`` holds the distinct features in first-seen order: the words, then
    each n's n-grams, each kind ending at the next of ``kind_ends``.  Each
    document keeps its features as ids into its kind's part of ``vocab``,
    with the word offsets that map a character span of its body to slices.
    """

    def __init__(self, bodies: Sequence[str], spec: EmbedderSpec):
        self.spec = spec
        # a feature seen first gets the next id of its kind: words, then each n's n-grams
        kinds = [defaultdict(count().__next__) for _ in range(2 + spec.ngram_max - spec.ngram_min)]
        self.docs = [self._document(body, kinds) for body in bodies]
        self.vocab = _prefixed(kinds)
        self.kind_ends = np.cumsum([len(ids) for ids in kinds])[:-1]

    def _document(self, body: str, kinds: list[defaultdict]) -> _Document:
        lowered = body.lower()
        found = list(_WORD_RE.finditer(lowered))
        joined = " ".join(m.group() for m in found).encode("ascii")
        word_starts = np.fromiter((m.start() for m in found), dtype=np.int64, count=len(found))
        if len(lowered) != len(body):  # "İ" lowers to two characters: map back to the body
            ends = np.cumsum([len(ch.lower()) for ch in body])
            word_starts = np.searchsorted(ends, word_starts, side="right")
        joined_starts = [0]
        for m in found:
            joined_starts.append(joined_starts[-1] + m.end() - m.start() + 1)
        ids = [np.fromiter(map(kind.__getitem__, features), dtype=np.int32, count=len(features))
               for kind, features in zip(kinds, _feature_kinds(joined, self.spec))]
        return _Document(ids, word_starts, joined_starts)


def embed_units(
    features: FeatureIndex, units: Sequence[Sequence[GranularUnit]], layer: int
) -> np.ndarray:
    """Embed one layer's units, ``units[d]`` being those of ``features``' document d.

    Returns one ``(n_units, dim)`` matrix whose row r is the r-th unit's
    ``embed(unit.text, layer, features.spec)`` bit for bit.  A unit starts and
    ends at whitespace or at its body's ends, so its words are a run i..j-1 of
    its document's words and its n-grams those of the joined words that start
    in [a, b - n], where [a, b) holds words i..j-1 there.
    """
    spec = features.spec
    codes = np.asarray(_codes(features.vocab, _key(layer, spec), spec.dim), dtype=np.intp)
    tables = np.split(codes, features.kind_ends)  # one per feature kind
    vectors = np.empty((sum(map(len, units)), spec.dim))
    rows = iter(vectors)
    for doc, doc_units in zip(features.docs, units):
        words, *grams = [table[ids] for table, ids in zip(tables, doc.ids)]
        grams = list(zip(range(spec.ngram_min, spec.ngram_max + 1), grams))
        spans = np.asarray([unit.char_span for unit in doc_units], dtype=np.int64).reshape(-1, 2)
        first, stop = np.searchsorted(doc.word_starts, spans.T).tolist()
        for i, j in zip(first, stop):
            a, b = doc.joined_starts[i], doc.joined_starts[j] - 1
            parts = [words[i:j]] + [gram[a : b - n + 1] for n, gram in grams if b - a >= n]
            _signed_counts(np.concatenate(parts), next(rows))
    return _normalize(vectors)
