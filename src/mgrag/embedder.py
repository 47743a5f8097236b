"""Deterministic hashed-feature text embeddings, one keyed variant per layer.

Features are lowercase word unigrams plus character n-grams; each feature is
hashed with a layer-salted 64-bit key to a signed slot, and a text's vector is
its signed slot counts, L2-normalized.  No model weights, so every downstream
number is reproducible from text alone.

The hash is feature hashing (Weinberger et al., 2009) computed over arrays.
``_pack`` sorts the features by length and reads them, null-padded, as
little-endian ``uint64`` words, in chunks of bounded size; ``_codes`` then
hashes them under many keys in one pass.  Each (key, feature) state starts
as ``key ^ len``, folds in each word that lies within the feature's length
through the splitmix64 finalizer, and is mixed once more; it maps to
``2 * slot + sign_bit``.  A feature's code is a function of its bytes, the
key and the dimension alone, whatever batch it is hashed in.  The counts are
summed with one ``np.bincount``, exact in float64.

``embed_layers`` serves one text (a query): it extracts the features once,
hashes them for every layer in one 2-D pass, and counts and normalizes all
layers' rows at once.  A build embeds each layer as one ``(n_units, dim)``
matrix.  A unit is a run of whole tokens of its document, so its features
are contiguous stretches of the document's: ``FeatureIndex`` extracts each
document's features once, interns them and packs the distinct ones, and
``embed_units`` hashes that pack once per layer, counts each unit's row from
slices of its document's codes and normalizes the matrix once: the same
integer counts ``embed`` makes from the unit's text, so the same bits.
"""

from __future__ import annotations

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


def _key(layer: int, spec: EmbedderSpec) -> np.uint64:
    return np.uint64(spec.hash_seed ^ layer_salt(layer, spec))


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


_MIX1 = np.uint64(0xBF58476D1CE4E5B9)  # the splitmix64 finalizer's multipliers
_MIX2 = np.uint64(0x94D049BB133111EB)
_PAD_BYTES = 1 << 20  # a chunk's padded matrix stays within this, or is one feature's own bytes


def _mix(z: np.ndarray) -> None:
    """The splitmix64 finalizer, in place on a ``uint64`` array (array ops wrap silently)."""
    z ^= z >> 30
    z *= _MIX1
    z ^= z >> 27
    z *= _MIX2
    z ^= z >> 31


@dataclass(frozen=True)
class _Packed:
    """Features sorted by length and read, null-padded, as little-endian ``uint64`` words."""

    order: np.ndarray  # the feature at each sorted position
    lengths: np.ndarray  # the sorted features' byte lengths, as uint64
    chunks: list[tuple[int, np.ndarray, list[int]]]  # (first position, words, firsts) per chunk


def _pack(features: Sequence[bytes]) -> _Packed:
    """Pack features for ``_codes``: the work that does not depend on the key.

    The sorted features are cut into chunks of consecutive features; a chunk's
    rows are padded to its longest, and it ends before its padded matrix would
    pass ``_PAD_BYTES``.  ``firsts[j]`` is the chunk's first row longer than
    ``8 * j`` bytes: word ``j`` lies within that row and every row after it.
    """
    lengths = np.fromiter(map(len, features), dtype=np.int64, count=len(features))
    order = np.argsort(lengths, kind="stable")
    lengths = lengths[order]
    n_words = -(-lengths // 8)
    chunks = []
    start = 0
    while start < len(order):
        padded = np.arange(1, len(order) - start + 1) * (8 * n_words[start:])
        stop = start + max(1, int(np.searchsorted(padded, _PAD_BYTES, side="right")))
        width = int(n_words[stop - 1])
        if width:
            rows = [features[i] for i in order[start:stop].tolist()]
            words = np.array(rows, dtype=f"S{8 * width}").view("<u8").reshape(-1, width)
            firsts = np.searchsorted(n_words[start:stop], np.arange(width), side="right")
            chunks.append((start, words, firsts.tolist()))
        start = stop
    return _Packed(order, lengths.astype(np.uint64), chunks)


def _codes(packed: _Packed, keys, dim: int) -> np.ndarray:
    """``2 * slot + sign_bit`` of each packed feature under each of ``keys``, shape
    ``keys.shape + (n,)``.  Each row folds in only the words within its own length."""
    h = np.asarray(keys, dtype=np.uint64)[..., None] ^ packed.lengths
    for start, words, firsts in packed.chunks:
        chunk = h[..., start : start + len(words)]
        for j, first in enumerate(firsts):
            state = chunk[..., first:]
            state ^= words[first:, j]
            _mix(state)
    _mix(h)
    codes = np.empty(h.shape, dtype=np.intp)
    codes[..., packed.order] = (h >> 1) % dim * 2 + (h & 1)
    return codes


def _signed_counts(codes, out: np.ndarray) -> None:
    """Write into ``out`` each slot's count of +1 (odd) codes less its -1 (even) codes.

    ``out`` is a row, or rows whose codes are offset by ``2 * dim`` per row.
    """
    counts = np.bincount(np.asarray(codes, dtype=np.intp).ravel(), minlength=2 * out.size)
    np.subtract(counts[1::2], counts[0::2], out=out.reshape(-1))


def _normalize(rows: np.ndarray) -> np.ndarray:
    """Divide each row of signed counts by ``max(its L2 norm, 1)`` in place: a nonzero integer
    row has norm >= 1, and an all-zero row stays zero.  Integer squares sum exactly in any
    order, so a row's bits do not depend on the rows beside it."""
    norms = np.sqrt(np.einsum("...i,...i->...", rows, rows))[..., None]
    rows /= np.maximum(norms, 1.0)
    return rows


def embed_layers(
    text: str, layers: Sequence[int], spec: EmbedderSpec = EmbedderSpec()
) -> np.ndarray:
    """Embed ``text`` for each of ``layers``: row i is its vector at layer ``layers[i]``.

    The features are extracted once and hashed for every layer in one pass.  A
    zero row marks degenerate input: the text yielded no features (e.g.
    punctuation only) or their signed counts all cancel.
    """
    for layer in layers:
        if layer < 1:
            raise ValueError(f"layer must be >= 1, got {layer}")
    keys = np.array([_key(layer, spec) for layer in layers], dtype=np.uint64)
    codes = _codes(_pack(_features(text, spec)), keys, spec.dim)
    rows = np.empty((len(layers), spec.dim))
    _signed_counts(codes + 2 * spec.dim * np.arange(len(layers))[:, None], rows)
    return _normalize(rows)


def embed(text: str, layer: int, spec: EmbedderSpec = EmbedderSpec()) -> np.ndarray:
    """Embed ``text`` for one layer: the one-layer case of ``embed_layers``."""
    return embed_layers(text, (layer,), spec)[0]


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
    ``packed`` is ``vocab`` packed for ``_codes`` once, for every layer's key.
    """

    def __init__(self, bodies: Sequence[str], spec: EmbedderSpec):
        self.spec = spec
        # a feature seen first gets the next id of its kind: words, then each n's n-grams
        kinds = [defaultdict(count().__next__) for _ in range(2 + spec.ngram_max - spec.ngram_min)]
        self.docs = [self._document(body, kinds) for body in bodies]
        self.vocab = _prefixed(kinds)
        self.kind_ends = np.cumsum([len(ids) for ids in kinds])[:-1]
        self.packed = _pack(self.vocab)

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
    codes = _codes(features.packed, _key(layer, spec), spec.dim)
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
