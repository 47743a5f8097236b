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
layers' rows at once.  A build is array code, with no loop per n-gram and
no count call per unit.  ``FeatureIndex`` reads all documents' words as one
``uint8`` array, interns each n's n-grams as integer words with one
``np.unique`` and packs the distinct features once.  A unit is a run of whole
tokens of its document, so its features are stretches of the feature
stream: ``embed_units`` hashes the pack with its layer's key, turns every
unit's stretches into one flat index array (``np.repeat`` and
``np.cumsum``), counts a block of rows with one ``np.bincount`` and
normalizes the matrix once.  These are the same integer counts ``embed``
makes from the unit's text, so the rows have the same bits.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields
from itertools import count, groupby
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .errors import ConfigError, require_type

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
        for f in fields(self):
            require_type(f.name, getattr(self, f.name), f.type)
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


def _features(text: str, spec: EmbedderSpec) -> list[bytes]:
    """Word unigrams (``w:``), then each n's character n-grams (``g:``), as ASCII bytes."""
    # every matched character is [a-z0-9], so the joined words encode once as ASCII
    joined = " ".join(_WORD_RE.findall(text.lower())).encode("ascii")
    return [b"w:" + word for word in joined.split()] + [
        b"g:" + joined[i : i + n]
        for n in range(spec.ngram_min, spec.ngram_max + 1)
        for i in range(len(joined) - n + 1)
    ]


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
    """Features read, null-padded, as little-endian ``uint64`` words, in chunks of rows
    sorted by length."""

    order: np.ndarray  # the feature at each position
    lengths: np.ndarray  # the byte length at each position, as uint64
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


_WORD_BYTE = np.array([bool(_WORD_RE.fullmatch(chr(b))) for b in range(256)])  # a word's bytes
_GRAM_TAG = np.uint64(int.from_bytes(b"g:", "little"))  # the low bytes of an n-gram's first word


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """``starts[r] + arange(lengths[r])`` for every r, concatenated (the CSR segment idiom)."""
    ends = np.cumsum(lengths)
    return np.arange(ends[-1] if len(ends) else 0) + np.repeat(starts - (ends - lengths), lengths)


def _intern(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of an ``(m, w)`` ``uint64`` array, and each row's index among them.

    A row is compared as one ``uint64`` when w is 1, and as its ``8 * w`` bytes otherwise.
    """
    width = rows.shape[1]
    keys = np.ascontiguousarray(rows).view(np.uint64 if width == 1 else f"V{8 * width}")[:, 0]
    distinct, inverse = np.unique(keys, return_inverse=True)
    return distinct.view(np.uint64).reshape(-1, width), inverse


def _gram_rows(window: np.ndarray, n: int) -> np.ndarray:
    """``b"g:" + joined[i : i + n]`` for each start i, as a row of ``ceil((n + 2) / 8)``
    little-endian ``uint64`` words, null-padded as ``_pack`` reads a feature.  ``window[i]``
    is the little-endian word of ``joined[i : i + 8]``, zero past its end."""
    n_starts = max(len(window) - n + 1, 0)
    rows = np.empty((n_starts, -(-(n + 2) // 8)), dtype=np.uint64)
    rows[:, 0] = window[:n_starts] << np.uint64(16) | _GRAM_TAG
    for j in range(1, rows.shape[1]):  # word j holds the gram's bytes 8j - 2 .. 8j + 5
        rows[:, j] = window[8 * j - 2 : 8 * j - 2 + n_starts]
    if (n + 2) % 8:
        rows[:, -1] &= np.uint64((1 << 8 * ((n + 2) % 8)) - 1)
    return rows


class FeatureIndex:
    """Every document's features, extracted once and interned into one vocabulary.

    The bodies are read as one text, joined by newlines, and its words, joined
    by spaces, as one ``uint8`` array ``joined``.  Words are interned by a dict.
    The n-grams of each n are the windows of ``joined``: ``b"g:" + gram`` as
    ``ceil((n + 2) / 8)`` little-endian ``uint64`` words, interned as rows by one
    ``np.unique``; a window across two documents is no feature.  ``stream``
    holds the feature id of each word, then of each n's window at each start.
    ``packed`` holds the distinct features for ``_codes``, once for every
    layer's key: the words by ``_pack``, then the n-grams in chunks of one word count.
    """

    def __init__(self, bodies: Sequence[str], spec: EmbedderSpec):
        self.spec = spec
        lowered = [body.lower() for body in bodies]
        # no non-ASCII character is in a word; read as "?", each keeps its offset
        chars = np.frombuffer("\n".join(lowered).encode("ascii", "replace"), dtype=np.uint8)
        edges = np.diff(_WORD_BYTE[chars].view(np.int8), prepend=np.int8(0), append=np.int8(0))
        starts = np.flatnonzero(edges > 0)
        lengths = np.flatnonzero(edges < 0) - starts
        at = np.cumsum(lengths + 1) - (lengths + 1)  # word w is joined[at[w] : at[w] + lengths[w]]
        joined = np.full(int(lengths.sum()) + max(len(at) - 1, 0), ord(" "), dtype=np.uint8)
        joined[_ranges(at, lengths)] = chars[_ranges(starts, lengths)]
        sizes = np.array([len(body) + 1 for body in bodies], dtype=np.int64)
        lowered_sizes = np.array([len(body) + 1 for body in lowered], dtype=np.int64)
        lowered_ends = np.cumsum(lowered_sizes)
        in_doc = np.searchsorted(lowered_ends, starts, side="right")  # each word's document
        offsets = starts - (lowered_ends - lowered_sizes)[in_doc]  # in its lowered body
        for d in np.flatnonzero(lowered_sizes != sizes):  # "İ" lowers to two characters
            lo, hi = np.searchsorted(in_doc, [d, d + 1])
            ends = np.cumsum([len(ch.lower()) for ch in bodies[d]])
            offsets[lo:hi] = np.searchsorted(ends, offsets[lo:hi], side="right")  # in the body
        self.doc_starts = np.cumsum(sizes) - sizes  # each body's offset in the bodies' text
        self.word_starts = self.doc_starts[in_doc] + offsets
        # words i..j-1 are joined[joined_starts[i] : joined_ends[j - 1]]; the appended 0 is
        # read at index len(words) and -1, only for a unit with no words
        self.joined_starts, self.joined_ends = np.append(at, 0), np.append(at + lengths, 0)
        crossings = (at + lengths)[:-1][in_doc[1:] != in_doc[:-1]]  # the space after a document

        words = joined.tobytes().split()
        word_ids = dict(zip(dict.fromkeys(words), count()))
        stream = [np.fromiter(map(word_ids.__getitem__, words), dtype=np.intp, count=len(words))]
        padded = np.concatenate([joined, np.zeros(8, dtype=np.uint8)])
        window = np.lib.stride_tricks.sliding_window_view(padded, 8)[: len(joined)]
        window = np.ascontiguousarray(window).view("<u8")[:, 0]
        grams = []  # each n's distinct rows
        vocab_size = len(word_ids)
        for n in range(spec.ngram_min, spec.ngram_max + 1):
            rows = _gram_rows(window, n)
            keep = np.ones(len(rows), dtype=bool)
            crossed = (crossings[:, None] - np.arange(n)).ravel()
            keep[crossed[(crossed >= 0) & (crossed < len(rows))]] = False
            distinct, inverse = _intern(rows[keep])
            ids = np.zeros(len(rows), dtype=np.intp)
            ids[keep] = inverse + vocab_size
            stream.append(ids)
            grams.append(distinct)
            vocab_size += len(distinct)
        self.stream = np.concatenate(stream, dtype=np.int32 if vocab_size < 2**31 else np.intp)
        self.gram_starts = np.cumsum([len(ids) for ids in stream])[:-1]  # each n's first in stream

        word_pack = _pack([b"w:" + word for word in word_ids])
        chunks, start = list(word_pack.chunks), len(word_ids)
        for width, group in groupby(grams, key=lambda rows: rows.shape[1]):
            rows = np.concatenate(list(group))
            step = max(1, _PAD_BYTES // (8 * width))
            # every row is longer than 8 * (width - 1) bytes
            chunks += [(start + i, rows[i : i + step], [0] * width)
                       for i in range(0, len(rows), step)]
            start += len(rows)
        gram_lengths = np.repeat(np.arange(spec.ngram_min, spec.ngram_max + 1) + 2,
                                 list(map(len, grams)))
        self.packed = _Packed(
            np.concatenate([word_pack.order, np.arange(len(word_ids), vocab_size)]),
            np.concatenate([word_pack.lengths, gram_lengths.astype(np.uint64)]),
            chunks,
        )


def embed_units(
    features: FeatureIndex, units: Sequence[Sequence[GranularUnit]], layer: int
) -> np.ndarray:
    """Embed one layer's units, ``units[d]`` being those of ``features``' document d.

    Returns one ``(n_units, dim)`` matrix whose row r is the r-th unit's
    ``embed(unit.text, layer, features.spec)`` bit for bit.  A unit starts and
    ends at whitespace or at its body's ends, so its words are a run i..j-1 of
    the words and its n-grams those of the joined words that start in
    [a, b - n], where [a, b) holds words i..j-1 there.  Every unit's stretches
    of ``features.stream`` become one flat index array, counted with one
    ``np.bincount`` per block of rows whose slot counts fit in ``_PAD_BYTES``:
    the same integer counts ``embed`` makes from the unit's text, so the same bits.
    """
    spec = features.spec
    codes = _codes(features.packed, _key(layer, spec), spec.dim)[features.stream]
    spans = np.array([unit.char_span for doc_units in units for unit in doc_units], dtype=np.int64)
    spans = spans.reshape(-1, 2) + np.repeat(features.doc_starts, list(map(len, units)))[:, None]
    first, stop = np.searchsorted(features.word_starts, spans.T)
    a = features.joined_starts[first]
    span = np.where(stop > first, features.joined_ends[stop - 1] - a, 0)  # b - a
    n = np.arange(spec.ngram_min, spec.ngram_max + 1)
    starts = np.column_stack([first, a[:, None] + features.gram_starts])
    lengths = np.column_stack([stop - first, np.maximum(span[:, None] - n + 1, 0)])
    vectors = np.empty((len(spans), spec.dim))
    step = max(1, _PAD_BYTES // (16 * spec.dim))  # rows whose 2 * dim int64 counts fit
    for r in range(0, len(vectors), step):
        block = lengths[r : r + step]
        rows = np.repeat(np.arange(len(block)) * (2 * spec.dim), block.sum(axis=1))
        _signed_counts(codes[_ranges(starts[r : r + step].ravel(), block.ravel())] + rows,
                       vectors[r : r + step])
    return _normalize(vectors)
