from __future__ import annotations

import json
import math
import re
import tracemalloc
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mgrag import embedder
from mgrag.corpus import Document, synthesize_corpus
from mgrag.embedder import EmbedderSpec, FeatureIndex, embed, embed_layers, layer_salt
from mgrag.errors import ConfigError
from mgrag.memory import build
from oracles import feature_code

GOLDEN = Path(__file__).parent / "data" / "golden_vectors.txt"


def _reference_embed(text: str, layer: int, spec: EmbedderSpec) -> np.ndarray:
    """The plain per-feature loop: hash each feature with its layer key, add its sign."""
    key = spec.hash_seed ^ layer_salt(layer, spec)
    words = re.findall(r"[a-z0-9]+", text.lower())
    joined = " ".join(words)
    features = ["w:" + word for word in words] + [
        "g:" + joined[i : i + n]
        for n in range(spec.ngram_min, spec.ngram_max + 1)
        for i in range(len(joined) - n + 1)
    ]
    vec = np.zeros(spec.dim, dtype=np.float64)
    for feature in features:
        code = feature_code(feature.encode("utf-8"), key, spec.dim)
        vec[code // 2] += 1.0 if code & 1 else -1.0
    norm = math.sqrt(float(vec @ vec))
    return vec if norm == 0.0 else vec / norm


_specs = st.builds(
    lambda dim, lo, span, seed, shared: EmbedderSpec(dim=dim, ngram_min=lo, ngram_max=lo + span,
                                                     hash_seed=seed, shared_phi=shared),
    st.integers(8, 300), st.integers(1, 5), st.integers(0, 3), st.integers(0, 2**64 - 1),
    st.booleans(),
)
_texts = st.one_of(st.text(), st.text(alphabet="abAB01 z.,!\n\u00e9\u0130\u212a", max_size=60))


@settings(derandomize=True, database=None, deadline=None)
@given(_texts, st.integers(1, 5), _specs)
@example("\u0130STANBUL Kelvin \u212a 42", 1, EmbedderSpec())
@example("aaaa aaaa", 2, EmbedderSpec(dim=8, ngram_min=1, ngram_max=1))
@example("a word longer than sixteen bytes: incomprehensibilities", 3, EmbedderSpec(dim=16))
def test_embed_matches_the_per_feature_reference(text, layer, spec):
    assert np.array_equal(embed(text, layer, spec), _reference_embed(text, layer, spec))


def _codes(features, keys, dim):
    return embedder._codes(embedder._pack(features), keys, dim)


_features = st.lists(st.binary(max_size=40), max_size=30)
_keys = st.integers(0, 2**64 - 1)


@pytest.mark.parametrize("pad_bytes", [None, 24], ids=["default-chunks", "24-byte-chunks"])
@settings(derandomize=True, database=None, deadline=None)
@given(_features, st.lists(_keys, min_size=1, max_size=4), st.integers(8, 300), st.randoms(),
       st.binary(min_size=1, max_size=200))
@example([b"a", b"a\x00", b"", b"12345678", b"123456789"], [0], 8, None, b"w" * 17)
def test_a_feature_code_depends_on_the_feature_alone(pad_bytes, features, keys, dim, rnd, wide):
    # not on the batch, its order or its widest member: each row folds only its own words
    with pytest.MonkeyPatch.context() as mp:
        if pad_bytes is not None:  # chunks of a few rows, and a wide feature in one of its own
            mp.setattr(embedder, "_PAD_BYTES", pad_bytes)
        codes = _codes(features, np.array(keys, dtype=np.uint64), dim)
        assert codes.shape == (len(keys), len(features))
        assert codes.tolist() == [[feature_code(f, key, dim) for f in features] for key in keys]
        for key, row in zip(keys, codes):
            alone = [_codes([f], np.uint64(key), dim)[0] for f in features]
            assert row.tolist() == alone
            order = list(range(len(features)))
            if rnd is not None:
                rnd.shuffle(order)
            shuffled = _codes([features[i] for i in order] + [wide], np.uint64(key), dim)
            assert shuffled.tolist() == [row[i] for i in order] + [feature_code(wide, key, dim)]


@settings(derandomize=True, database=None, deadline=None)
@given(_texts, st.lists(st.integers(1, 5), max_size=6), _specs)
@example("", [1, 2, 3, 4, 5], EmbedderSpec())
@example("?!...,;", [1, 2, 3, 4, 5], EmbedderSpec(shared_phi=True))
@example("Hello, World!", [5, 1, 1], EmbedderSpec(dim=16, shared_phi=True))
def test_embed_layers_rows_are_embed_of_each_layer(text, layers, spec):
    rows = embed_layers(text, layers, spec)
    assert rows.shape == (len(layers), spec.dim)
    for row, layer in zip(rows, layers):
        assert np.array_equal(row, embed(text, layer, spec))


def _vocab(packed) -> list[bytes]:
    """The packed features' bytes in feature order: each sorted row read to its length."""
    vocab = [b""] * len(packed.order)
    for start, words, _ in packed.chunks:
        for pos, row in enumerate(words, start):
            vocab[packed.order[pos]] = row.tobytes()[: packed.lengths[pos]]
    return vocab


def test_a_long_feature_is_hashed_in_its_own_bytes():
    # one 64 KB word among thousands of short ones: rows padded to the widest would need
    # about 2,100 x 64 KB = 140 MB; chunked, the build stays well under its bound
    rng = np.random.default_rng(0)
    words = {"".join(rng.choice(list("abcd"), size=6)) for _ in range(3000)}
    body = " ".join(sorted(words))
    docs = [Document(doc_id=1, title="short", body=body),
            Document(doc_id=2, title="long", body="x" * 65_536 + " " + body[:200])]
    spec = EmbedderSpec(dim=64, ngram_min=3, ngram_max=3)
    tracemalloc.start()
    try:
        hier = build(docs, spec, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert hier.layers[0].n_units == 2
    assert peak < 16 * 2**20, peak
    features = FeatureIndex([doc.body for doc in docs], spec)
    vocab = _vocab(features.packed)
    assert sorted(vocab) == sorted({f for doc in docs for f in embedder._features(doc.body, spec)})
    assert max(map(len, vocab)) == 65_538
    assert sum(words.nbytes for _, words, _ in features.packed.chunks) < 2 * 2**20
    key = embedder._key(1, spec)
    codes = embedder._codes(features.packed, key, spec.dim)
    assert codes.tolist() == [_codes([f], key, spec.dim)[0] for f in vocab]
    long_word = b"w:" + b"x" * 65_536
    assert codes[vocab.index(long_word)] == feature_code(long_word, int(key), spec.dim)


@settings(derandomize=True, database=None, deadline=None)
@given(st.lists(_texts, min_size=1, max_size=4), _specs, st.integers(1, 5))
@example(["ab cd", "", "\u0130f gh", "ij"], EmbedderSpec(ngram_min=1, ngram_max=9), 2)
@example(["a long word: incomprehensibilities, and more", "x"], EmbedderSpec(ngram_max=32), 1)
def test_the_vocabulary_is_every_distinct_feature_once(bodies, spec, layer):
    # no window across two documents is a feature, and every code is the scalar hash's
    features = FeatureIndex(bodies, spec)
    vocab = _vocab(features.packed)
    assert sorted(vocab) == sorted({f for body in bodies for f in embedder._features(body, spec)})
    key = embedder._key(layer, spec)
    codes = embedder._codes(features.packed, key, spec.dim)
    assert codes.tolist() == [feature_code(f, int(key), spec.dim) for f in vocab]


def test_a_build_counts_its_units_in_bounded_blocks():
    # 9,421 units, whose kept vectors take 18.4 MiB, and a peak of about 31 MiB; one bincount
    # over layer 5's 4,113 rows would hold 2 * 256 int64 slots a row, 16 MiB more
    docs = synthesize_corpus(300)
    tracemalloc.start()
    try:
        hier = build(docs, EmbedderSpec(), 5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [mem.n_units for mem in hier.layers] == [300, 746, 2288, 1974, 4113]
    assert peak < 36 * 2**20, peak


def test_a_build_has_the_same_bits_in_any_blocks(monkeypatch):
    docs = synthesize_corpus(20)
    spec = EmbedderSpec(dim=64)
    whole = build(docs, spec, 5)  # every layer in one block
    monkeypatch.setattr(embedder, "_PAD_BYTES", 3 * 16 * spec.dim)  # three rows a block
    blocks = build(docs, spec, 5)
    assert max(mem.n_units for mem in blocks.layers) > 3 * 40
    for a, b in zip(whole.layers, blocks.layers, strict=True):
        assert (a.unit_ids, a.vectors.tobytes()) == (b.unit_ids, b.vectors.tobytes())


def test_golden_vectors_unchanged():
    # frozen reference embeddings; any hashing change must be deliberate
    spec = EmbedderSpec(dim=16)
    rows = [json.loads(line) for line in GOLDEN.read_text().splitlines()]
    assert len(rows) == 15
    for row in rows:
        expected = np.array([float(v) for v in row["vec"]])
        got = embed(row["text"], row["layer"], spec)
        assert np.array_equal(got, expected), (row["layer"], row["text"])


def test_vectors_are_unit_norm_or_zero():
    spec = EmbedderSpec(dim=32)
    rng = np.random.default_rng(0)
    alphabet = list("abcdefgh ...!?")
    for _ in range(200):
        text = "".join(rng.choice(alphabet, size=int(rng.integers(0, 30))))
        vec = embed(text, 1, spec)
        norm = np.linalg.norm(vec)
        assert norm == 0.0 or abs(norm - 1.0) < 1e-12


def test_embedding_is_deterministic():
    spec = EmbedderSpec()
    a = embed("Some query about entropy", 2, spec)
    b = embed("Some query about entropy", 2, spec)
    assert np.array_equal(a, b)


def test_layers_use_distinct_encodings():
    spec = EmbedderSpec(dim=64)
    text = "identical text for every layer"
    vecs = [embed(text, layer, spec) for layer in range(1, 6)]
    for i in range(5):
        for j in range(i + 1, 5):
            assert not np.array_equal(vecs[i], vecs[j])


def test_shared_phi_collapses_layers():
    spec = EmbedderSpec(dim=64, shared_phi=True)
    vecs = [embed("identical text for every layer", layer, spec) for layer in range(1, 6)]
    for layer in range(1, 5):
        assert np.array_equal(vecs[0], vecs[layer])
    assert layer_salt(1, spec) == layer_salt(5, spec) == 0


def test_hash_seed_changes_vectors():
    a = embed("hello world", 1, EmbedderSpec(dim=64, hash_seed=0))
    b = embed("hello world", 1, EmbedderSpec(dim=64, hash_seed=1))
    assert not np.array_equal(a, b)


def test_case_and_punctuation_are_normalized_away():
    spec = EmbedderSpec(dim=64)
    assert np.array_equal(embed("Hello, World!", 1, spec), embed("hello world", 1, spec))


def test_overlapping_text_is_more_similar_than_disjoint():
    spec = EmbedderSpec(dim=256)
    base = embed("apple banana cherry", 1, spec)
    near = embed("apple banana cherry date", 1, spec)
    far = embed("zumthor quixotic velvet", 1, spec)
    assert float(base @ near) > float(base @ far)


def test_degenerate_inputs_give_zero_vector():
    spec = EmbedderSpec(dim=16)
    for text in ("", "   ", "!!!", "?!...,;"):
        vec = embed(text, 1, spec)
        assert not np.any(vec)
        assert vec.shape == (16,)
    assert np.any(embed("word", 1, spec))


def test_single_character_embeds():
    vec = embed("a", 3, EmbedderSpec(dim=16))
    assert abs(np.linalg.norm(vec) - 1.0) < 1e-12


def test_spec_validation():
    with pytest.raises(ConfigError, match="dim"):
        EmbedderSpec(dim=4)
    with pytest.raises(ConfigError, match="n-gram"):
        EmbedderSpec(ngram_min=0)
    with pytest.raises(ConfigError, match="n-gram"):
        EmbedderSpec(ngram_min=5, ngram_max=3)
    with pytest.raises(ConfigError, match="hash_seed"):
        EmbedderSpec(hash_seed=-1)
    # every embed costs O(dim + ngram_max) whatever its text, so both are bounded
    with pytest.raises(ConfigError, match=r"embedding dim must lie in \[8, 65536\], got 65537"):
        EmbedderSpec(dim=65_537)
    with pytest.raises(ConfigError, match=r"bad n-gram range \(3, 1000000\), max 32"):
        EmbedderSpec(ngram_max=10**6)
    assert EmbedderSpec(dim=65_536, ngram_min=32, ngram_max=32).ngram_max == 32
    # the hash key is 64 bits, so a larger seed would build another seed's vectors
    with pytest.raises(ConfigError, match=r"hash_seed must lie in \[0, 2\*\*64 - 1\], got 18446744073709551617"):
        EmbedderSpec(hash_seed=2**64 + 1)
    assert np.any(embed("hello world", 5, EmbedderSpec(dim=16, hash_seed=2**64 - 1)))
    # a float would crash later and a bool would pass for 0 or 1
    for name, value, message in [
        ("hash_seed", 1.5, "hash_seed must be int, got 1.5"),
        ("dim", 16.0, "dim must be int, got 16.0"),
        ("ngram_max", 5.0, "ngram_max must be int, got 5.0"),
        ("ngram_min", True, "ngram_min must be int, got True"),
        ("hash_seed", True, "hash_seed must be int, got True"),
        ("shared_phi", "no", "shared_phi must be bool, got 'no'"),
        ("shared_phi", 1, "shared_phi must be bool, got 1"),
    ]:
        with pytest.raises(ConfigError, match=message):
            EmbedderSpec(**{name: value})


def test_spec_dict_round_trip():
    spec = EmbedderSpec(dim=128, ngram_min=2, ngram_max=4, hash_seed=9, shared_phi=True)
    assert EmbedderSpec(**asdict(spec)) == spec


def test_embed_rejects_bad_layer():
    with pytest.raises(ValueError, match="layer"):
        embed("text", 0, EmbedderSpec(dim=16))

