from __future__ import annotations

import hashlib
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mgrag import embedder
from mgrag.embedder import (
    EmbedderSpec,
    embed,
    is_degenerate,
    layer_salt,
)
from mgrag.errors import ConfigError

GOLDEN = Path(__file__).parent / "data" / "golden_vectors.txt"


def _reference_embed(text: str, layer: int, spec: EmbedderSpec) -> np.ndarray:
    """The plain per-feature loop: hash each feature with its layer key, add its sign."""
    key = ((spec.hash_seed ^ layer_salt(layer, spec)) & (2**64 - 1)).to_bytes(8, "little")
    words = re.findall(r"[a-z0-9]+", text.lower())
    joined = " ".join(words)
    features = ["w:" + word for word in words] + [
        "g:" + joined[i : i + n]
        for n in range(spec.ngram_min, spec.ngram_max + 1)
        for i in range(len(joined) - n + 1)
    ]
    vec = np.zeros(spec.dim, dtype=np.float64)
    for feature in features:
        digest = hashlib.blake2b(feature.encode("utf-8"), key=key, digest_size=8).digest()
        h = int.from_bytes(digest, "little")
        vec[(h >> 1) % spec.dim] += 1.0 if h & 1 else -1.0
    norm = math.sqrt(float(vec @ vec))
    return vec if norm == 0.0 else vec / norm


def _assert_memo_within_caps():
    assert len(embedder._memo) <= embedder._MEMO_TABLES
    for memo, _ in embedder._memo.values():
        assert len(memo) <= embedder._MEMO_CAP


_specs = st.builds(
    lambda dim, lo, span, seed, shared: EmbedderSpec(dim=dim, ngram_min=lo, ngram_max=lo + span,
                                                     hash_seed=seed, shared_phi=shared),
    st.integers(8, 300), st.integers(1, 5), st.integers(0, 3), st.integers(0, 2**64 - 1),
    st.booleans(),
)
_texts = st.one_of(st.text(), st.text(alphabet="abAB01 z.,!\n\u00e9\u0130\u212a", max_size=60))


@pytest.mark.parametrize("cap", [None, 7], ids=["default-cap", "small-cap"])
@settings(derandomize=True, database=None, deadline=None)
@given(_texts, st.integers(1, 5), _specs)
@example("\u0130STANBUL Kelvin \u212a 42", 1, EmbedderSpec())
@example("aaaa aaaa", 2, EmbedderSpec(dim=8, ngram_min=1, ngram_max=1))
def test_embed_matches_the_per_feature_reference(cap, text, layer, spec):
    # a small cap clears tables mid-text; the memo must never change a bit of a vector
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(embedder, "_memo", {})
        if cap is not None:
            mp.setattr(embedder, "_MEMO_CAP", cap)
        for _ in range(2):  # cold, then warm
            assert np.array_equal(embed(text, layer, spec), _reference_embed(text, layer, spec))
            _assert_memo_within_caps()


def test_memo_tables_stay_within_their_caps(monkeypatch):
    monkeypatch.setattr(embedder, "_memo", {})
    monkeypatch.setattr(embedder, "_MEMO_CAP", 50)
    monkeypatch.setattr(embedder, "_MEMO_TABLES", 3)
    rng = np.random.default_rng(0)
    for i in range(40):
        text = " ".join("".join(rng.choice(list("abcdefghij"), size=6)) for _ in range(20))
        spec = EmbedderSpec(dim=16, hash_seed=i % 5)
        assert np.array_equal(embed(text, 1 + i % 5, spec), _reference_embed(text, 1 + i % 5, spec))
        _assert_memo_within_caps()


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
        assert is_degenerate(vec)
        assert vec.shape == (16,)
    assert not is_degenerate(embed("word", 1, spec))


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


def test_spec_dict_round_trip():
    spec = EmbedderSpec(dim=128, ngram_min=2, ngram_max=4, hash_seed=9, shared_phi=True)
    assert EmbedderSpec.from_dict(spec.to_dict()) == spec


def test_embed_rejects_bad_layer():
    with pytest.raises(ValueError, match="layer"):
        embed("text", 0, EmbedderSpec(dim=16))

