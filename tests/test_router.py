from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

from mgrag.confidence import entropy
from mgrag.corpus import keyword_eval_suite
from mgrag.embedder import EmbedderSpec
from mgrag.errors import ConfigError, RoutingError
from mgrag.memory import LayerMemory, MemoryHierarchy, build
from mgrag.router import (RouterConfig, SearchedLayer, assemble, retrieve, route, routing_weights,
                          search_layers)

DIM = 8


def _mem(vectors, layer=1):
    vectors = np.asarray(vectors, dtype=np.float64).reshape(-1, DIM)
    n = vectors.shape[0]
    return LayerMemory(
        layer=layer,
        unit_ids=[f"{j + 1:08d}:{layer}:00000" for j in range(n)],
        doc_ids=np.arange(1, n + 1, dtype=np.int64),
        vectors=vectors,
    )


def _hier(layer_vectors):
    layers = [_mem(vecs, layer=i + 1) for i, vecs in enumerate(layer_vectors)]
    return MemoryHierarchy(layers=layers, embedder_spec=EmbedderSpec(dim=DIM), corpus_sha256="0" * 64,
                           n_documents=max((m.n_units for m in layers), default=0))


def _basis(i):
    v = np.zeros(DIM)
    v[i] = 1.0
    return v


def _at_sim(target, axis=0, other=1):
    # unit vector whose dot with e_axis is exactly `target`
    v = np.zeros(DIM)
    v[axis] = target
    v[other] = math.sqrt(1.0 - target * target)
    return v


def _assemble(hier, encodings, cfg):
    # route() with the query encodings given instead of embedded from text
    return assemble(search_layers(hier, np.stack(encodings), cfg.k_per_layer), cfg)


def _readout(hits, mem):
    # oracle: similarity-softmax-weighted mean of the hits' stored vectors
    if not hits:
        return np.zeros(mem.vectors.shape[1])
    sims = np.array([h.sim for h in hits])
    w = np.exp(sims - sims.max())
    return (w / w.sum()) @ mem.vectors[[h.row for h in hits]]


# --- layer scores -------------------------------------------------------------


def test_mean_topk_score_is_mean_of_hit_sims():
    hier = _hier([[_at_sim(0.9, other=1), _at_sim(0.7, other=2)]])
    ctx = _assemble(hier, [_basis(0)], RouterConfig(k_per_layer=2))
    assert ctx.scores[0] == pytest.approx(0.8, abs=1e-12)
    assert [h.sim for h in ctx.retrieval.layers[0].hits] == [pytest.approx(0.9), pytest.approx(0.7)]


def test_max_score_mode():
    hier = _hier([[_at_sim(0.9, other=1), _at_sim(0.7, other=2)]])
    ctx = _assemble(hier, [_basis(0)], RouterConfig(k_per_layer=2, layer_score_mode="max"))
    assert ctx.scores[0] == pytest.approx(0.9, abs=1e-15)


def test_empty_layer_gets_sentinel_and_zero_weight():
    hier = _hier([[_basis(0)], np.zeros((0, DIM))])
    ctx = _assemble(hier, [_basis(0), _basis(0)], RouterConfig())
    assert ctx.scores[1] == -np.inf
    assert ctx.retrieval.layers[1].hits == []
    assert ctx.weights[1] == 0.0
    assert ctx.weights[0] == pytest.approx(1.0, abs=1e-15)


def test_all_layers_empty_raises():
    hier = _hier([np.zeros((0, DIM)), np.zeros((0, DIM))])
    with pytest.raises(RoutingError, match="no layer"):
        _assemble(hier, [_basis(0), _basis(1)], RouterConfig())


# --- routing weights ------------------------------------------------------------


def test_equal_scores_give_uniform_weights():
    for temp in (0.25, 1.0, 7.0):
        weights = routing_weights(np.array([0.5, 0.5, 0.5]), temp)
        assert np.allclose(weights, 1 / 3, atol=1e-15)


def test_two_layer_softmax_hand_value():
    weights = routing_weights(np.array([1.0, 0.0]), 1.0)
    e = math.exp(1.0)
    assert weights[0] == pytest.approx(e / (e + 1), abs=1e-12)  # ~0.7311
    assert weights[1] == pytest.approx(1 / (e + 1), abs=1e-12)  # ~0.2689


def test_high_temperature_flattens_to_half():
    weights = routing_weights(np.array([1.0, 0.0]), 1000.0)
    assert abs(weights[0] - 0.5) < 1e-3
    assert abs(weights[1] - 0.5) < 1e-3


def test_weights_form_a_simplex_on_random_scores():
    rng = np.random.default_rng(0)
    for _ in range(500):
        n = int(rng.integers(1, 6))
        scores = rng.standard_normal(n) * 10
        temp = float(rng.uniform(0.05, 5.0))
        weights = routing_weights(scores, temp)
        assert np.all(weights >= 0)
        assert abs(weights.sum() - 1.0) < 1e-9


def test_weights_are_shift_invariant():
    rng = np.random.default_rng(1)
    for _ in range(100):
        scores = rng.standard_normal(4)
        shift = float(rng.uniform(-100, 100))
        a = routing_weights(scores, 1.3)
        b = routing_weights(scores + shift, 1.3)
        assert np.max(np.abs(a - b)) < 1e-12


def test_entropy_strictly_increases_with_temperature():
    scores = np.array([1.0, 0.4, -0.2])
    grid = [0.25, 0.5, 1.0, 2.0, 4.0]
    entropies = [entropy(routing_weights(scores, t)) for t in grid]
    for lo, hi in zip(entropies, entropies[1:]):
        assert hi > lo


def test_entropy_constant_for_constant_scores():
    scores = np.array([0.7, 0.7, 0.7])
    values = {round(entropy(routing_weights(scores, t)), 12) for t in (0.25, 1.0, 4.0)}
    assert values == {round(math.log(3), 12)}


def test_near_zero_temperature_concentrates_on_argmax():
    weights = routing_weights(np.array([0.9, 0.7, 0.1]), 1e-4)
    assert weights[0] >= 1 - 1e-6


def test_temperature_must_be_positive():
    with pytest.raises(ConfigError, match="temperature"):
        routing_weights(np.array([1.0, 0.0]), 0.0)
    with pytest.raises(ConfigError, match="temperature"):
        RouterConfig(temperature=-1.0)
    # an infinite temperature would divide every score to 0 or nan, never a softmax
    with pytest.raises(ConfigError, match="temperature must be finite"):
        routing_weights(np.array([0.5, -np.inf]), math.inf)
    with pytest.raises(ConfigError, match="temperature must be finite"):
        RouterConfig(temperature=math.inf)
    with pytest.raises(ConfigError, match="temperature must be finite"):
        RouterConfig(temperature=math.nan)


def test_all_sentinel_scores_raise():
    with pytest.raises(RoutingError):
        routing_weights(np.array([-np.inf, -np.inf]), 1.0)


def test_router_config_validation():
    with pytest.raises(ConfigError, match="k_per_layer"):
        RouterConfig(k_per_layer=0)
    with pytest.raises(ConfigError, match="layer_score_mode"):
        RouterConfig(layer_score_mode="median")


# --- readout and fusion ----------------------------------------------------------


def test_single_hit_readout_is_that_vector():
    hier = _hier([[_at_sim(0.6)]])
    ctx = _assemble(hier, [_basis(0)], RouterConfig(k_per_layer=1))
    assert np.array_equal(ctx.c, hier.layers[0].vectors[0])


def test_equal_sim_readout_is_plain_mean():
    hier = _hier([[_basis(0), _basis(1)]])
    ctx = _assemble(hier, [(_basis(0) + _basis(1)) / math.sqrt(2)], RouterConfig(k_per_layer=2))
    assert ctx.c[0] == pytest.approx(0.5, abs=1e-12)
    assert ctx.c[1] == pytest.approx(0.5, abs=1e-12)
    assert np.allclose(ctx.c[2:], 0)


def test_readout_weights_follow_sim_softmax():
    # sims 1 and 0 give softmax weights e/(e+1) and 1/(e+1)
    hier = _hier([[_basis(0), _basis(1)]])
    ctx = _assemble(hier, [_basis(0)], RouterConfig(k_per_layer=2))
    e = math.exp(1.0)
    assert ctx.c[0] == pytest.approx(e / (e + 1), abs=1e-12)
    assert ctx.c[1] == pytest.approx(1 / (e + 1), abs=1e-12)
    assert ctx.retrieval.layers[0].within.tolist() == pytest.approx([e / (e + 1), 1 / (e + 1)])


def test_readout_of_no_hits_is_zero_vector():
    # a layer without hits adds nothing: the context is the other layer's readout
    hier = _hier([[_at_sim(0.6)], np.zeros((0, DIM))])
    ctx = _assemble(hier, [_basis(0), _basis(0)], RouterConfig())
    assert np.array_equal(ctx.c, hier.layers[0].vectors[0])


def test_readout_is_not_renormalized():
    # opposing vectors: the weighted mean shrinks, and stays shrunk
    hier = _hier([[_at_sim(0.5, other=1), -_at_sim(0.5, other=2)]])
    ctx = _assemble(hier, [_basis(0)], RouterConfig(k_per_layer=2))
    assert np.linalg.norm(ctx.c) < 1.0


def test_fuse_single_layer_is_identity():
    hier = _hier([[_at_sim(0.9, other=1), _at_sim(0.7, other=2)]])
    ctx = _assemble(hier, [_basis(0)], RouterConfig(k_per_layer=2))
    assert ctx.weights.tolist() == [1.0]
    assert np.array_equal(ctx.c, _readout(ctx.retrieval.layers[0].hits, hier.layers[0]))


def test_fuse_zero_weight_drops_layer_exactly():
    # at a near-zero temperature the weaker layer's weight underflows to exactly 0
    hier = _hier([[_at_sim(0.9, other=1)], [_at_sim(0.2, other=2)]])
    ctx = _assemble(hier, [_basis(0), _basis(0)], RouterConfig(temperature=1e-4))
    assert ctx.weights.tolist() == [1.0, 0.0]
    assert np.array_equal(ctx.c, hier.layers[0].vectors[0])


def test_fuse_hand_sum():
    hier = _hier([[_at_sim(0.6, other=1)], [_at_sim(0.6, other=2)]])
    ctx = _assemble(hier, [_basis(0), _basis(0)], RouterConfig())
    assert ctx.weights == pytest.approx([0.5, 0.5], abs=1e-15)
    hand = 0.5 * hier.layers[0].vectors[0] + 0.5 * hier.layers[1].vectors[0]
    assert np.max(np.abs(ctx.c - hand)) < 1e-15


def test_fuse_is_linear_in_weights(suite_hier):
    # readouts do not depend on the temperature, so contexts mix as their weights do
    hier, queries, _ = suite_hier
    rng = np.random.default_rng(3)
    for q in queries[:4]:
        t1, t2 = rng.uniform(0.2, 4.0, size=2)
        c1 = route(hier, q.text, RouterConfig(k_per_layer=3, temperature=t1))
        c2 = route(hier, q.text, RouterConfig(k_per_layer=3, temperature=t2))
        readouts = np.stack([_readout(c1.retrieval.layers[l - 1].hits, hier.layers[l - 1]) for l in (1, 2, 3)])
        alpha = float(rng.uniform())
        mixed = alpha * c1.c + (1 - alpha) * c2.c
        assert np.max(np.abs(mixed - (alpha * c1.weights + (1 - alpha) * c2.weights) @ readouts)) < 1e-12


# --- route end to end ------------------------------------------------------------


@pytest.fixture(scope="module")
def suite_hier():
    docs, queries, qrels = keyword_eval_suite(n_queries=8, seed=0)
    hier = build(docs, EmbedderSpec(dim=64), depth=3)
    return hier, queries, qrels


def test_route_produces_simplex_weights_and_sorted_paths(suite_hier):
    hier, queries, _ = suite_hier
    ctx = route(hier, queries[0].text, RouterConfig(k_per_layer=3))
    assert abs(ctx.weights.sum() - 1.0) < 1e-9
    assert np.all(ctx.weights >= 0)
    confs = [p.path_confidence for p in ctx.paths]
    assert confs == sorted(confs, reverse=True)
    assert all(0.0 <= c <= 1.0 for c in confs)


def test_route_within_layer_weights_sum_to_one(suite_hier):
    hier, queries, _ = suite_hier
    ctx = route(hier, queries[1].text, RouterConfig(k_per_layer=4))
    for layer_no in (1, 2, 3):
        weights = ctx.retrieval.layers[layer_no - 1].within.tolist()
        if weights:
            assert abs(sum(weights) - 1.0) < 1e-9


def test_route_context_matches_manual_fusion(suite_hier):
    hier, queries, _ = suite_hier
    cfg = RouterConfig(k_per_layer=3)
    ctx = route(hier, queries[2].text, cfg)
    manual = np.zeros(hier.dim)
    for layer_no in range(1, hier.depth + 1):
        hits = ctx.retrieval.layers[layer_no - 1].hits
        manual += ctx.weights[layer_no - 1] * _readout(hits, hier.layers[layer_no - 1])
    assert np.max(np.abs(ctx.c - manual)) < 1e-12


def test_route_is_deterministic(suite_hier):
    hier, queries, _ = suite_hier
    a = route(hier, queries[3].text, RouterConfig())
    b = route(hier, queries[3].text, RouterConfig())
    assert np.array_equal(a.c, b.c)
    assert a.paths == b.paths


def test_route_path_confidence_is_product_of_weights(suite_hier):
    hier, queries, _ = suite_hier
    ctx = route(hier, queries[4].text, RouterConfig(k_per_layer=3))
    for path in ctx.paths:
        hits = ctx.retrieval.layers[path.layer - 1].hits
        within = ctx.retrieval.layers[path.layer - 1].within[[h.unit_id for h in hits].index(path.unit_id)]
        expected = ctx.weights[path.layer - 1] * within
        assert path.path_confidence == pytest.approx(expected, abs=1e-15)


def test_a_subnormal_temperature_puts_all_weight_on_the_top_layers(suite_hier):
    # (z - max) / T overflows to -inf below T ~ 1e-308: exp -> 0 is intended, with no warning
    hier, queries, _ = suite_hier
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tied = routing_weights(np.array([0.9, 0.7, 0.9, -np.inf]), 1e-320)
        ctx = route(hier, queries[6].text, RouterConfig(temperature=1e-320))
    assert tied.tolist() == [0.5, 0.0, 0.5, 0.0]
    top = ctx.scores == ctx.scores.max()
    assert ctx.weights.tolist() == (top / top.sum()).tolist()


def test_a_retrieval_prefix_is_its_first_layers_and_no_more(suite_hier):
    hier, queries, _ = suite_hier
    r = retrieve(hier, queries[5].text, 3)
    top = r.prefix(2)
    assert top.encodings.shape == (2, hier.dim)
    assert [layer.hits for layer in top.layers] == [layer.hits for layer in r.layers[:2]]
    assert all(a.vectors is b.vectors for a, b in zip(top.layers, r.layers[:2], strict=True))
    whole = r.prefix(hier.depth)
    assert whole.layers == r.layers and np.array_equal(whole.encodings, r.encodings)
    for depth in (0, hier.depth + 1):
        with pytest.raises(ValueError, match=rf"prefix depth must lie in \[1, 3\], got {depth}"):
            r.prefix(depth)


def test_a_searched_layer_without_hits_weighs_to_nothing():
    empty = SearchedLayer([], np.zeros((0, DIM)))
    assert empty.within.size == 0
    assert empty.readout.shape == (DIM,) and empty.readout.tobytes() == bytes(8 * DIM)  # all +0.0
    assert empty.max == empty.mean == -np.inf


def test_a_kept_layer_is_itself_whole_or_a_fresh_layer_of_its_survivors():
    hier = _hier([[_at_sim(0.9, other=1), _at_sim(0.7, other=2), _at_sim(0.5, other=3)]])
    r = search_layers(hier, np.stack([_basis(0)]), 3)
    [layer] = r.layers
    assert len(layer.hits) == 3
    for bits in range(8):  # every mask of three hits
        mask = np.array([bits >> i & 1 for i in range(3)], dtype=bool)
        [kept] = r.kept([mask]).layers
        if mask.all():
            assert kept is layer
            continue
        fresh = SearchedLayer([hit for hit, m in zip(layer.hits, mask) if m], layer.vectors[mask])
        assert kept is not layer and kept.hits == fresh.hits
        for name in ("vectors", "sims", "within", "readout"):
            got, want = getattr(kept, name), getattr(fresh, name)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), name
        assert (kept.max, kept.mean) == (fresh.max, fresh.mean)
