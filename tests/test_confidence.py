from __future__ import annotations

import math
from dataclasses import asdict

import numpy as np
import pytest

from mgrag.confidence import GateConfig, entropy, filter_paths, validate_distribution
from mgrag.embedder import EmbedderSpec
from mgrag.errors import ConfigError
from mgrag.generator import GeneratorParams, TrainConfig, build_toy_qa, init_params, train
from mgrag.memory import LayerMemory, MemoryHierarchy, build
from mgrag.router import RouterConfig, assemble, route, search_layers
from oracles import objective

DIM = 8


# --- entropy ---------------------------------------------------------------------


def test_entropy_of_uniform_is_log_v():
    assert entropy(np.full(4, 0.25)) == pytest.approx(math.log(4), abs=1e-12)


def test_entropy_of_one_hot_is_zero():
    assert entropy(np.array([0.0, 1.0, 0.0])) == 0.0


def test_entropy_of_a_point_mass_is_positive_zero():
    # -sum would give -0.0, and depth-1 query and eval JSON would print it
    assert math.copysign(1.0, entropy(np.array([1.0]))) == 1.0


def test_entropy_hand_value():
    # -(1/2)ln(1/2) - 2*(1/4)ln(1/4) = 1.5 ln 2
    assert entropy(np.array([0.5, 0.25, 0.25])) == pytest.approx(1.5 * math.log(2), abs=1e-12)


def test_entropy_bounds_on_random_simplices():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        n = int(rng.integers(2, 9))
        p = rng.dirichlet(np.ones(n))
        h = entropy(p)
        assert -1e-12 <= h <= math.log(n) + 1e-12


@pytest.mark.parametrize(
    "bad, message",
    [
        (np.array([0.5, 0.6]), "sums to"),
        (np.array([1.5, -0.5]), "negative"),
        (np.array([np.nan, 1.0]), "non-finite"),
        (np.ones((2, 2)) / 4, "1-d"),
        (np.array([]), "1-d"),
    ],
)
def test_invalid_distributions_rejected(bad, message):
    with pytest.raises(ValueError, match=message):
        validate_distribution(bad)


# --- variance and the joint objective, as train records them --------------------------


@pytest.fixture(scope="module")
def toy():
    docs, examples = build_toy_qa(n_classes=2, n_per_class=1, seed=4)
    return build(docs, EmbedderSpec(dim=16), depth=2), examples[0]


ROUTER = RouterConfig(k_per_layer=3)


def _report(toy, params, **gate):
    hier, example = toy
    return objective(params, example, hier, TrainConfig(gate=GateConfig(**gate), router=ROUTER))[0]


def _bias_only(b):
    return GeneratorParams(W=np.zeros((len(b), 32)), b=np.array(b, dtype=np.float64))


def test_identical_passes_have_zero_variance(toy):
    # no weight on the features: every perturbed pass predicts the same distribution
    params = _bias_only([0.3, -1.2])
    assert _report(toy, params, ensemble_K=2, noise_sigma=0.5)["variance"] == 0.0


def test_two_opposed_passes_hand_value(toy):
    # W sends perturbed pass 0 to class 0 and pass 1 to class 1, each by a logit margin of
    # 1e4: each class column holds {0, 1}, population variance 0.25, mean over columns 0.25
    hier, example = toy
    sigma = 0.05
    c = route(hier, example.query.text, ROUTER).c
    n0, n1 = (
        np.random.default_rng([0, example.query.query_id, k]).standard_normal(hier.dim) for k in (0, 1)
    )
    d = n0 - n1
    scale = 2e4 / (sigma * (d @ d))
    W = np.zeros((2, 2 * hier.dim))
    W[0, hier.dim :] = scale * d
    b = np.array([-scale * d @ (c + sigma * (n0 + n1) / 2), 0.0])
    report = _report(toy, GeneratorParams(W=W, b=b), ensemble_K=2, noise_sigma=sigma, seed=0)
    assert report["variance"] == pytest.approx(0.25, abs=1e-15)


def test_ensemble_variance_needs_two_passes():
    with pytest.raises(ConfigError, match="ensemble_K"):
        GateConfig(ensemble_K=1)


def test_ensemble_size_is_capped_before_any_draw():
    assert GateConfig(ensemble_K=1024).ensemble_K == 1024
    with pytest.raises(ConfigError, match="ensemble_K must be <= 1024, got 1025"):
        GateConfig(ensemble_K=1025)


def test_ensemble_variance_is_nonnegative(toy):
    for seed in range(20):
        params = init_params(2, 16, seed=seed, scale=3.0)
        assert _report(toy, params, ensemble_K=3, noise_sigma=0.5, seed=seed)["variance"] >= 0.0


def test_intra_variance_of_uniform_is_zero(toy):
    assert _report(toy, _bias_only([0.0, 0.0]), var_mode="intra")["variance"] == 0.0


def test_intra_variance_hand_value(toy):
    # a bias margin of 1000 makes the prediction exactly one-hot over 2 classes:
    # mean of (1-1/2)^2 and (0-1/2)^2
    assert _report(toy, _bias_only([1000.0, 0.0]), var_mode="intra")["variance"] == pytest.approx(
        0.25, abs=1e-15
    )


def test_combined_objective_hand_value(toy):
    params = init_params(2, 16, seed=1, scale=2.0)
    r = _report(toy, params, lambda1=0.1, lambda2=0.3, noise_sigma=0.5)
    assert r["variance"] > 0
    assert r["loss"] == pytest.approx(r["nll"] + 0.1 * r["entropy"] + 0.3 * r["variance"], abs=1e-15)


def test_objective_is_affine_in_each_coefficient(toy):
    params = init_params(2, 16, seed=2, scale=2.0)
    base = _report(toy, params, noise_sigma=0.5)
    for d in (0.5, 2.0):
        low = _report(toy, params, lambda1=0.0, lambda2=0.4, noise_sigma=0.5)["loss"]
        high = _report(toy, params, lambda1=d, lambda2=0.4, noise_sigma=0.5)["loss"]
        assert high - low == pytest.approx(d * base["entropy"], abs=1e-12)
        low = _report(toy, params, lambda1=0.2, lambda2=0.0, noise_sigma=0.5)["loss"]
        high = _report(toy, params, lambda1=0.2, lambda2=d, noise_sigma=0.5)["loss"]
        assert high - low == pytest.approx(d * base["variance"], abs=1e-12)


def test_objective_rejects_non_finite_terms(toy):
    # finite weights whose logits overflow: the objective is NaN and must not pass silently,
    # so train records no row for it and flags the run as diverged
    hier, example = toy
    ctx = route(hier, example.query.text, ROUTER)
    x = np.concatenate([ctx.retrieval.encodings[0], ctx.c])
    w = np.stack([1e308 * np.sign(x), -1e308 * np.sign(x)])
    cfg = TrainConfig(epochs=1, gate=GateConfig(), router=ROUTER)
    with np.errstate(over="ignore", invalid="ignore"):
        result = train([example], hier, cfg, params=GeneratorParams(W=w, b=np.zeros(2)))
    assert result.diverged
    assert result.history == []


def test_gate_config_validation():
    with pytest.raises(ConfigError, match="tau_path"):
        GateConfig(tau_path=1.5)
    with pytest.raises(ConfigError, match="lambda"):
        GateConfig(lambda1=-0.1)
    with pytest.raises(ConfigError, match="ensemble_K"):
        GateConfig(ensemble_K=1)
    with pytest.raises(ConfigError, match="noise_sigma"):
        GateConfig(noise_sigma=-1.0)
    for field in ("lambda1", "lambda2", "noise_sigma"):
        for value in (math.nan, math.inf):
            with pytest.raises(ConfigError, match=f"{field} must be finite and >= 0, got {value}"):
                GateConfig(**{field: value})
    with pytest.raises(ConfigError, match="var_mode"):
        GateConfig(var_mode="both")
    with pytest.raises(ConfigError, match="seed must be >= 0, got -1"):
        GateConfig(seed=-1)


def test_gate_config_round_trips_through_dict():
    cfg = GateConfig(tau_path=0.1, lambda1=0.2, lambda2=0.3, ensemble_K=4, noise_sigma=0.01, seed=9)
    assert GateConfig(**asdict(cfg)) == cfg


# --- path gating ---------------------------------------------------------------------


def _basis(i):
    v = np.zeros(DIM)
    v[i] = 1.0
    return v


def _at_sim(target, other):
    v = np.zeros(DIM)
    v[0] = target
    v[other] = math.sqrt(1.0 - target * target)
    return v


def _two_layer_hier():
    # layer 1 sims to e1: 0.9 and 0.5; layer 2: a single 0.2 unit
    l1 = np.stack([_at_sim(0.9, 1), _at_sim(0.5, 2)])
    l2 = _at_sim(0.2, 3)[None, :]
    layers = [
        LayerMemory(1, ["00000001:1:00000", "00000002:1:00000"], np.array([1, 2], dtype=np.int64), l1),
        LayerMemory(2, ["00000003:2:00000"], np.array([3], dtype=np.int64), l2),
    ]
    return MemoryHierarchy(layers, EmbedderSpec(dim=DIM), "0" * 64, 3)


def _route_basis(hier, cfg):
    # route() for a query whose encoding is e1 at every layer
    return assemble(search_layers(hier, np.tile(_basis(0), (hier.depth, 1)), cfg.k_per_layer), cfg)


def _readout(hits, mem):
    # oracle: similarity-softmax-weighted mean of the hits' stored vectors
    sims = np.array([h.sim for h in hits])
    w = np.exp(sims - sims.max())
    return (w / w.sum()) @ mem.vectors[[h.row for h in hits]]


def test_tau_zero_returns_the_same_object():
    ctx = _route_basis(_two_layer_hier(), RouterConfig(k_per_layer=2))
    assert filter_paths(ctx, 0.0) is ctx


def test_gate_that_drops_everything_bypasses():
    ctx = _route_basis(_two_layer_hier(), RouterConfig(k_per_layer=2))
    gated = filter_paths(ctx, 1.0)
    assert gated.gate_bypassed
    assert gated.paths == ctx.paths
    assert np.array_equal(gated.c, ctx.c)


def test_gate_that_keeps_everything_returns_input():
    ctx = _route_basis(_two_layer_hier(), RouterConfig(k_per_layer=2))
    floor = min(p.path_confidence for p in ctx.paths)
    assert filter_paths(ctx, floor * 0.5) is ctx


def test_gated_context_matches_hand_recomputation():
    hier = _two_layer_hier()
    cfg = RouterConfig(k_per_layer=2)
    ctx = _route_basis(hier, cfg)

    # hand-derive the ungated confidences first
    a = np.exp(np.array([0.7, 0.2]))  # layer scores: mean(0.9, 0.5) and 0.2
    a /= a.sum()
    w1 = np.exp(np.array([0.9, 0.5]))
    w1 /= w1.sum()
    expected = sorted([a[0] * w1[0], a[0] * w1[1], a[1] * 1.0], reverse=True)
    got = [p.path_confidence for p in ctx.paths]
    assert got == pytest.approx(expected, abs=1e-12)

    # the weakest path is layer 1's 0.5-sim unit: a[0]*w1[1] < a[0]*w1[0] and < a[1]
    assert a[0] * w1[1] == pytest.approx(expected[-1], abs=1e-12)
    tau = (expected[-1] + expected[-2]) / 2
    gated = filter_paths(ctx, tau)
    assert not gated.gate_bypassed
    kept = {(p.layer, p.unit_id) for p in gated.paths}
    assert kept == {(1, "00000001:1:00000"), (2, "00000003:2:00000")}

    # survivors re-route: layer scores become (0.9, 0.2), one unit per layer
    hand_weights = np.exp(np.array([0.9, 0.2]))
    hand_weights /= hand_weights.sum()
    assert gated.weights == pytest.approx(hand_weights, abs=1e-12)
    hand_c = hand_weights[0] * hier.layers[0].vectors[0] + hand_weights[1] * hier.layers[1].vectors[0]
    assert np.max(np.abs(gated.c - hand_c)) < 1e-12
    assert [p.path_confidence for p in gated.paths] == pytest.approx(
        sorted(hand_weights, reverse=True), abs=1e-12
    )


def test_gated_fusion_recomputes_through_readout():
    hier = _two_layer_hier()
    cfg = RouterConfig(k_per_layer=2)
    ctx = _route_basis(hier, cfg)
    confs = sorted(p.path_confidence for p in ctx.paths)
    tau = (confs[0] + confs[1]) / 2
    gated = filter_paths(ctx, tau)
    manual = np.zeros(DIM)
    for layer_no in (1, 2):
        hits = gated.retrieval.layers[layer_no - 1].hits
        if hits:
            manual += gated.weights[layer_no - 1] * _readout(hits, hier.layers[layer_no - 1])
    assert np.max(np.abs(gated.c - manual)) < 1e-12


def test_kept_set_shrinks_monotonically_in_tau():
    hier = _two_layer_hier()
    ctx = _route_basis(hier, RouterConfig(k_per_layer=2))
    taus = [0.0, 0.05, 0.1, 0.2, 0.3, 0.5, 0.9]
    previous = None
    for tau in taus:
        gated = filter_paths(ctx, tau)
        kept = (
            {(p.layer, p.unit_id) for p in ctx.paths}
            if gated.gate_bypassed
            else {(p.layer, p.unit_id) for p in gated.paths}
        )
        if previous is not None and not gated.gate_bypassed:
            assert kept <= previous
        if not gated.gate_bypassed:
            previous = kept


def test_gated_weights_stay_on_simplex_for_real_routes():
    from mgrag.corpus import keyword_eval_suite

    docs, queries, _ = keyword_eval_suite(n_queries=6, seed=2)
    hier = build(docs, EmbedderSpec(dim=64), depth=3)
    for q in queries:
        ctx = route(hier, q.text, RouterConfig(k_per_layer=3))
        for tau in (0.01, 0.05, 0.2):
            gated = filter_paths(ctx, tau)
            assert abs(gated.weights.sum() - 1.0) < 1e-9
            assert np.all(gated.weights >= 0)
            if not gated.gate_bypassed:
                assert all(p.path_confidence >= 0 for p in gated.paths)


def test_filter_paths_validates_tau():
    ctx = _route_basis(_two_layer_hier(), RouterConfig(k_per_layer=2))
    with pytest.raises(ConfigError, match="tau_path"):
        filter_paths(ctx, -0.1)
    with pytest.raises(ConfigError, match="tau_path"):
        filter_paths(ctx, 1.1)
