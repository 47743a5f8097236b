from __future__ import annotations

import hashlib
import json
import math
from dataclasses import replace

import numpy as np
import pytest

import mgrag.router
from mgrag.confidence import GateConfig, filter_paths
from mgrag.corpus import parse_jsonl_qa, read_jsonl_qa
from mgrag.embedder import EmbedderSpec, embed
from mgrag.errors import ConfigError, ParseError
from mgrag.generator import (
    GeneratorParams,
    QAExample,
    TrainConfig,
    answer_params,
    build_toy_qa,
    descend,
    features,
    gradient_check,
    init_params,
    load_params,
    perturbations,
    save_params,
    train,
)
from mgrag.memory import build
from mgrag.router import RouterConfig, retrieve, route
from oracles import nll, objective, predict

DIM = 16


@pytest.fixture(scope="module")
def toy():
    docs, examples = build_toy_qa(n_classes=4, n_per_class=2, seed=1)
    hier = build(docs, EmbedderSpec(dim=DIM), depth=2)
    return hier, examples


def _cfg(**gate_kwargs) -> TrainConfig:
    defaults = dict(ensemble_K=3, noise_sigma=0.05, seed=0)
    defaults.update(gate_kwargs)
    return TrainConfig(gate=GateConfig(**defaults), router=RouterConfig(k_per_layer=3))


# --- prediction --------------------------------------------------------------------


def test_zero_params_predict_uniform(toy):
    hier, examples = toy
    ctx = route(hier, examples[0].query.text, RouterConfig())
    params = GeneratorParams(W=np.zeros((4, 2 * DIM)), b=np.zeros(4))
    h = embed(examples[0].query.text, 1, hier.embedder_spec)
    p = predict(params, h, ctx)
    assert np.allclose(p, 0.25, atol=1e-15)
    assert abs(p.sum() - 1.0) < 1e-12


def test_large_bias_dominates_prediction(toy):
    hier, examples = toy
    ctx = route(hier, examples[0].query.text, RouterConfig())
    b = np.array([10.0, 0.0, 0.0, 0.0])
    params = GeneratorParams(W=np.zeros((4, 2 * DIM)), b=b)
    h = embed(examples[0].query.text, 1, hier.embedder_spec)
    p = predict(params, h, ctx)
    assert p[0] > 0.999
    assert abs(p.sum() - 1.0) < 1e-12


def test_predictions_lie_on_simplex(toy):
    hier, examples = toy
    rng = np.random.default_rng(5)
    h = embed(examples[0].query.text, 1, hier.embedder_spec)
    ctx = route(hier, examples[0].query.text, RouterConfig())
    for _ in range(20):
        params = GeneratorParams(W=rng.standard_normal((6, 2 * DIM)) * 3, b=rng.standard_normal(6))
        p = predict(params, h, ctx)
        assert np.all(p >= 0)
        assert abs(p.sum() - 1.0) < 1e-12


def test_nll_hand_values():
    assert nll(np.array([1.0, 0.0]), 0) == 0.0
    assert nll(np.array([0.5, 0.5]), 1) == pytest.approx(math.log(2), abs=1e-15)
    assert nll(np.full(4, 0.25), 2) == pytest.approx(math.log(4), abs=1e-15)


def test_nll_is_finite_for_zero_probability():
    v = nll(np.array([1.0, 0.0]), 1)
    assert np.isfinite(v)
    assert v > 100


def test_nll_rejects_bad_gold():
    with pytest.raises(ValueError, match="out of range"):
        nll(np.array([0.5, 0.5]), 2)


# --- objective ----------------------------------------------------------------------


def test_total_loss_reduces_to_nll_without_penalties(toy):
    hier, examples = toy
    params = init_params(4, DIM, seed=3)
    cfg = _cfg(lambda1=0.0, lambda2=0.0)
    ex = examples[0]
    row, _, _ = objective(params, ex, hier, cfg)
    h = embed(ex.query.text, 1, hier.embedder_spec)
    ctx = filter_paths(route(hier, ex.query.text, cfg.router), cfg.gate.tau_path)
    assert row["loss"] == pytest.approx(nll(predict(params, h, ctx), ex.gold), abs=1e-12)
    assert row["loss"] == row["nll"]


def test_zero_noise_means_zero_variance(toy):
    hier, examples = toy
    params = init_params(4, DIM, seed=3)
    row, _, _ = objective(params, examples[0], hier, _cfg(lambda2=0.5, noise_sigma=0.0))
    assert row["variance"] == 0.0


def test_total_loss_is_deterministic(toy):
    hier, examples = toy
    params = init_params(4, DIM, seed=3)
    cfg = _cfg(lambda1=0.2, lambda2=0.4)
    a = objective(params, examples[1], hier, cfg)
    b = objective(params, examples[1], hier, cfg)
    assert a[0] == b[0]
    assert np.array_equal(a[1], b[1]) and np.array_equal(a[2], b[2])


def test_noise_seed_changes_variance(toy):
    hier, examples = toy
    params = init_params(4, DIM, seed=3)
    r0, _, _ = objective(params, examples[0], hier, _cfg(lambda2=0.5, seed=0))
    r1, _, _ = objective(params, examples[0], hier, _cfg(lambda2=0.5, seed=1))
    assert r0["variance"] != r1["variance"]


# --- gradients ----------------------------------------------------------------------


def _fd_oracle(params, example, hier, cfg, step=1e-5):
    # written independently of the module's own checker: brute-force central
    # differences over every parameter entry, straight off the objective train records
    def at(w, b):
        return objective(GeneratorParams(W=w, b=b), example, hier, cfg)[0]["loss"]

    dw = np.zeros_like(params.W)
    for i in range(params.W.shape[0]):
        for j in range(params.W.shape[1]):
            hi, lo = params.W.copy(), params.W.copy()
            hi[i, j] += step
            lo[i, j] -= step
            dw[i, j] = (at(hi, params.b) - at(lo, params.b)) / (2 * step)
    db = np.zeros_like(params.b)
    for i in range(params.b.shape[0]):
        hi, lo = params.b.copy(), params.b.copy()
        hi[i] += step
        lo[i] -= step
        db[i] = (at(params.W, hi) - at(params.W, lo)) / (2 * step)
    return dw, db


@pytest.mark.parametrize(
    "lambda1, lambda2, var_mode",
    [
        (0.0, 0.0, "ensemble"),
        (0.7, 0.0, "ensemble"),
        (0.0, 0.7, "ensemble"),
        (0.7, 0.7, "ensemble"),
        (0.3, 0.3, "intra"),
    ],
)
def test_analytic_gradient_matches_fd_oracle(toy, lambda1, lambda2, var_mode):
    hier, examples = toy
    params = init_params(4, DIM, seed=11, scale=0.5)
    cfg = _cfg(lambda1=lambda1, lambda2=lambda2, var_mode=var_mode)
    ex = examples[2]
    _, a_w, a_b = objective(params, ex, hier, cfg)
    f_w, f_b = _fd_oracle(params, ex, hier, cfg)
    analytic = np.concatenate([a_w.ravel(), a_b])
    numeric = np.concatenate([f_w.ravel(), f_b])
    rel = np.abs(analytic - numeric) / np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-4)
    assert float(rel.max()) < 1e-4


def test_builtin_gradient_check_passes(toy):
    hier, examples = toy
    params = init_params(4, DIM, seed=7, scale=0.3)
    assert gradient_check(params, examples[0], hier, _cfg(lambda1=0.5, lambda2=0.5)) < 1e-4


def test_gradient_check_routes_its_example_once(toy, monkeypatch):
    # retrieval is constant in the parameters: the differences reuse one search
    hier, examples = toy
    calls = []

    def counted(hier, text, k):
        calls.append(text)
        return retrieve(hier, text, k)

    monkeypatch.setattr(mgrag.router, "retrieve", counted)
    params = init_params(4, DIM, seed=7, scale=0.3)
    assert gradient_check(params, examples[0], hier, _cfg(lambda1=0.5, lambda2=0.5)) < 1e-4
    assert calls == [examples[0].query.text]


def test_gradient_check_raises_on_a_non_finite_objective(toy):
    # a NaN error would pass `max(worst, err)` in the CLI as if the check held
    hier, examples = toy
    ex = QAExample(query=examples[0].query, gold=0)
    cfg = _cfg(lambda1=0.0, lambda2=0.0)
    ctx = route(hier, ex.query.text, cfg.router)
    x = np.concatenate([ctx.retrieval.encodings[0], ctx.c])
    w = np.stack([1e308 * np.sign(x), -1e308 * np.sign(x)])
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="not finite"):
            gradient_check(GeneratorParams(W=w, b=np.zeros(2)), ex, hier, cfg)


def test_bias_gradient_is_residual_without_penalties(toy):
    hier, examples = toy
    params = init_params(4, DIM, seed=3, scale=0.2)
    cfg = _cfg(lambda1=0.0, lambda2=0.0)
    ex = examples[1]
    _, _, db = objective(params, ex, hier, cfg)
    h = embed(ex.query.text, 1, hier.embedder_spec)
    ctx = route(hier, ex.query.text, cfg.router)
    p = predict(params, h, ctx)
    onehot = np.zeros_like(p)
    onehot[ex.gold] = 1.0
    assert np.max(np.abs(db - (p - onehot))) < 1e-12


def test_saturated_model_has_vanishing_gradient(toy):
    hier, examples = toy
    ex = examples[0]
    b = np.zeros(4)
    b[ex.gold] = 50.0
    params = GeneratorParams(W=np.zeros((4, 2 * DIM)), b=b)
    _, dw, db = objective(params, ex, hier, _cfg(lambda1=0.0, lambda2=0.0))
    assert np.max(np.abs(dw)) < 1e-6
    assert np.max(np.abs(db)) < 1e-6


@pytest.mark.parametrize(
    "gate",
    [dict(var_mode="ensemble", noise_sigma=0.05), dict(var_mode="intra")],
    ids=["ensemble", "intra"],
)
def test_one_epoch_steps_by_the_checked_gradient(toy, gate):
    # train's update is -lr times the mean of the per-example gradients that
    # gradient_check verifies against finite differences
    hier, examples = toy
    cfg = TrainConfig(
        lr=0.3, epochs=1, router=RouterConfig(k_per_layer=3),
        gate=GateConfig(lambda1=0.3, lambda2=0.7, ensemble_K=3, seed=0, **gate),
    )
    params = init_params(4, DIM, seed=11, scale=0.5)
    grads = [objective(params, ex, hier, cfg)[1:] for ex in examples]
    step_w = cfg.lr * np.mean([g[0] for g in grads], axis=0)
    step_b = cfg.lr * np.mean([g[1] for g in grads], axis=0)
    result = train(examples, hier, cfg, params=params)
    assert np.max(np.abs(result.params.W - (params.W - step_w))) < 1e-12
    assert np.max(np.abs(result.params.b - (params.b - step_b))) < 1e-12
    assert gradient_check(params, examples[0], hier, cfg) < 1e-4


# --- training ----------------------------------------------------------------------


def test_training_separates_the_toy_set(toy):
    hier, examples = toy
    cfg = TrainConfig(
        lr=0.5, epochs=500, gate=GateConfig(ensemble_K=2), router=RouterConfig(k_per_layer=3)
    )
    result = train(examples, hier, cfg)
    assert not result.diverged
    assert result.accuracy == 1.0


@pytest.mark.parametrize("epochs", [0, 1, 20])
@pytest.mark.parametrize("tau", [0.0, 0.04])
def test_train_accuracy_is_that_of_the_returned_params(toy, epochs, tau):
    # recount through predict, example by example, with the gated context
    hier, examples = toy
    cfg = TrainConfig(lr=0.5, epochs=epochs, router=RouterConfig(k_per_layer=3),
                      gate=GateConfig(ensemble_K=2, lambda1=0.1, lambda2=0.1, tau_path=tau))
    result = train(examples, hier, cfg, params=init_params(4, DIM, seed=5))
    hits = 0
    for ex in examples:
        ctx = filter_paths(route(hier, ex.query.text, cfg.router), cfg.gate.tau_path)
        hits += int(np.argmax(predict(result.params, ctx.retrieval.encodings[0], ctx))) == ex.gold
    assert result.accuracy == hits / len(examples)


@pytest.mark.parametrize(
    "gate",
    [GateConfig(ensemble_K=3, lambda1=0.1, lambda2=0.5, tau_path=0.05),
     GateConfig(var_mode="intra", lambda2=0.5, tau_path=0.05),
     GateConfig(noise_sigma=0.0, lambda2=0.5)],
    ids=["ensemble-gated", "intra-gated", "no-noise"],
)
def test_train_on_given_prefix_searches_equals_train_that_routes(gate):
    # what sweep does: search and draw once on the deepest index, train each depth on a prefix
    docs, examples = build_toy_qa(n_classes=4, n_per_class=2, seed=1)
    spec = EmbedderSpec(dim=DIM)
    deep = build(docs, spec, depth=5)
    cfg = TrainConfig(lr=0.5, epochs=4, gate=gate, router=RouterConfig(k_per_layer=2, temperature=0.7))
    searches = [retrieve(deep, ex.query.text, 2) for ex in examples]
    noise = perturbations(examples, gate, DIM)
    assert (noise is None) == (gate.noise_sigma == 0 or gate.var_mode == "intra")
    params = answer_params(examples, DIM, gate.seed)
    for depth in (1, 3, 5):
        X, golds = features(examples, replace(deep, layers=deep.layers[:depth]), cfg, params.vocab_size,
                            retrievals=[r.prefix(depth) for r in searches])
        [given] = descend(params, X[None], noise, golds, cfg)
        routed = train(examples, build(docs, spec, depth), cfg)
        assert given.params.W.tobytes() == routed.params.W.tobytes()
        assert given.params.b.tobytes() == routed.params.b.tobytes()
        assert given.history == routed.history


def test_features_rejects_searches_not_aligned_with_its_dataset(toy):
    hier, examples = toy
    searches = [retrieve(hier, ex.query.text, 3) for ex in examples[1:]]
    with pytest.raises(ValueError):
        features(examples, hier, _cfg(), answer_params(examples, DIM, 0).vocab_size, retrievals=searches)


def test_entropy_penalty_sharpens_predictions(toy):
    hier, examples = toy
    base = dict(lr=0.5, epochs=120, router=RouterConfig(k_per_layer=3))
    free = train(examples, hier, TrainConfig(gate=GateConfig(ensemble_K=2, lambda1=0.0), **base))
    reg = train(examples, hier, TrainConfig(gate=GateConfig(ensemble_K=2, lambda1=0.5), **base))
    assert reg.history[-1]["entropy"] < free.history[-1]["entropy"]


def test_zero_epochs_returns_params_unchanged(toy):
    hier, examples = toy
    params = init_params(4, DIM, seed=9)
    cfg = TrainConfig(epochs=0, gate=GateConfig(ensemble_K=2), router=RouterConfig())
    result = train(examples, hier, cfg, params=params)
    assert np.array_equal(result.params.W, params.W)
    assert np.array_equal(result.params.b, params.b)
    assert result.history == []
    assert result.params is not params  # trained copy, caller's object untouched


def test_small_steps_never_increase_the_loss(toy):
    hier, examples = toy
    cfg = TrainConfig(
        lr=0.01, epochs=100, gate=GateConfig(ensemble_K=2, lambda1=0.1, lambda2=0.1),
        router=RouterConfig(k_per_layer=3),
    )
    result = train(examples, hier, cfg)
    losses = [row["loss"] for row in result.history]
    for before, after in zip(losses, losses[1:]):
        assert after <= before + 1e-9


def test_history_rows_have_the_full_schema(toy):
    hier, examples = toy
    cfg = TrainConfig(epochs=3, gate=GateConfig(ensemble_K=2), router=RouterConfig())
    result = train(examples, hier, cfg)
    assert len(result.history) == 3
    for i, row in enumerate(result.history):
        assert set(row) == {"epoch", "loss", "nll", "entropy", "variance", "accuracy"}
        assert row["epoch"] == i


def test_training_is_deterministic(toy):
    hier, examples = toy
    cfg = TrainConfig(epochs=20, gate=GateConfig(ensemble_K=2, lambda2=0.3), router=RouterConfig())
    a = train(examples, hier, cfg)
    b = train(examples, hier, cfg)
    assert np.array_equal(a.params.W, b.params.W)
    assert a.history == b.history


def test_divergence_is_flagged_not_raised(toy):
    hier, examples = toy
    ex = QAExample(query=examples[0].query, gold=0)
    cfg = TrainConfig(lr=0.1, epochs=3, gate=GateConfig(ensemble_K=2), router=RouterConfig())
    h = embed(ex.query.text, 1, hier.embedder_spec)
    x = np.concatenate([h, route(hier, ex.query.text, cfg.router).c])
    assert np.abs(x).sum() > 2  # the sign-matched row below then overflows z
    w = np.stack([1e308 * np.sign(x), -1e308 * np.sign(x)])
    with np.errstate(over="ignore", invalid="ignore"):
        result = train([ex], hier, cfg, params=GeneratorParams(W=w, b=np.zeros(2)))
    assert result.diverged
    assert result.history == []


@pytest.mark.parametrize(
    "gate",
    [GateConfig(ensemble_K=3, lambda1=1e6, lambda2=0.5),
     GateConfig(var_mode="intra", lambda1=1e6, lambda2=0.5)],
    ids=["ensemble", "intra"],
)
def test_a_batch_of_cells_descends_as_each_cell_alone(gate):
    # one stacked descent gives every cell the bits of its own one-cell run, and a cell that
    # diverges, at its loss or at its gradient after a finite loss, drops out without touching
    # the others
    docs, examples = build_toy_qa(n_classes=4, n_per_class=2, seed=1)
    deep = build(docs, EmbedderSpec(dim=DIM), depth=3)
    # the huge entropy weight lets a finite loss have an overflowing gradient; the tiny step
    # keeps the other cells finite
    cfg = TrainConfig(lr=1e-7, epochs=5, gate=gate, router=RouterConfig(k_per_layer=3))
    params = init_params(4, DIM, seed=11, scale=0.5)
    params.W[:, 0] = 0.0  # feature 0 moves no logit until the first update
    cells = [features(examples, replace(deep, layers=deep.layers[:depth]),
                      replace(cfg, router=replace(cfg.router, temperature=temp)), 4)
             for depth, temp in ((1, 0.5), (3, 2.0), (2, 1.0), (3, 0.7), (2, 1.5))]
    X = np.stack([x for x, _ in cells])
    golds = cells[0][1]
    noise = perturbations(examples, gate, DIM)
    X[1, 0, 1] = np.nan  # non-finite loss at epoch 0
    X[2, 0, 0] = 1e308  # finite loss, overflowing gradient at epoch 0
    X[3, 0, 0] = 1e200  # finite epoch 0, whose update makes epoch 1's loss overflow
    with np.errstate(all="ignore"):
        batched = descend(params, X, noise, golds, cfg)
        alone = [descend(params, X[c : c + 1], noise, golds, cfg)[0] for c in range(len(cells))]
    assert [(len(r.history), r.diverged) for r in batched] == [(5, False), (0, True), (1, True),
                                                               (1, True), (5, False)]
    for got, want in zip(batched, alone, strict=True):
        assert got.params.W.tobytes() == want.params.W.tobytes()
        assert got.params.b.tobytes() == want.params.b.tobytes()
        assert got.history == want.history
        assert (got.accuracy, got.diverged) == (want.accuracy, want.diverged)
    assert params.W[0, 0] == 0.0  # the caller's parameters stay untouched


def _train_digest(result) -> str:
    digest = hashlib.sha256(json.dumps(result.history, sort_keys=True).encode())
    digest.update(result.params.W.tobytes())
    digest.update(result.params.b.tobytes())
    digest.update(repr((result.accuracy, result.diverged)).encode())
    return digest.hexdigest()


@pytest.mark.parametrize(
    "gate, digest",
    [
        (GateConfig(ensemble_K=4, lambda1=0.1, lambda2=0.3),
         "5689956a495e12af6d826b2a803877ede10efafb14533c107da258e1acddb457"),
        (GateConfig(var_mode="intra", lambda1=0.1, lambda2=0.5),
         "45fb7457d7a2aab6b11af65833c8cb0ca0885420f2a2581e71cf3bb9aeeac96a"),
        (GateConfig(tau_path=0.05, ensemble_K=16, lambda2=0.3),
         "fe441a1224c6e8a9ab489a53b34a2502a0a3f0a669ed4e1cb18e753bbb5a02f5"),
    ],
    ids=["ensemble", "intra", "gated"],
)
def test_training_outputs_are_pinned(toy, gate, digest):
    # digests of the per-example training loop that the stacked descent replaced: history,
    # parameters and accuracy must keep every bit (a different BLAS may round differently)
    hier, examples = toy
    result = train(examples, hier, TrainConfig(lr=0.5, epochs=30, gate=gate,
                                               router=RouterConfig(k_per_layer=3)))
    assert _train_digest(result) == digest


def test_a_gold_too_large_to_train_is_a_config_error(toy):
    # the class count is the largest gold + 1: refuse it before allocating W
    hier, examples = toy
    huge = [QAExample(query=examples[0].query, gold=10_000_000)]
    with pytest.raises(ConfigError, match="gold 10000000: .* exceeds 16777216 weights"):
        train(huge, hier, TrainConfig(epochs=1))


def test_train_rejects_empty_dataset(toy):
    hier, _ = toy
    with pytest.raises(ValueError, match="empty"):
        train([], hier, TrainConfig(gate=GateConfig(), router=RouterConfig()))


def test_train_rejects_out_of_range_gold(toy):
    hier, examples = toy
    params = init_params(2, DIM)
    bad = [QAExample(query=examples[0].query, gold=3)]
    with pytest.raises(ValueError, match="out of range"):
        train(bad, hier, TrainConfig(gate=GateConfig(), router=RouterConfig()), params=params)


def test_qa_accuracy_bounds_and_empty(toy):
    # the empty dataset is test_train_rejects_empty_dataset's case
    hier, examples = toy
    cfg = TrainConfig(epochs=0, gate=GateConfig(), router=RouterConfig())
    acc = train(examples, hier, cfg, params=init_params(4, DIM, seed=0)).accuracy
    assert 0.0 <= acc <= 1.0


# --- params and datasets on disk --------------------------------------------------------


def test_params_round_trip_bit_exact(tmp_path):
    params = init_params(5, DIM, seed=4, scale=1.3)
    path = tmp_path / "params.json"
    save_params(params, path)
    loaded = load_params(path)
    assert np.array_equal(loaded.W, params.W)
    assert np.array_equal(loaded.b, params.b)


def test_load_params_rejects_garbage(tmp_path):
    path = tmp_path / "bad.json"
    # bad syntax, nesting too deep to decode, an integer too long to convert
    for text in ("{not json", "[" * 100_000, '{"format_version": ' + "9" * 5_000 + "}"):
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ParseError, match="not valid JSON"):
            load_params(path)
    # valid JSON that is not a params file names the file instead of a raw error
    w = [[0.0, 1.0], [1.0, 0.0]]
    for data, message in [
        ([1], "must be a JSON object"),
        ({"format_version": 1}, "lack key 'W'"),
        ({"format_version": 1, "W": [[0.0, 1.0], [1.0]], "b": [0.0, 0.0]}, "bad params"),
        ({"format_version": 1, "W": w, "b": [0.0, 0.0, 0.0]}, "shape mismatch"),
        ({"format_version": 1, "W": [["a", "b"], [1.0, 0.0]], "b": [0.0, 0.0]}, "bad params"),
    ]:
        path.write_text(json.dumps(data), encoding="utf-8")
        with pytest.raises(ParseError, match=message) as exc_info:
            load_params(path)
        assert str(exc_info.value).startswith(f"{path}: ")


def test_params_validation():
    with pytest.raises(ValueError, match="shape mismatch"):
        GeneratorParams(W=np.zeros((3, 4)), b=np.zeros(2))
    with pytest.raises(ValueError, match="finite"):
        GeneratorParams(W=np.full((2, 4), np.nan), b=np.zeros(2))


@pytest.mark.parametrize("lr", [0.0, -0.1, math.inf, math.nan])
def test_train_config_validation(lr):
    # an infinite step size trains a NaN model, so it is rejected like a zero one
    with pytest.raises(ConfigError, match=f"lr must be finite and > 0, got {lr}"):
        TrainConfig(lr=lr)
    with pytest.raises(ConfigError, match="epochs must be >= 0, got -1"):
        TrainConfig(epochs=-1)


def test_init_params_seeded_and_validated():
    a = init_params(4, DIM, seed=2)
    b = init_params(4, DIM, seed=2)
    assert np.array_equal(a.W, b.W)
    assert np.array_equal(a.b, np.zeros(4))
    with pytest.raises(ConfigError, match="vocab_size"):
        init_params(1, DIM)
    assert init_params((1 << 23) // DIM, DIM).W.size == 1 << 24
    with pytest.raises(ConfigError, match="1048576 classes over 32 features exceeds 16777216 weights"):
        init_params(1 << 20, DIM)


def test_qa_example_rejects_negative_gold(toy):
    _, examples = toy
    with pytest.raises(ValueError, match="gold"):
        QAExample(query=examples[0].query, gold=-1)


def test_qa_jsonl_round_trip(tmp_path):
    _, examples = build_toy_qa(n_classes=3, n_per_class=2, seed=5)
    text = "".join(
        json.dumps({"query_id": ex.query.query_id, "text": ex.query.text, "gold": ex.gold}) + "\n"
        for ex in examples
    )
    assert parse_jsonl_qa(text) == examples
    path = tmp_path / "qa.jsonl"
    path.write_text(text, encoding="utf-8")
    assert read_jsonl_qa(path) == examples


@pytest.mark.parametrize(
    "line, message",
    [
        ("{broken", "invalid JSON"),
        ('{"query_id": 1, "text": "x"}', "'gold' must be an integer, got None"),
        ('{"query_id": "one", "text": "x", "gold": 0}', "'query_id' must be an integer, got 'one'"),
        pytest.param("[" * 100_000, "invalid JSON", id="deep-nesting"),
        pytest.param('{"query_id": ' + "9" * 5_000 + "}", "invalid JSON", id="huge-int"),
    ],
)
def test_qa_jsonl_parse_errors_carry_line_numbers(line, message):
    good = '{"gold": 0, "query_id": 1, "text": "fine"}'
    with pytest.raises(ParseError, match="line 2") as exc_info:
        parse_jsonl_qa(good + "\n" + line)
    assert message in str(exc_info.value)


@pytest.mark.parametrize(
    "line, message",
    [
        ("5", "must hold an object"),
        ('["query_id", "text", "gold"]', "must hold an object"),
        ('{"query_id": true, "text": "x", "gold": 0}', "'query_id' must be an integer, got True"),
        ('{"query_id": 1, "text": "x", "gold": false}', "'gold' must be an integer, got False"),
        ('{"query_id": 1, "text": "x", "gold": 1.0}', "'gold' must be an integer, got 1.0"),
        ('{"query_id": 1, "text": ["a"], "gold": 0}', "'text' must be a string"),
        ('{"query_id": 1, "text": null, "gold": 0}', "'text' must be a string"),
        ('{"query_id": 1, "text": "x", "gold": -1}', "'gold' must be >= 0, got -1"),
        # the id range of query files; the id also seeds the perturbation draws
        ('{"query_id": -1, "text": "x", "gold": 0}', "'query_id' must be in [1, 99999999]"),
        ('{"query_id": 0, "text": "x", "gold": 0}', "'query_id' must be in [1, 99999999]"),
        ('{"query_id": 100000000, "text": "x", "gold": 0}', "'query_id' must be in [1, 99999999]"),
    ],
)
def test_qa_jsonl_rejects_mistyped_rows(line, message):
    good = '{"gold": 0, "query_id": 1, "text": "fine"}'
    with pytest.raises(ParseError, match="line 2") as exc_info:
        parse_jsonl_qa(good + "\n" + line)
    assert message in str(exc_info.value)


def test_features_rejects_searches_of_another_depth_or_k(toy):
    # weighed as given, they would weigh other layers, or more hits, than the config says
    hier, examples = toy
    docs, _ = build_toy_qa(n_classes=4, n_per_class=2, seed=1)
    cfg = TrainConfig(router=RouterConfig(k_per_layer=2))
    vocab = answer_params(examples, DIM, 0).vocab_size
    deep = build(docs, EmbedderSpec(dim=DIM), depth=3)
    searches = [retrieve(deep, ex.query.text, 2) for ex in examples]
    first = examples[0].query.query_id
    with pytest.raises(ValueError, match=rf"^query {first}: a retrieval of 3 layers .* depth 2 "):
        features(examples, hier, cfg, vocab, retrievals=searches)
    wide = [retrieve(hier, ex.query.text, 4) for ex in examples]
    over = next(ex.query.query_id for ex, r in zip(examples, wide)
                if max(len(layer.hits) for layer in r.layers) > 2)
    with pytest.raises(ValueError, match=rf"^query {over}: .* k_per_layer 2$"):
        features(examples, hier, cfg, vocab, retrievals=wide)
