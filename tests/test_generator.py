from __future__ import annotations

import math

import numpy as np
import pytest

from mgrag.confidence import GateConfig, filter_paths
from mgrag.embedder import EmbedderSpec, embed
from mgrag.errors import ConfigError, ParseError
from mgrag.generator import (
    GeneratorParams,
    QAExample,
    TrainConfig,
    build_toy_qa,
    grad,
    gradient_check,
    init_params,
    load_params,
    nll,
    parse_jsonl_qa,
    predict,
    qa_accuracy,
    qa_to_jsonl,
    read_jsonl_qa,
    save_params,
    total_loss,
    train,
)
from mgrag.memory import build
from mgrag.router import RouterConfig, route

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
    total, report = total_loss(params, ex, hier, cfg)
    h = embed(ex.query.text, 1, hier.embedder_spec)
    ctx = filter_paths(route(hier, ex.query.text, cfg.router), cfg.gate.tau_path)
    assert total == pytest.approx(nll(predict(params, h, ctx), ex.gold), abs=1e-12)
    assert total == report.l_gen


def test_zero_noise_means_zero_variance(toy):
    hier, examples = toy
    params = init_params(4, DIM, seed=3)
    _, report = total_loss(params, examples[0], hier, _cfg(lambda2=0.5, noise_sigma=0.0))
    assert report.variance == 0.0


def test_total_loss_is_deterministic(toy):
    hier, examples = toy
    params = init_params(4, DIM, seed=3)
    cfg = _cfg(lambda1=0.2, lambda2=0.4)
    a = total_loss(params, examples[1], hier, cfg)
    b = total_loss(params, examples[1], hier, cfg)
    assert a[0] == b[0]
    assert a[1] == b[1]


def test_noise_seed_changes_variance(toy):
    hier, examples = toy
    params = init_params(4, DIM, seed=3)
    _, r0 = total_loss(params, examples[0], hier, _cfg(lambda2=0.5, seed=0))
    _, r1 = total_loss(params, examples[0], hier, _cfg(lambda2=0.5, seed=1))
    assert r0.variance != r1.variance


# --- gradients ----------------------------------------------------------------------


def _fd_oracle(params, example, hier, cfg, step=1e-5):
    # written independently of the module's own checker: brute-force central
    # differences over every parameter entry, straight off total_loss
    def at(w, b):
        return total_loss(GeneratorParams(W=w, b=b), example, hier, cfg)[0]

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
    a_w, a_b = grad(params, ex, hier, cfg)
    f_w, f_b = _fd_oracle(params, ex, hier, cfg)
    analytic = np.concatenate([a_w.ravel(), a_b])
    numeric = np.concatenate([f_w.ravel(), f_b])
    rel = np.abs(analytic - numeric) / np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-4)
    assert float(rel.max()) < 1e-4


def test_builtin_gradient_check_passes(toy):
    hier, examples = toy
    params = init_params(4, DIM, seed=7, scale=0.3)
    assert gradient_check(params, examples[0], hier, _cfg(lambda1=0.5, lambda2=0.5)) < 1e-4


def test_bias_gradient_is_residual_without_penalties(toy):
    hier, examples = toy
    params = init_params(4, DIM, seed=3, scale=0.2)
    cfg = _cfg(lambda1=0.0, lambda2=0.0)
    ex = examples[1]
    _, db = grad(params, ex, hier, cfg)
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
    dw, db = grad(params, ex, hier, _cfg(lambda1=0.0, lambda2=0.0))
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
    grads = [grad(params, ex, hier, cfg) for ex in examples]
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
    assert qa_accuracy(result.params, examples, hier, cfg) == 1.0


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
    hier, examples = toy
    cfg = TrainConfig(gate=GateConfig(), router=RouterConfig())
    params = init_params(4, DIM, seed=0)
    acc = qa_accuracy(params, examples, hier, cfg)
    assert 0.0 <= acc <= 1.0
    with pytest.raises(ValueError, match="empty"):
        qa_accuracy(params, [], hier, cfg)


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
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(ParseError, match="not valid JSON"):
        load_params(path)


def test_params_validation():
    with pytest.raises(ValueError, match="shape mismatch"):
        GeneratorParams(W=np.zeros((3, 4)), b=np.zeros(2))
    with pytest.raises(ValueError, match="finite"):
        GeneratorParams(W=np.full((2, 4), np.nan), b=np.zeros(2))


def test_init_params_seeded_and_validated():
    a = init_params(4, DIM, seed=2)
    b = init_params(4, DIM, seed=2)
    assert np.array_equal(a.W, b.W)
    assert np.array_equal(a.b, np.zeros(4))
    with pytest.raises(ConfigError, match="vocab_size"):
        init_params(1, DIM)


def test_qa_example_rejects_negative_gold(toy):
    _, examples = toy
    with pytest.raises(ValueError, match="gold"):
        QAExample(query=examples[0].query, gold=-1)


def test_qa_jsonl_round_trip(tmp_path):
    _, examples = build_toy_qa(n_classes=3, n_per_class=2, seed=5)
    text = qa_to_jsonl(examples)
    assert parse_jsonl_qa(text) == examples
    path = tmp_path / "qa.jsonl"
    path.write_text(text, encoding="utf-8")
    assert read_jsonl_qa(path) == examples


@pytest.mark.parametrize(
    "line, message",
    [
        ("{broken", "invalid JSON"),
        ('{"query_id": 1, "text": "x"}', "missing field"),
        ('{"query_id": "one", "text": "x", "gold": 0}', "must be integers"),
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
        ('{"query_id": true, "text": "x", "gold": 0}', "must be integers"),
        ('{"query_id": 1, "text": "x", "gold": false}', "must be integers"),
        ('{"query_id": 1, "text": "x", "gold": 1.0}', "must be integers"),
        ('{"query_id": 1, "text": ["a"], "gold": 0}', "'text' must be a string"),
        ('{"query_id": 1, "text": null, "gold": 0}', "'text' must be a string"),
        ('{"query_id": 1, "text": "x", "gold": -1}', "gold must be >= 0, got -1"),
    ],
)
def test_qa_jsonl_rejects_mistyped_rows(line, message):
    good = '{"gold": 0, "query_id": 1, "text": "fine"}'
    with pytest.raises(ParseError, match="line 2") as exc_info:
        parse_jsonl_qa(good + "\n" + line)
    assert message in str(exc_info.value)
