"""Softmax-linear conditional answer model trained with the joint objective.

The model predicts one answer class from the concatenation of the query
encoding and the fused retrieval context. Training is full-batch gradient
descent on nll + lambda1 * entropy + lambda2 * predictive-variance, with
analytic gradients (retrieval is a forward-pass constant, never
differentiated through).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .confidence import GateConfig, filter_paths
from .corpus import Document, QAExample, Query, _keyword_documents
from .errors import ConfigError, ParseError, RoutingError
from .memory import MemoryHierarchy
from .router import Retrieval, RouterConfig, _softmax, assemble, route

PARAMS_FORMAT_VERSION = 1
_P_FLOOR = 1e-300


@dataclass
class GeneratorParams:
    W: np.ndarray  # (V, 2d)
    b: np.ndarray  # (V,)

    def __post_init__(self):
        self.W = np.asarray(self.W, dtype=np.float64)
        self.b = np.asarray(self.b, dtype=np.float64)
        if self.W.ndim != 2 or self.b.ndim != 1 or self.W.shape[0] != self.b.shape[0]:
            raise ValueError(f"shape mismatch: W {self.W.shape}, b {self.b.shape}")
        if not (np.all(np.isfinite(self.W)) and np.all(np.isfinite(self.b))):
            raise ValueError("parameters must be finite")

    @property
    def vocab_size(self) -> int:
        return self.W.shape[0]

    def copy(self) -> "GeneratorParams":
        return GeneratorParams(W=self.W.copy(), b=self.b.copy())

    def to_dict(self) -> dict:
        return {
            "format_version": PARAMS_FORMAT_VERSION,
            "vocab_size": self.vocab_size,
            "feature_dim": self.W.shape[1],
            "W": [[float(v) for v in row] for row in self.W],
            "b": [float(v) for v in self.b],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "GeneratorParams":
        if not isinstance(data, dict):
            raise ParseError(f"params must be a JSON object, got {type(data).__name__}")
        version = data.get("format_version")
        if version != PARAMS_FORMAT_VERSION:
            raise ParseError(f"params format version {version} unsupported")
        try:
            return cls(W=np.array(data["W"], dtype=np.float64),
                       b=np.array(data["b"], dtype=np.float64))
        except KeyError as exc:
            raise ParseError(f"params lack key {exc}") from None
        except (TypeError, ValueError) as exc:  # ragged, non-numeric or mismatched W and b
            raise ParseError(f"bad params: {exc}") from None


def init_params(vocab_size: int, dim: int, seed: int = 0, scale: float = 0.01) -> GeneratorParams:
    """Random small weights; feature dim is 2*dim (query encoding + context)."""
    if vocab_size < 2:
        raise ConfigError(f"vocab_size must be >= 2, got {vocab_size}")
    rng = np.random.default_rng(seed)
    return GeneratorParams(W=scale * rng.standard_normal((vocab_size, 2 * dim)), b=np.zeros(vocab_size))


def save_params(params: GeneratorParams, path: str | Path) -> None:
    Path(path).write_text(json.dumps(params.to_dict(), sort_keys=True), encoding="utf-8")


def load_params(path: str | Path) -> GeneratorParams:
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (RecursionError, ValueError) as exc:  # bad syntax, too deep nesting, a huge integer
        raise ParseError(f"{path}: not valid JSON ({exc})") from None
    try:
        return GeneratorParams.from_dict(data)
    except ParseError as exc:
        raise ParseError(f"{path}: {exc}") from None


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 0.1
    epochs: int = 100
    gate: GateConfig = field(default_factory=GateConfig)
    router: RouterConfig = field(default_factory=RouterConfig)

    def __post_init__(self):
        if not 0 < self.lr < np.inf:
            raise ConfigError(f"lr must be finite and > 0, got {self.lr}")
        if self.epochs < 0:
            raise ConfigError(f"epochs must be >= 0, got {self.epochs}")


def _uses_ensemble(gate: GateConfig) -> bool:
    # with sigma 0 every pass is the base pass: the variance is zero by definition
    return gate.var_mode == "ensemble" and gate.noise_sigma > 0


def perturbations(dataset: list[QAExample], gate: GateConfig, dim: int) -> np.ndarray | None:
    """(N, K, dim) Gaussian draws of the ensemble passes, None unless ``_uses_ensemble``.

    Each example's pass k comes from its own (seed, query id, k) stream, so the
    draws depend only on the gate, the query ids and ``dim``.
    """
    if not _uses_ensemble(gate):
        return None
    return np.stack(
        [
            [np.random.default_rng([gate.seed, ex.query.query_id, k]).standard_normal(dim)
             for k in range(gate.ensemble_K)]
            for ex in dataset
        ]
    )


def _features(
    dataset: list[QAExample],
    hier: MemoryHierarchy,
    cfg: TrainConfig,
    vocab_size: int,
    retrievals: list[Retrieval] | None = None,
    noise: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray]:
    """Retrieval side of the forward pass, each example weighed and gated once.

    The only builder of answer-model features, constant in the parameters.
    ``retrievals`` are the examples' searches of ``hier``, aligned by position
    with ``dataset`` (each example is routed when None); ``noise`` is their
    ``perturbations`` (drawn here when None). Returns the (N, 2d) rows
    [layer-1 query encoding ; gated context], the (N, K, 2d) perturbed rows
    when ``_uses_ensemble`` (else None), and the golds. An example that routes
    nowhere raises ``RoutingError`` naming its id.
    """
    golds = np.array([ex.gold for ex in dataset])
    if golds.max() >= vocab_size:
        raise ValueError(f"gold {golds.max()} out of range for vocabulary {vocab_size}")
    searched = [None] * len(dataset) if retrievals is None else retrievals
    rows = []
    for ex, r in zip(dataset, searched, strict=True):
        try:
            ctx = route(hier, ex.query.text, cfg.router) if r is None else assemble(r, cfg.router)
            ctx = filter_paths(ctx, cfg.gate.tau_path)
        except RoutingError as exc:
            raise RoutingError(f"query {ex.query.query_id}: {exc}") from None
        rows.append(np.concatenate([ctx.retrieval.encodings[0], ctx.c]))  # layer-1 query encoding
    X = np.stack(rows)
    if not _uses_ensemble(cfg.gate):
        return X, None, golds
    if noise is None:
        noise = perturbations(dataset, cfg.gate, hier.dim)
    n, k_count, dim = noise.shape
    encodings = np.broadcast_to(X[:, None, :dim], (n, k_count, dim))
    contexts = X[:, None, dim:] + cfg.gate.noise_sigma * noise  # (N, K, dim)
    return X, np.concatenate([encodings, contexts], axis=2), golds


class _Objective(NamedTuple):
    p: np.ndarray  # (N, V) predictive distributions
    nll: np.ndarray  # (N,) per-row terms of the objective
    entropy: np.ndarray
    variance: np.ndarray
    loss: np.ndarray
    dW: np.ndarray  # gradient of the mean loss over the N rows
    db: np.ndarray


def _loss_and_grad(
    params: GeneratorParams,
    X: np.ndarray,
    XS: np.ndarray | None,
    golds: np.ndarray,
    gate: GateConfig,
) -> _Objective:
    """Joint objective of N rows and its analytic gradient.

    X holds the (N, 2d) features; XS the (N, K, 2d) perturbed features when
    the ensemble variance is on (see ``_uses_ensemble``), else None. Each
    penalty's gradient is pulled back through the softmax: entropy gives
    -p (ln p + H), a variance gradient g gives p g - p (p . g).
    """
    n, v = X.shape[0], params.vocab_size
    rows = np.arange(n)
    p = _softmax(X @ params.W.T + params.b)
    lnp = np.log(np.maximum(p, _P_FLOOR))
    nll_vals = -lnp[rows, golds]
    h_vals = -np.sum(p * lnp, axis=1)
    ensemble = _uses_ensemble(gate)
    if ensemble:
        k_count = XS.shape[1]
        ps = _softmax(XS.reshape(n * k_count, -1) @ params.W.T + params.b).reshape(n, k_count, v)
        var_vals = np.mean(np.var(ps, axis=1), axis=1)
    elif gate.var_mode == "ensemble":
        var_vals = np.zeros(n)
    else:
        var_vals = np.mean((p - 1.0 / v) ** 2, axis=1)
    loss_vals = nll_vals + gate.lambda1 * h_vals + gate.lambda2 * var_vals

    onehot = np.zeros((n, v))
    onehot[rows, golds] = 1.0
    dz = (p - onehot) + gate.lambda1 * (-p * (lnp + h_vals[:, None]))
    if gate.var_mode == "intra" and gate.lambda2 > 0:
        g = (2.0 / v) * (p - 1.0 / v)
        dz = dz + gate.lambda2 * (p * g - p * np.sum(p * g, axis=1, keepdims=True))
    dz /= n
    dW = dz.T @ X
    db = dz.sum(axis=0)
    if ensemble and gate.lambda2 > 0:
        g = (2.0 / (v * k_count)) * (ps - ps.mean(axis=1, keepdims=True))
        dzs = ps * g - ps * np.sum(ps * g, axis=2, keepdims=True)
        dzs *= gate.lambda2 / n
        dW += dzs.reshape(n * k_count, v).T @ XS.reshape(n * k_count, -1)
        db += dzs.sum(axis=(0, 1))
    return _Objective(p, nll_vals, h_vals, var_vals, loss_vals, dW, db)


def gradient_check(
    params: GeneratorParams,
    example: QAExample,
    hier: MemoryHierarchy,
    cfg: TrainConfig,
    step: float = 1e-5,
) -> float:
    """Max relative error between analytic and central-difference gradients.

    The example is routed once: every difference re-evaluates the objective
    on those fixed features, over the flat vector [W.ravel(); b]. The
    denominator is floored at 1e-4 so near-zero entries compare absolutely
    instead of amplifying rounding noise. A non-finite objective or gradient
    raises instead of returning NaN.
    """
    X, XS, golds = _features([example], hier, cfg, params.vocab_size)
    n_w = params.W.size

    def loss_at(theta: np.ndarray) -> float:
        at = GeneratorParams(W=theta[:n_w].reshape(params.W.shape), b=theta[n_w:])
        return float(_loss_and_grad(at, X, XS, golds, cfg.gate).loss[0])

    obj = _loss_and_grad(params, X, XS, golds, cfg.gate)
    analytic = np.concatenate([obj.dW.ravel(), obj.db])
    theta = np.concatenate([params.W.ravel(), params.b])
    numeric = np.zeros_like(theta)
    for i in range(theta.size):
        plus, minus = theta.copy(), theta.copy()
        plus[i] += step
        minus[i] -= step
        numeric[i] = (loss_at(plus) - loss_at(minus)) / (2 * step)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-4)
    err = float(np.max(np.abs(analytic - numeric) / denom))
    if not np.isfinite(err):
        raise ValueError(f"objective or its gradient is not finite (max relative error {err})")
    return err


@dataclass
class TrainResult:
    params: GeneratorParams
    history: list[dict]
    accuracy: float  # training accuracy of ``params``, the returned parameters
    diverged: bool = False


def _accuracy(p: np.ndarray, golds: np.ndarray) -> float:
    """Share of rows whose argmax class is the gold one."""
    return float(np.mean(np.argmax(p, axis=1) == golds))


def train(
    dataset: list[QAExample],
    hier: MemoryHierarchy,
    cfg: TrainConfig,
    params: GeneratorParams | None = None,
    retrievals: list[Retrieval] | None = None,
    noise: np.ndarray | None = None,
) -> TrainResult:
    """Full-batch gradient descent; deterministic for a fixed config.

    Retrieval features never change across epochs, so each example is routed
    once, up front; given ``retrievals`` and ``noise`` (see ``_features``),
    it is only weighed, so ``sweep`` searches and draws once for many cells.
    History rows record the metrics at the start of each epoch, before that
    epoch's update; ``accuracy`` is that of the returned parameters, after
    the last update.
    """
    if not dataset:
        raise ValueError("dataset is empty")
    if params is None:
        vocab = max(ex.gold for ex in dataset) + 1
        params = init_params(max(vocab, 2), hier.dim, seed=cfg.gate.seed)
    params = params.copy()
    X, XS, golds = _features(dataset, hier, cfg, params.vocab_size, retrievals, noise)
    history: list[dict] = []
    diverged = False
    for epoch in range(cfg.epochs):
        obj = _loss_and_grad(params, X, XS, golds, cfg.gate)
        loss = float(np.mean(obj.loss))
        if not np.isfinite(loss):
            diverged = True
            break
        history.append(
            {
                "epoch": epoch,
                "loss": loss,
                "nll": float(np.mean(obj.nll)),
                "entropy": float(np.mean(obj.entropy)),
                "variance": float(np.mean(obj.variance)),
                "accuracy": _accuracy(obj.p, golds),
            }
        )
        if not (np.all(np.isfinite(obj.dW)) and np.all(np.isfinite(obj.db))):
            diverged = True
            break
        params.W -= cfg.lr * obj.dW
        params.b -= cfg.lr * obj.db
    accuracy = _accuracy(_softmax(X @ params.W.T + params.b), golds)
    return TrainResult(params=params, history=history, accuracy=accuracy, diverged=diverged)


_QA_TEMPLATES = (
    "find the {kw} report",
    "where is the {kw} summary",
    "notes about {kw} please",
    "tell me about {kw}",
    "lookup {kw} records",
)


def build_toy_qa(
    n_classes: int = 8,
    n_per_class: int = 5,
    seed: int = 0,
    doc_id_start: int = 200_001,
) -> tuple[list[Document], list[QAExample]]:
    """Separable answer-classification set: one signature keyword per class.

    Each class gets one document planted with its keyword and queries that
    mention it, so a linear model over query+context features can reach full
    training accuracy.
    """
    keywords, docs = _keyword_documents(n_classes, seed, doc_id_start, "toy-qa", "{kw} file",
                                        ("The {kw} file describes {kw} procedures.",
                                         "Every {kw} entry is archived here."))
    examples = [
        QAExample(query=Query(query_id=cls * n_per_class + j + 1,
                              text=_QA_TEMPLATES[j % len(_QA_TEMPLATES)].format(kw=keyword)),
                  gold=cls)
        for cls, keyword in enumerate(keywords)
        for j in range(n_per_class)
    ]
    return docs, examples
