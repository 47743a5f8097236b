"""Softmax-linear conditional answer model trained with the joint objective.

The model predicts one answer class from the concatenation of the query
encoding and the fused retrieval context. Training is full-batch gradient
descent on nll + lambda1 * entropy + lambda2 * predictive-variance, with
analytic gradients (retrieval is a forward-pass constant, never
differentiated through). ``descend`` trains C independent cells at once,
stacked along a leading axis: every product is a stacked ``np.matmul`` and
every reduction runs over a cell's own axes, so each cell's arithmetic is
that of its run alone, bit for bit. ``train`` is the one-cell case.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .confidence import GateConfig, filter_paths
from .corpus import Document, QAExample, Query, _keyword_documents
from .errors import ConfigError, ParseError, RoutingError, require_type
from .memory import MemoryHierarchy
from .router import FusedContext, Retrieval, RouterConfig, _softmax, assemble, route

PARAMS_FORMAT_VERSION = 1
_P_FLOOR = 1e-300
_MAX_WEIGHTS = 1 << 24  # W is V x 2*dim float64s; training holds a few arrays of its size


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
    if vocab_size * 2 * dim > _MAX_WEIGHTS:
        raise ConfigError(f"an answer model of {vocab_size} classes over {2 * dim} features "
                          f"exceeds {_MAX_WEIGHTS} weights")
    rng = np.random.default_rng(seed)
    return GeneratorParams(W=scale * rng.standard_normal((vocab_size, 2 * dim)), b=np.zeros(vocab_size))


def answer_params(dataset: list[QAExample], dim: int, seed: int) -> GeneratorParams:
    """``init_params`` with one class per label up to the dataset's largest gold, at least 2."""
    top = max(ex.gold for ex in dataset)
    try:
        return init_params(max(top + 1, 2), dim, seed=seed)
    except ConfigError as exc:  # the largest gold sets the class count
        raise ConfigError(f"gold {top}: {exc}") from None


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
        require_type("epochs", self.epochs, "int")
        if self.epochs < 0:
            raise ConfigError(f"epochs must be >= 0, got {self.epochs}")


def perturbations(dataset: list[QAExample], gate: GateConfig, dim: int) -> np.ndarray | None:
    """(N, K, dim) Gaussian draws of the ensemble passes, or None if the ensemble is off.

    It is on with var_mode "ensemble" and noise_sigma > 0: with sigma 0 every pass
    is the base pass, so the variance is zero by definition. Each example's pass k
    comes from its own (seed, query id, k) stream, so the draws depend only on the
    gate, the query ids and ``dim``.
    """
    if not (gate.var_mode == "ensemble" and gate.noise_sigma > 0):
        return None
    return np.stack(
        [
            [np.random.default_rng([gate.seed, ex.query.query_id, k]).standard_normal(dim)
             for k in range(gate.ensemble_K)]
            for ex in dataset
        ]
    )


def gated_contexts(hier: MemoryHierarchy, queries: list[Query], cfg: RouterConfig, tau_path: float,
                   retrievals: list[Retrieval] | None = None) -> list[FusedContext]:
    """Each query's context, routed or weighed from its given search, gated at ``tau_path``.

    ``retrievals`` are the queries' searches of ``hier``, aligned by position;
    when None, each query is routed. Another count of them is a ``ValueError``,
    as is one with other than ``hier.depth`` layers or over ``k_per_layer`` hits
    a layer, which names its query, as a ``RoutingError`` does.
    """
    if retrievals is not None and len(retrievals) != len(queries):
        raise ValueError(f"{len(retrievals)} retrievals for {len(queries)} queries")
    contexts = []
    for query, r in zip(queries, retrievals or [None] * len(queries)):
        try:
            if r is not None:  # a search it would weigh at another depth or k is not its own
                most = max((len(layer.hits) for layer in r.layers), default=0)
                if len(r.layers) != hier.depth or most > cfg.k_per_layer:
                    raise ValueError(f"query {query.query_id}: a retrieval of {len(r.layers)} layers and up to "
                                     f"{most} hits a layer cannot be weighed at depth {hier.depth} and "
                                     f"k_per_layer {cfg.k_per_layer}")
            ctx = route(hier, query.text, cfg) if r is None else assemble(r, cfg)
            contexts.append(filter_paths(ctx, tau_path))
        except RoutingError as exc:
            raise RoutingError(f"query {query.query_id}: {exc}") from None
    return contexts


def features(
    dataset: list[QAExample],
    hier: MemoryHierarchy,
    cfg: TrainConfig,
    vocab_size: int,
    retrievals: list[Retrieval] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Retrieval side of the forward pass: the examples' ``gated_contexts``.

    The only builder of answer-model features, constant in the parameters:
    (N, 2d) rows [layer-1 query encoding ; gated context], and the golds.
    """
    golds = np.array([ex.gold for ex in dataset])
    if golds.max() >= vocab_size:
        raise ValueError(f"gold {golds.max()} out of range for vocabulary {vocab_size}")
    contexts = gated_contexts(hier, [ex.query for ex in dataset], cfg.router, cfg.gate.tau_path, retrievals)
    return np.stack([np.concatenate([ctx.retrieval.encodings[0], ctx.c]) for ctx in contexts]), golds


def _perturbed(X: np.ndarray, noise: np.ndarray, sigma: float) -> np.ndarray:
    """The ensemble's (..., N, K, 2d) passes of the (..., N, 2d) rows ``X``.

    Pass k of a row keeps its query encoding and adds ``sigma`` times the
    row's ``noise`` draw k, (N, K, dim), to its context.
    """
    dim = noise.shape[2]
    XS = np.empty((*X.shape[:-1], noise.shape[1], 2 * dim))
    XS[..., :dim] = X[..., None, :dim]
    np.add(X[..., None, dim:], sigma * noise, out=XS[..., dim:])
    return XS


class _Objective(NamedTuple):
    p: np.ndarray  # (C, N, V) predictive distributions
    nll: np.ndarray  # (C, N) per-row terms of the objective
    entropy: np.ndarray
    variance: np.ndarray
    loss: np.ndarray
    dW: np.ndarray  # (C, V, 2d) gradient of each cell's mean loss over its N rows
    db: np.ndarray  # (C, V)


def _loss_and_grad(
    W: np.ndarray,
    b: np.ndarray,
    X: np.ndarray,
    XS: np.ndarray | None,
    golds: np.ndarray,
    gate: GateConfig,
) -> _Objective:
    """Joint objective of N rows in each of C cells, and its analytic gradient.

    W (C, V, 2d) and b (C, V) are the cells' parameters, X their (C, N, 2d)
    features and XS their (C, N, K, 2d) perturbed features when the ensemble
    variance is on (see ``perturbations``), else None; the cells share the
    golds. Products are stacked ``np.matmul`` and reductions run over a cell's
    own axes (``np.einsum`` would not be bit-equal), so each cell's values are
    those of its own C = 1 call. Each penalty's gradient is pulled back
    through the softmax: entropy gives -p (ln p + H), a variance gradient g
    gives p g - p (p . g).
    """
    n_cells, n, _ = X.shape
    v = W.shape[1]
    rows = np.arange(n)
    Wt, bias = W.transpose(0, 2, 1), b[:, None, :]
    p = _softmax(X @ Wt + bias)
    lnp = np.log(np.maximum(p, _P_FLOOR))
    nll_vals = -np.ascontiguousarray(lnp[:, rows, golds])  # row-major: means sum as at C = 1
    h_vals = -np.sum(p * lnp, axis=2)
    ensemble = XS is not None
    if ensemble:
        k_count = XS.shape[2]
        XS = XS.reshape(n_cells, n * k_count, -1)
        ps = _softmax(XS @ Wt + bias).reshape(n_cells, n, k_count, v)
        dev = ps - ps.mean(axis=2, keepdims=True)  # np.var's steps; the gradient reuses dev
        var_vals = np.mean((dev * dev).sum(axis=2) / k_count, axis=2)
    elif gate.var_mode == "ensemble":
        var_vals = np.zeros((n_cells, n))
    else:
        var_vals = np.mean((p - 1.0 / v) ** 2, axis=2)
    loss_vals = nll_vals + gate.lambda1 * h_vals + gate.lambda2 * var_vals

    onehot = np.zeros((n, v))
    onehot[rows, golds] = 1.0
    dz = (p - onehot) + gate.lambda1 * (-p * (lnp + h_vals[:, :, None]))
    if gate.var_mode == "intra" and gate.lambda2 > 0:
        g = (2.0 / v) * (p - 1.0 / v)
        dz = dz + gate.lambda2 * (p * g - p * np.sum(p * g, axis=2, keepdims=True))
    dz /= n
    dW = dz.transpose(0, 2, 1) @ X
    db = dz.sum(axis=1)
    if ensemble and gate.lambda2 > 0:
        g = (2.0 / (v * k_count)) * dev
        dzs = ps * g - ps * np.sum(ps * g, axis=3, keepdims=True)
        dzs *= gate.lambda2 / n
        dzs = dzs.reshape(n_cells, n * k_count, v)
        dW += dzs.transpose(0, 2, 1) @ XS
        db += dzs.sum(axis=1)
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
    X, golds = features([example], hier, cfg, params.vocab_size)
    X = X[None]
    noise = perturbations([example], cfg.gate, hier.dim)
    XS = None if noise is None else _perturbed(X, noise, cfg.gate.noise_sigma)
    n_w = params.W.size

    def loss_at(theta: np.ndarray) -> float:
        W, b = theta[:n_w].reshape(1, *params.W.shape), theta[None, n_w:]
        return float(_loss_and_grad(W, b, X, XS, golds, cfg.gate).loss[0, 0])

    obj = _loss_and_grad(params.W[None], params.b[None], X, XS, golds, cfg.gate)
    analytic = np.concatenate([obj.dW.ravel(), obj.db.ravel()])
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


def _accuracy(p: np.ndarray, golds: np.ndarray) -> np.ndarray:
    """Each cell's share of rows whose argmax class is the gold one."""
    return np.mean(np.argmax(p, axis=-1) == golds, axis=-1)


def descend(
    params: GeneratorParams,
    X: np.ndarray,
    noise: np.ndarray | None,
    golds: np.ndarray,
    cfg: TrainConfig,
) -> list[TrainResult]:
    """Full-batch gradient descent of C cells from the same ``params``.

    X stacks each cell's ``features`` rows as (C, N, 2d); the cells share
    ``golds``, ``cfg`` and the rows' ensemble draws ``noise`` (their
    ``perturbations``, None unless the ensemble variance is on), from which
    the stack's perturbed rows are built once. Every cell stays in the stack:
    the whole stack takes one ``_loss_and_grad`` per epoch until no cell is
    live. A cell stops at its first non-finite loss (its history ends before
    that epoch) or gradient (that epoch is recorded, with no update) and is
    flagged diverged; from then on its step is zero, so its parameters stay,
    bit for bit, where it stopped. History rows record the metrics at the
    start of each epoch, before that epoch's update; ``accuracy`` is that of
    the returned parameters, after the last update.
    """
    n_cells = X.shape[0]
    XS = None if noise is None else _perturbed(X, noise, cfg.gate.noise_sigma)
    W = np.repeat(params.W[None], n_cells, axis=0)
    b = np.repeat(params.b[None], n_cells, axis=0)
    live = np.ones(n_cells, dtype=bool)
    histories: list[list[dict]] = [[] for _ in range(n_cells)]
    for epoch in range(cfg.epochs):
        if not live.any():
            break
        obj = _loss_and_grad(W, b, X, XS, golds, cfg.gate)
        loss = obj.loss.mean(axis=1)
        live &= np.isfinite(loss)
        stats = zip(histories, live.tolist(), loss.tolist(), obj.nll.mean(axis=1).tolist(),
                    obj.entropy.mean(axis=1).tolist(), obj.variance.mean(axis=1).tolist(),
                    _accuracy(obj.p, golds).tolist())
        for history, ok, mean_loss, nll, entropy, variance, accuracy in stats:
            if ok:
                history.append({"epoch": epoch, "loss": mean_loss, "nll": nll, "entropy": entropy,
                                "variance": variance, "accuracy": accuracy})
        live &= np.isfinite(obj.dW).all(axis=(1, 2)) & np.isfinite(obj.db).all(axis=1)
        obj.dW[~live], obj.db[~live] = 0.0, 0.0  # zeroed before the scaling, which could overflow
        W -= cfg.lr * obj.dW
        b -= cfg.lr * obj.db
    accuracy = _accuracy(_softmax(X @ W.transpose(0, 2, 1) + b[:, None, :]), golds)
    results = []
    for cell in range(n_cells):
        cell_params = copy.copy(params)  # no re-validation: a diverged cell's may be non-finite
        cell_params.W, cell_params.b = W[cell], b[cell]
        results.append(TrainResult(params=cell_params, history=histories[cell],
                                   accuracy=float(accuracy[cell]), diverged=not live[cell]))
    return results


def train(
    dataset: list[QAExample],
    hier: MemoryHierarchy,
    cfg: TrainConfig,
    params: GeneratorParams | None = None,
) -> TrainResult:
    """Full-batch gradient descent; deterministic for a fixed config.

    Retrieval features never change across epochs, so each example is routed
    once, up front. Training is ``descend`` with one cell: see there for the
    history, the accuracy and divergence. ``params`` defaults to
    ``answer_params`` of the dataset.
    """
    if not dataset:
        raise ValueError("dataset is empty")
    if params is None:
        params = answer_params(dataset, hier.dim, cfg.gate.seed)
    X, golds = features(dataset, hier, cfg, params.vocab_size)
    noise = perturbations(dataset, cfg.gate, hier.dim)
    [result] = descend(params, X[None], noise, golds, cfg)
    return result


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
) -> tuple[list[Document], list[QAExample]]:
    """Separable answer-classification set: one signature keyword per class.

    Each class gets one document planted with its keyword and queries that
    mention it, so a linear model over query+context features can reach full
    training accuracy.
    """
    keywords, docs = _keyword_documents(n_classes, seed, 200_001, "toy-qa", "{kw} file",
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
