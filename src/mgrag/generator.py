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

from .confidence import ConfidenceReport, GateConfig, filter_paths
from .corpus import Document, Query, _distinct_words, _jsonl_rows, _word
from .errors import ConfigError, ParseError
from .memory import MemoryHierarchy
from .router import FusedContext, RouterConfig, route

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
        version = data.get("format_version")
        if version != PARAMS_FORMAT_VERSION:
            raise ParseError(f"params format version {version} unsupported")
        return cls(W=np.array(data["W"], dtype=np.float64), b=np.array(data["b"], dtype=np.float64))


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
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: not valid JSON ({exc})")
    return GeneratorParams.from_dict(data)


@dataclass(frozen=True)
class QAExample:
    query: Query
    gold: int

    def __post_init__(self):
        if self.gold < 0:
            raise ValueError(f"gold must be >= 0, got {self.gold}")


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 0.1
    epochs: int = 100
    gate: GateConfig = field(default_factory=GateConfig)
    router: RouterConfig = field(default_factory=RouterConfig)

    def __post_init__(self):
        if not self.lr > 0:
            raise ConfigError(f"lr must be > 0, got {self.lr}")
        if self.epochs < 0:
            raise ConfigError(f"epochs must be >= 0, got {self.epochs}")


def _softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def predict(params: GeneratorParams, query_vec: np.ndarray, ctx: FusedContext) -> np.ndarray:
    """Answer distribution from the feature [query encoding ; fused context]."""
    x = np.concatenate([np.asarray(query_vec, dtype=np.float64), ctx.c])
    if x.shape[0] != params.W.shape[1]:
        raise ValueError(f"feature dim {x.shape[0]} does not match W columns {params.W.shape[1]}")
    return _softmax(params.W @ x + params.b)


def nll(p: np.ndarray, gold: int) -> float:
    p = np.asarray(p, dtype=np.float64)
    if not 0 <= gold < p.shape[0]:
        raise ValueError(f"gold {gold} out of range for vocabulary {p.shape[0]}")
    return float(-np.log(max(float(p[gold]), _P_FLOOR)))


def _perturbations(gate: GateConfig, query_id: int, dim: int) -> np.ndarray:
    """(K, dim) Gaussian draws, each from its own (seed, query, pass) stream."""
    return np.stack(
        [
            np.random.default_rng([gate.seed, query_id, k]).standard_normal(dim)
            for k in range(gate.ensemble_K)
        ]
    )


def _uses_ensemble(gate: GateConfig) -> bool:
    # with sigma 0 every pass is the base pass: the variance is zero by definition
    return gate.var_mode == "ensemble" and gate.noise_sigma > 0


def _prepare_features(
    example: QAExample, hier: MemoryHierarchy, cfg: TrainConfig
) -> tuple[np.ndarray, np.ndarray | None, FusedContext, int]:
    """Retrieval side of the forward pass; constant with respect to params."""
    ctx0 = route(hier, example.query.text, cfg.router)
    ctx = filter_paths(ctx0, cfg.gate.tau_path)
    dropped = 0 if ctx.gate_bypassed else len(ctx0.paths) - len(ctx.paths)
    h = ctx0.encodings[0]  # layer-1 query encoding
    x = np.concatenate([h, ctx.c])
    xs = None
    if _uses_ensemble(cfg.gate):
        noise = _perturbations(cfg.gate, example.query.query_id, hier.dim)
        cs = ctx.c + cfg.gate.noise_sigma * noise  # (K, dim)
        xs = np.concatenate([np.tile(h, (cfg.gate.ensemble_K, 1)), cs], axis=1)
    return x, xs, ctx, dropped


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


def _example_objective(
    params: GeneratorParams, example: QAExample, hier: MemoryHierarchy, cfg: TrainConfig
) -> tuple[_Objective, FusedContext, int]:
    """The objective of one example: the N=1 call of ``_loss_and_grad``."""
    if example.gold >= params.vocab_size:
        raise ValueError(f"gold {example.gold} out of range for vocabulary {params.vocab_size}")
    x, xs, ctx, dropped = _prepare_features(example, hier, cfg)
    XS = None if xs is None else xs[None]
    obj = _loss_and_grad(params, x[None], XS, np.array([example.gold]), cfg.gate)
    return obj, ctx, dropped


def total_loss(
    params: GeneratorParams, example: QAExample, hier: MemoryHierarchy, cfg: TrainConfig
) -> tuple[float, ConfidenceReport]:
    """Joint objective of one example with its confidence report; a non-finite value raises."""
    obj, ctx, dropped = _example_objective(params, example, hier, cfg)
    total = float(obj.loss[0])
    if not np.isfinite(total):
        raise ValueError(f"objective is not finite: {total}")
    report = ConfidenceReport(
        entropy=float(obj.entropy[0]),
        variance=float(obj.variance[0]),
        l_gen=float(obj.nll[0]),
        total=total,
        kept_paths=len(ctx.paths),
        dropped_paths=dropped,
        gate_bypassed=ctx.gate_bypassed,
    )
    return total, report


def grad(
    params: GeneratorParams, example: QAExample, hier: MemoryHierarchy, cfg: TrainConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Analytic (dW, db) of the joint objective for one example."""
    obj = _example_objective(params, example, hier, cfg)[0]
    return obj.dW, obj.db


def finite_difference_grad(
    params: GeneratorParams,
    example: QAExample,
    hier: MemoryHierarchy,
    cfg: TrainConfig,
    step: float = 1e-5,
) -> tuple[np.ndarray, np.ndarray]:
    """Central-difference gradient over every parameter entry."""

    def loss_at(w: np.ndarray, b: np.ndarray) -> float:
        return total_loss(GeneratorParams(W=w, b=b), example, hier, cfg)[0]

    dW = np.zeros_like(params.W)
    for idx in np.ndindex(params.W.shape):
        w_plus, w_minus = params.W.copy(), params.W.copy()
        w_plus[idx] += step
        w_minus[idx] -= step
        dW[idx] = (loss_at(w_plus, params.b) - loss_at(w_minus, params.b)) / (2 * step)
    db = np.zeros_like(params.b)
    for i in range(params.b.shape[0]):
        b_plus, b_minus = params.b.copy(), params.b.copy()
        b_plus[i] += step
        b_minus[i] -= step
        db[i] = (loss_at(params.W, b_plus) - loss_at(params.W, b_minus)) / (2 * step)
    return dW, db


def gradient_check(
    params: GeneratorParams,
    example: QAExample,
    hier: MemoryHierarchy,
    cfg: TrainConfig,
    step: float = 1e-5,
) -> float:
    """Max relative error between analytic and finite-difference gradients.

    The denominator is floored at 1e-4 so near-zero entries compare
    absolutely instead of amplifying rounding noise.
    """
    a_w, a_b = grad(params, example, hier, cfg)
    f_w, f_b = finite_difference_grad(params, example, hier, cfg, step=step)
    analytic = np.concatenate([a_w.ravel(), a_b])
    numeric = np.concatenate([f_w.ravel(), f_b])
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-4)
    return float(np.max(np.abs(analytic - numeric) / denom))


@dataclass
class TrainResult:
    params: GeneratorParams
    history: list[dict]
    diverged: bool = False


def train(
    dataset: list[QAExample],
    hier: MemoryHierarchy,
    cfg: TrainConfig,
    params: GeneratorParams | None = None,
) -> TrainResult:
    """Full-batch gradient descent; deterministic for a fixed config.

    Retrieval features never change across epochs, so they are computed once
    up front. History rows record the metrics at the start of each epoch,
    before that epoch's update.
    """
    if not dataset:
        raise ValueError("dataset is empty")
    if params is None:
        vocab = max(ex.gold for ex in dataset) + 1
        params = init_params(max(vocab, 2), hier.dim, seed=cfg.gate.seed)
    params = params.copy()
    golds = np.array([ex.gold for ex in dataset])
    if golds.max() >= params.vocab_size:
        raise ValueError(f"gold {golds.max()} out of range for vocabulary {params.vocab_size}")
    feats = [_prepare_features(ex, hier, cfg) for ex in dataset]
    X = np.stack([f[0] for f in feats])  # (N, 2d)
    XS = np.stack([f[1] for f in feats]) if _uses_ensemble(cfg.gate) else None  # (N, K, 2d)
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
                "accuracy": float(np.mean(np.argmax(obj.p, axis=1) == golds)),
            }
        )
        if not (np.all(np.isfinite(obj.dW)) and np.all(np.isfinite(obj.db))):
            diverged = True
            break
        params.W -= cfg.lr * obj.dW
        params.b -= cfg.lr * obj.db
    return TrainResult(params=params, history=history, diverged=diverged)


def qa_accuracy(
    params: GeneratorParams,
    dataset: list[QAExample],
    hier: MemoryHierarchy,
    cfg: TrainConfig,
) -> float:
    """Fraction of examples whose argmax prediction hits the gold class."""
    if not dataset:
        raise ValueError("dataset is empty")
    correct = 0
    for ex in dataset:
        x = _prepare_features(ex, hier, cfg)[0]
        p = _softmax(params.W @ x + params.b)
        if int(np.argmax(p)) == ex.gold:
            correct += 1
    return correct / len(dataset)


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
    rng = np.random.default_rng(seed)
    keywords = _distinct_words(rng, n_classes)
    docs = []
    examples = []
    query_id = 1
    for cls, keyword in enumerate(keywords):
        filler = [_word(rng) for _ in range(6)]
        body = (
            f"The {keyword} file describes {keyword} procedures. "
            f"{' '.join(filler[:3]).capitalize()}.\n\n"
            f"Every {keyword} entry is archived here. {' '.join(filler[3:]).capitalize()}."
        )
        docs.append(
            Document(
                doc_id=doc_id_start + cls,
                title=f"{keyword} file",
                body=body,
                domain_tag="toy-qa",
            )
        )
        for j in range(n_per_class):
            text = _QA_TEMPLATES[j % len(_QA_TEMPLATES)].format(kw=keyword)
            examples.append(QAExample(query=Query(query_id=query_id, text=text), gold=cls))
            query_id += 1
    return docs, examples


def qa_to_jsonl(examples: list[QAExample]) -> str:
    lines = [
        json.dumps(
            {"query_id": ex.query.query_id, "text": ex.query.text, "gold": ex.gold},
            sort_keys=True,
        )
        for ex in examples
    ]
    return "\n".join(lines) + "\n" if lines else ""


def parse_jsonl_qa(text: str) -> list[QAExample]:
    examples = []
    for line_no, row in _jsonl_rows(text):
        for key in ("query_id", "text", "gold"):
            if key not in row:
                raise ParseError(f"missing field {key!r}", line=line_no)
        query_id, text_value, gold = row["query_id"], row["text"], row["gold"]
        if any(not isinstance(v, int) or isinstance(v, bool) for v in (query_id, gold)):
            raise ParseError(
                f"query_id and gold must be integers, got {query_id!r} and {gold!r}", line=line_no
            )
        if gold < 0:
            raise ParseError(f"gold must be >= 0, got {gold}", line=line_no)
        if not isinstance(text_value, str):
            raise ParseError(f"'text' must be a string, got {text_value!r}", line=line_no)
        examples.append(QAExample(query=Query(query_id=query_id, text=text_value), gold=gold))
    return examples


def read_jsonl_qa(path: str | Path) -> list[QAExample]:
    try:
        return parse_jsonl_qa(Path(path).read_text(encoding="utf-8", errors="replace"))
    except ParseError as exc:
        raise ParseError(f"{path}: {exc}") from exc
