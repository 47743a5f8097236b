"""Cross-layer routing, per-layer readouts, and context fusion.

A query is encoded once per layer, searched against each layer's memory, and
the layers are weighted by a temperature softmax over their evidence scores.
The fused context is the weight-sum of per-layer readouts, where a readout is
the similarity-softmax-weighted mean of that layer's retrieved unit vectors.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .embedder import embed
from .errors import ConfigError, RoutingError
from .memory import Hit, MemoryHierarchy, search_layer

SCORE_MODES = ("mean_topk", "max")


@dataclass(frozen=True)
class RouterConfig:
    k_per_layer: int = 5
    temperature: float = 1.0
    layer_score_mode: str = "mean_topk"

    def __post_init__(self):
        if self.k_per_layer < 1:
            raise ConfigError(f"k_per_layer must be >= 1, got {self.k_per_layer}")
        if not self.temperature > 0:
            raise ConfigError(f"temperature must be > 0, got {self.temperature}")
        if self.layer_score_mode not in SCORE_MODES:
            raise ConfigError(
                f"layer_score_mode must be one of {SCORE_MODES}, got {self.layer_score_mode!r}"
            )

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class RetrievalPath:
    """One (layer, unit) evidence route with its confidence."""

    layer: int
    unit_id: str
    doc_id: int
    sim: float
    within_layer_weight: float
    path_confidence: float


@dataclass
class FusedContext:
    c: np.ndarray  # (dim,) weighted sum of layer readouts, not re-normalized
    paths: list[RetrievalPath]
    weights: np.ndarray  # (depth,) routing weights, zeros for empty layers
    scores: np.ndarray  # (depth,) layer scores, -inf sentinel for empty layers
    layer_hits: dict[int, list[Hit]]
    hit_vectors: dict[int, np.ndarray]  # layer -> (n_hits, dim), aligned with layer_hits
    config: RouterConfig
    gate_bypassed: bool = field(default=False)
    encodings: np.ndarray | None = None  # (depth, dim) query encodings, set by route

    @property
    def depth(self) -> int:
        return len(self.weights)


def _softmax(z: np.ndarray, temperature: float = 1.0) -> np.ndarray:
    """Temperature softmax over the last axis; a -inf entry gets probability 0.

    The one softmax of the package: layer routing, within-layer readout
    weights and the answer model's distribution all go through it.
    """
    e = np.exp((z - z.max(axis=-1, keepdims=True)) / temperature)  # exp(-inf) -> 0
    return e / e.sum(axis=-1, keepdims=True)


def routing_weights(scores: np.ndarray, temperature: float) -> np.ndarray:
    """Temperature softmax over layer scores; -inf scores map to weight 0."""
    if not temperature > 0:
        raise ConfigError(f"temperature must be > 0, got {temperature}")
    scores = np.asarray(scores, dtype=np.float64)
    if not np.isfinite(scores).any():
        raise RoutingError("all layer scores are -inf")
    return _softmax(scores, temperature)


def _layer_score(sims: np.ndarray, mode: str) -> float:
    return float(np.max(sims) if mode == "max" else np.mean(sims))


def assemble(
    layer_hits: dict[int, list[Hit]],
    hit_vectors: dict[int, np.ndarray],
    depth: int,
    dim: int,
    cfg: RouterConfig,
) -> FusedContext:
    """Build the full fused context from per-layer hits and their vectors.

    Shared by routing and by confidence gating, so a gated context is
    recomputed through exactly the same formulas as the original. Layers with
    no hits score -inf and get routing weight zero.
    """
    sims = {
        layer_no: np.array([h.sim for h in layer_hits.get(layer_no, [])])
        for layer_no in range(1, depth + 1)
    }
    scores = np.array(
        [_layer_score(s, cfg.layer_score_mode) if s.size else -np.inf for s in sims.values()]
    )
    if not np.any(np.isfinite(scores)):
        raise RoutingError("no layer produced any hits")
    weights = routing_weights(scores, cfg.temperature)
    readouts = np.zeros((depth, dim))
    paths: list[RetrievalPath] = []
    for layer_no, layer_sims in sims.items():
        if not layer_sims.size:
            continue
        within = routing_weights(layer_sims, 1.0)  # softmax over the layer's hit similarities
        readouts[layer_no - 1] = within @ hit_vectors[layer_no]
        for hit, w in zip(layer_hits[layer_no], within):
            paths.append(
                RetrievalPath(
                    layer=layer_no,
                    unit_id=hit.unit_id,
                    doc_id=hit.doc_id,
                    sim=hit.sim,
                    within_layer_weight=float(w),
                    path_confidence=float(weights[layer_no - 1] * w),
                )
            )
    paths.sort(key=lambda p: (-p.path_confidence, p.layer, p.unit_id))
    c = weights @ readouts
    if not np.all(np.isfinite(c)):
        raise ValueError("fused context has non-finite components")
    return FusedContext(
        c=c,
        paths=paths,
        weights=weights,
        scores=scores,
        layer_hits=layer_hits,
        hit_vectors=hit_vectors,
        config=cfg,
    )


def route(hier: MemoryHierarchy, query_text: str, cfg: RouterConfig = RouterConfig()) -> FusedContext:
    """Encode a query per layer, search, weight, and fuse into one context."""
    layers = range(1, hier.depth + 1)
    encodings = np.stack([embed(query_text, layer_no, hier.embedder_spec) for layer_no in layers])
    hits = {
        layer_no: search_layer(hier.layer(layer_no), encodings[layer_no - 1], cfg.k_per_layer)
        for layer_no in layers
    }
    hit_vectors = {
        layer_no: hier.layer(layer_no).vectors[[h.row for h in layer_hits]]
        for layer_no, layer_hits in hits.items()
        if layer_hits
    }
    ctx = assemble(hits, hit_vectors, hier.depth, hier.dim, cfg)
    ctx.encodings = encodings
    return ctx
