"""Cross-layer routing in two steps: the per-layer search, then its weighing.

``retrieve`` encodes a query for every layer in one pass and
``search_layers`` runs the exact top-k search of each layer for that
encoding, returning it as one immutable ``Retrieval(encodings, layers)``,
one ``SearchedLayer`` per layer; no temperature or gate threshold enters it,
and its first d layers are the search of the index's depth-d prefix
(``Retrieval.prefix``).
``assemble`` weighs a retrieval: the layers get a temperature softmax over
their evidence scores, and the fused context is the weight-sum of per-layer
readouts, where a readout is the similarity-softmax-weighted mean of that
layer's retrieved unit vectors.

A layer's within-layer softmax, readout and scores depend on its hits alone,
so a ``SearchedLayer`` computes them when it is made, and every prefix,
temperature and gate that weighs the layer reads those same arrays: write to
copies. A gate's survivors are a new ``Retrieval`` (``Retrieval.kept``): a
layer it keeps whole is the same record, any other is a new one, weighed anew.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import compress

import numpy as np

from .embedder import embed_layers
from .errors import ConfigError, RoutingError, require_type
from .memory import Hit, MemoryHierarchy, search_layer

SCORE_MODES = ("mean_topk", "max")


@dataclass(frozen=True)
class RouterConfig:
    k_per_layer: int = 5
    temperature: float = 1.0
    layer_score_mode: str = "mean_topk"

    def __post_init__(self):
        require_type("k_per_layer", self.k_per_layer, "int")
        if self.k_per_layer < 1:
            raise ConfigError(f"k_per_layer must be >= 1, got {self.k_per_layer}")
        if not 0 < self.temperature < np.inf:
            raise ConfigError(f"temperature must be finite and > 0, got {self.temperature}")
        if self.layer_score_mode not in SCORE_MODES:
            raise ConfigError(
                f"layer_score_mode must be one of {SCORE_MODES}, got {self.layer_score_mode!r}"
            )


@dataclass(frozen=True)
class RetrievalPath:
    """One (layer, unit) evidence route with its confidence."""

    layer: int
    unit_id: str
    doc_id: int
    sim: float
    path_confidence: float  # the layer's routing weight times the hit's within-layer weight


class SearchedLayer:
    """One searched layer: its hits, their vectors and sims, and their weighing.

    The weighing is computed when the record is made: ``within`` (the softmax over the
    hit sims, in hit order), ``readout`` (``within`` times the vectors; zeros for a
    layer with no hits) and the ``max`` and ``mean`` of the sims (-inf with no hits).
    It is shared by every prefix, temperature and gate that weighs the layer, so
    write to copies, never to these arrays.
    """

    __slots__ = ("hits", "vectors", "sims", "within", "readout", "max", "mean")

    def __init__(self, hits: list[Hit], vectors: np.ndarray):
        self.hits = hits  # best first
        self.vectors = vectors  # (n_hits, dim) unit vectors of the hits
        self.sims = sims = np.array([h.sim for h in hits])
        if hits:
            self.within, self.readout = _weigh(self)
            # the reductions np.max and np.mean run, without their wrappers: the same bits
            self.max, self.mean = float(sims.max()), float(sims.sum() / sims.size)
        else:
            self.within, self.readout = sims, np.zeros(vectors.shape[1])
            self.max = self.mean = -np.inf


def _weigh(layer: SearchedLayer) -> tuple[np.ndarray, np.ndarray]:
    """A layer's softmax over its hit sims, and the readout: that softmax times its vectors."""
    within = _softmax(layer.sims)
    return within, within @ layer.vectors


@dataclass(frozen=True)
class Retrieval:
    """One query's exact per-layer search; it does not depend on temperature or gate."""

    encodings: np.ndarray  # (depth, dim) query encodings, row l-1 for layer l
    layers: tuple[SearchedLayer, ...]  # layers[l-1]: layer l's top-k and its weighing

    def prefix(self, depth: int) -> "Retrieval":
        """The first ``depth`` layers: the search of the index's depth-``depth`` prefix."""
        if not 1 <= depth <= len(self.layers):
            raise ValueError(f"prefix depth must lie in [1, {len(self.layers)}], got {depth}")
        return Retrieval(self.encodings[:depth], self.layers[:depth])

    def kept(self, keep: list[np.ndarray]) -> "Retrieval":
        """The hits each layer's keep-mask selects, with their vectors, in hit order.

        A layer its mask keeps whole is itself; any other is a new ``SearchedLayer``.
        """
        layers = tuple(
            layer if mask.all() else SearchedLayer(list(compress(layer.hits, mask)), layer.vectors[mask])
            for layer, mask in zip(self.layers, keep, strict=True))
        return Retrieval(self.encodings, layers)


@dataclass(frozen=True)
class FusedContext:
    """What ``assemble`` computes, stored once; ``paths`` are derived from it on first read."""

    c: np.ndarray  # (dim,) weighted sum of layer readouts, not re-normalized
    weights: np.ndarray  # (depth,) routing weights, zeros for empty layers
    scores: np.ndarray  # (depth,) layer scores, -inf sentinel for empty layers
    retrieval: Retrieval  # the hits weighed: after gating, only the survivors
    config: RouterConfig
    gate_bypassed: bool = False

    @cached_property
    def paths(self) -> list[RetrievalPath]:
        """One path per hit, by descending confidence, then layer, then unit id."""
        paths = [
            RetrievalPath(layer_no, hit.unit_id, hit.doc_id, hit.sim, conf)
            for layer_no, (layer, weight) in enumerate(
                zip(self.retrieval.layers, self.weights, strict=True), start=1)
            for hit, conf in zip(layer.hits, (weight * layer.within).tolist(), strict=True)
        ]
        paths.sort(key=lambda p: (-p.path_confidence, p.layer, p.unit_id))
        return paths


def _softmax(z: np.ndarray, temperature: float = 1.0) -> np.ndarray:
    """Temperature softmax over the last axis; a -inf entry gets probability 0.

    The one softmax of the package: layer routing, within-layer readout
    weights and the answer model's distribution all go through it.
    """
    e = np.exp((z - z.max(axis=-1, keepdims=True)) / temperature)  # exp(-inf) -> 0
    return e / e.sum(axis=-1, keepdims=True)


def routing_weights(scores: np.ndarray, temperature: float) -> np.ndarray:
    """Temperature softmax over layer scores; -inf scores map to weight 0."""
    if not 0 < temperature < np.inf:
        raise ConfigError(f"temperature must be finite and > 0, got {temperature}")
    scores = np.asarray(scores, dtype=np.float64)
    if not np.isfinite(scores).any():
        raise RoutingError("all layer scores are -inf")
    # at T below about 1e-308, (z - max) / T overflows to -inf: exp -> 0, as intended
    with np.errstate(over="ignore"):
        return _softmax(scores, temperature)


def assemble(retrieval: Retrieval, cfg: RouterConfig) -> FusedContext:
    """Weigh a retrieval into the full fused context.

    Shared by routing and by confidence gating, so a gated context is
    recomputed through exactly the same formulas as the original. Layers with
    no hits score -inf, get routing weight zero and an empty ``within``. Each
    layer's softmax, readout and score come from its ``SearchedLayer``, weighed
    when it was made; only the routing weights and ``c`` are computed here.
    """
    layers = retrieval.layers
    scores = np.array([layer.max if cfg.layer_score_mode == "max" else layer.mean for layer in layers])
    if not np.isfinite(scores).any():
        raise RoutingError("no layer produced any hits")
    weights = routing_weights(scores, cfg.temperature)
    c = weights @ np.array([layer.readout for layer in layers])
    if not np.isfinite(c).all():
        raise ValueError("fused context has non-finite components")
    return FusedContext(
        c=c,
        weights=weights,
        scores=scores,
        retrieval=retrieval,
        config=cfg,
    )


def search_layers(hier: MemoryHierarchy, encodings: np.ndarray, k: int) -> Retrieval:
    """Exact top-k of every layer for its row of ``encodings``, with the hits' vectors."""
    layers = []
    for mem, q in zip(hier.layers, encodings, strict=True):
        hits = search_layer(mem, q, k)
        layers.append(SearchedLayer(hits, mem.vectors[[h.row for h in hits]]))
    return Retrieval(encodings, tuple(layers))


def retrieve(hier: MemoryHierarchy, query_text: str, k: int) -> Retrieval:
    """Encode a query for every layer at once and search every layer for its top ``k``."""
    encodings = embed_layers(query_text, range(1, hier.depth + 1), hier.embedder_spec)
    return search_layers(hier, encodings, k)


def route(hier: MemoryHierarchy, query_text: str, cfg: RouterConfig = RouterConfig()) -> FusedContext:
    """Retrieve a query and weigh the search into one context."""
    return assemble(retrieve(hier, query_text, cfg.k_per_layer), cfg)
