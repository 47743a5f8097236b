"""Cross-layer routing in two steps: the per-layer search, then its weighing.

``retrieve`` encodes a query for every layer in one pass and
``search_layers`` runs the exact top-k search of each layer for that
encoding, returning it as one immutable ``Retrieval``; no temperature or
gate threshold enters it, and its first d layers are the search of the
index's depth-d prefix (``Retrieval.prefix``).
``assemble`` weighs a retrieval: the layers get a temperature softmax over
their evidence scores, and the fused context is the weight-sum of per-layer
readouts, where a readout is the similarity-softmax-weighted mean of that
layer's retrieved unit vectors.

A layer's within-layer softmax, readout and score in each mode depend on
its hits alone, so each layer of a ``Retrieval`` computes them once, on
first use, for every prefix, temperature and gate that weighs it; so does
the child holding a gate's survivors, once per distinct keep-mask. All of
it lives as long as the ``Retrieval``.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass
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


class _Layer:
    """One searched layer: its hits, their vectors and sims, and their weighing.

    Each part of the weighing is computed on first use and shared by every context that
    weighs the layer.
    """

    __slots__ = ("hits", "vectors", "sims", "_weighed", "_scores", "_kept")

    def __init__(self, hits: list[Hit], vectors: np.ndarray, sims: np.ndarray | None = None):
        self.hits = hits
        self.vectors = vectors
        self.sims = np.array([h.sim for h in hits]) if sims is None else sims
        self._weighed = None
        self._scores: dict[str, float] = {}
        self._kept: dict[bytes, _Layer] = {}

    def weighed(self) -> tuple[np.ndarray, np.ndarray | None]:
        """(within, readout); an empty layer has its empty sims as within and no readout."""
        if self._weighed is None:
            self._weighed = _weigh(self) if self.sims.size else (self.sims, None)
        return self._weighed

    def score(self, mode: str) -> float:
        """The max or the mean of the hit sims, by ``mode``; -inf for a layer with no hits."""
        if mode not in self._scores:
            sims = self.sims
            # the reductions np.max and np.mean run, without their wrappers: the same bits
            self._scores[mode] = (float(sims.max() if mode == "max" else sims.sum() / sims.size)
                                  if sims.size else -np.inf)
        return self._scores[mode]

    def kept(self, mask: np.ndarray) -> "_Layer":
        """The hits a boolean ``mask`` keeps, in hit order, as a layer (this one if all)."""
        key = mask.tobytes()
        if 0 not in key:
            return self
        if key not in self._kept:
            self._kept[key] = _Layer(list(compress(self.hits, mask)), self.vectors[mask], self.sims[mask])
        return self._kept[key]


def _weigh(layer: _Layer) -> tuple[np.ndarray, np.ndarray]:
    """A layer's softmax over its hit sims, and the readout: that softmax times its vectors."""
    within = _softmax(layer.sims)
    return within, within @ layer.vectors


@dataclass(frozen=True)
class Retrieval:
    """One query's exact per-layer search; it does not depend on temperature or gate.

    Each layer's weighing is kept with it and shared by its prefixes and gated children.
    """

    encodings: np.ndarray  # (depth, dim) query encodings, row l-1 for layer l
    hits: tuple[list[Hit], ...]  # hits[l-1]: layer l's top-k, best first
    vectors: tuple[np.ndarray, ...]  # vectors[l-1]: (n_hits, dim) unit vectors of those hits
    _layers: InitVar[tuple[_Layer, ...] | None] = None  # made from hits and vectors when None

    def __post_init__(self, _layers):
        if _layers is None:
            _layers = tuple(_Layer(h, v) for h, v in zip(self.hits, self.vectors, strict=True))
        object.__setattr__(self, "_layers", _layers)

    def prefix(self, depth: int) -> "Retrieval":
        """The first ``depth`` layers: the search of the index's depth-``depth`` prefix."""
        if not 1 <= depth <= len(self.hits):
            raise ValueError(f"prefix depth must lie in [1, {len(self.hits)}], got {depth}")
        return Retrieval(self.encodings[:depth], self.hits[:depth], self.vectors[:depth],
                         self._layers[:depth])

    def kept(self, keep: list[np.ndarray]) -> "Retrieval":
        """The hits each layer's keep-mask selects, with their vectors, in hit order."""
        layers = tuple(layer.kept(mask) for layer, mask in zip(self._layers, keep, strict=True))
        return Retrieval(self.encodings, tuple(layer.hits for layer in layers),
                         tuple(layer.vectors for layer in layers), layers)

    def check(self, depth: int, k: int, query_id: int) -> "Retrieval":
        """This retrieval, if it can be a top-``k`` search of a depth-``depth`` index.

        Otherwise a ``ValueError`` naming ``query_id``: it would weigh other layers or more hits.
        """
        most = max(map(len, self.hits), default=0)
        if len(self.hits) != depth or most > k:
            raise ValueError(f"query {query_id}: a retrieval of {len(self.hits)} layers and up to {most} "
                             f"hits a layer cannot be weighed at depth {depth} and k_per_layer {k}")
        return self


@dataclass(frozen=True)
class FusedContext:
    """What ``assemble`` computes, stored once; ``paths`` are derived from it on first read."""

    c: np.ndarray  # (dim,) weighted sum of layer readouts, not re-normalized
    weights: np.ndarray  # (depth,) routing weights, zeros for empty layers
    scores: np.ndarray  # (depth,) layer scores, -inf sentinel for empty layers
    within: tuple[np.ndarray, ...]  # within[l-1]: layer l's softmax over its hit sims, in hit order
    retrieval: Retrieval  # the hits weighed: after gating, only the survivors
    config: RouterConfig
    gate_bypassed: bool = False

    @cached_property
    def paths(self) -> list[RetrievalPath]:
        """One path per hit, by descending confidence, then layer, then unit id."""
        paths = [
            RetrievalPath(layer_no, hit.unit_id, hit.doc_id, hit.sim, conf)
            for layer_no, (hits, weight, within) in enumerate(
                zip(self.retrieval.hits, self.weights, self.within, strict=True), start=1)
            for hit, conf in zip(hits, (weight * within).tolist(), strict=True)
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
    layer's softmax, readout and score come from the retrieval's layers,
    computed there once; only the routing weights and ``c`` are computed here.
    """
    layers = retrieval._layers
    scores = np.array([layer.score(cfg.layer_score_mode) for layer in layers])
    if not np.any(np.isfinite(scores)):
        raise RoutingError("no layer produced any hits")
    weights = routing_weights(scores, cfg.temperature)
    weighed = [layer.weighed() for layer in layers]
    readouts = np.zeros(retrieval.encodings.shape)
    for row, (_, readout) in zip(readouts, weighed, strict=True):
        if readout is not None:
            row[:] = readout
    c = weights @ readouts
    if not np.all(np.isfinite(c)):
        raise ValueError("fused context has non-finite components")
    return FusedContext(
        c=c,
        weights=weights,
        scores=scores,
        within=tuple(within for within, _ in weighed),
        retrieval=retrieval,
        config=cfg,
    )


def search_layers(hier: MemoryHierarchy, encodings: np.ndarray, k: int) -> Retrieval:
    """Exact top-k of every layer for its row of ``encodings``, with the hits' vectors."""
    hits = tuple(search_layer(mem, q, k) for mem, q in zip(hier.layers, encodings, strict=True))
    vectors = tuple(mem.vectors[[h.row for h in found]] for mem, found in zip(hier.layers, hits))
    return Retrieval(encodings, hits, vectors)


def retrieve(hier: MemoryHierarchy, query_text: str, k: int) -> Retrieval:
    """Encode a query for every layer at once and search every layer for its top ``k``."""
    encodings = embed_layers(query_text, range(1, hier.depth + 1), hier.embedder_spec)
    return search_layers(hier, encodings, k)


def route(hier: MemoryHierarchy, query_text: str, cfg: RouterConfig = RouterConfig()) -> FusedContext:
    """Retrieve a query and weigh the search into one context."""
    return assemble(retrieve(hier, query_text, cfg.k_per_layer), cfg)
