"""Reference computations the tests check the library against.

``feature_code`` hashes one feature the plain scalar way, with Python ints,
outside the embedder's array pass.
``predict`` and ``nll`` score one example the plain way, outside the
library's batched objective. ``objective`` reads the joint objective and its
gradient for one example off one epoch of ``train``, the function the
pipeline runs. ``path_ranking`` collapses a context's ``paths`` to a document
ranking one path at a time, in path order.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from mgrag.generator import _P_FLOOR, GeneratorParams, QAExample, TrainConfig, train
from mgrag.memory import MemoryHierarchy
from mgrag.router import FusedContext, _softmax

_MASK64 = (1 << 64) - 1


def _splitmix64_finalizer(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def feature_code(feature: bytes, key: int, dim: int) -> int:
    """``2 * slot + sign_bit`` of one feature: start from ``key ^ len``, fold in each 8-byte
    little-endian word of the feature (the last one null-padded), then mix once more."""
    h = key ^ len(feature)
    for i in range(0, len(feature), 8):
        h = _splitmix64_finalizer(h ^ int.from_bytes(feature[i : i + 8], "little"))
    h = _splitmix64_finalizer(h)
    return 2 * ((h >> 1) % dim) + (h & 1)


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


def objective(
    params: GeneratorParams, example: QAExample, hier: MemoryHierarchy, cfg: TrainConfig
) -> tuple[dict, np.ndarray, np.ndarray]:
    """The objective's terms for one example, and its gradient (dW, db).

    One epoch at lr 1 records the terms at ``params`` as its only history row
    (means over one row, so the example's own values) and steps by exactly
    the gradient, which is read back as ``params - stepped``.
    """
    result = train([example], hier, replace(cfg, lr=1.0, epochs=1), params=params)
    [row] = result.history
    return row, params.W - result.params.W, params.b - result.params.b


def path_ranking(ctx: FusedContext, mode: str) -> tuple[tuple[int, ...], tuple[float, ...]]:
    """Doc ids and scores: each document's strongest path (max) or its paths summed in path order."""
    by_doc: dict[int, float] = {}
    for path in ctx.paths:
        if mode == "max":
            by_doc[path.doc_id] = max(by_doc.get(path.doc_id, -np.inf), path.path_confidence)
        else:
            by_doc[path.doc_id] = by_doc.get(path.doc_id, 0.0) + path.path_confidence
    ranked = sorted(by_doc.items(), key=lambda item: (-item[1], item[0]))
    return tuple(doc_id for doc_id, _ in ranked), tuple(score for _, score in ranked)
