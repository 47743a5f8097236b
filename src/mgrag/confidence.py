"""Uncertainty measures, the gate and objective settings, and path gating.

Entropy measures how spread a distribution is. GateConfig holds the path
threshold and the joint objective's coefficients and perturbation settings,
which the answer model's training uses. Gating removes retrieval paths whose
confidence falls below a threshold and recomputes the context over the
survivors.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from .errors import ConfigError
from .router import FusedContext, assemble

VAR_MODES = ("ensemble", "intra")


def validate_distribution(p: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    p = np.asarray(p, dtype=np.float64)
    if p.ndim != 1 or p.size == 0:
        raise ValueError(f"distribution must be a non-empty 1-d array, got shape {p.shape}")
    if not np.all(np.isfinite(p)):
        raise ValueError("distribution has non-finite entries")
    if np.any(p < -tol):
        raise ValueError(f"distribution has negative entries (min {p.min()})")
    total = float(p.sum())
    if abs(total - 1.0) > tol:
        raise ValueError(f"distribution sums to {total}, not 1")
    return p


def entropy(p: np.ndarray) -> float:
    """Shannon entropy in nats, with 0*ln(0) taken as 0."""
    p = validate_distribution(p)
    mask = p > 0
    return float(-np.sum(p[mask] * np.log(p[mask])))


@dataclass(frozen=True)
class GateConfig:
    tau_path: float = 0.0
    lambda1: float = 0.0
    lambda2: float = 0.0
    ensemble_K: int = 8
    noise_sigma: float = 0.05
    seed: int = 0
    var_mode: str = "ensemble"

    def __post_init__(self):
        if not 0.0 <= self.tau_path <= 1.0:
            raise ConfigError(f"tau_path must be in [0, 1], got {self.tau_path}")
        for name in ("lambda1", "lambda2", "noise_sigma"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ConfigError(f"{name} must be finite and >= 0, got {value}")
        if self.ensemble_K < 2:
            raise ConfigError(f"ensemble_K must be >= 2, got {self.ensemble_K}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.var_mode not in VAR_MODES:
            raise ConfigError(f"var_mode must be one of {VAR_MODES}, got {self.var_mode!r}")

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class ConfidenceReport:
    entropy: float
    variance: float
    l_gen: float
    total: float
    kept_paths: int
    dropped_paths: int
    gate_bypassed: bool = False


def filter_paths(ctx: FusedContext, tau_path: float) -> FusedContext:
    """Drop paths with confidence below tau and recompute the context.

    tau = 0 is a no-op that returns the input object. If every path would be
    dropped, gating is skipped and the context comes back flagged as bypassed
    rather than empty.
    """
    if not 0.0 <= tau_path <= 1.0:
        raise ConfigError(f"tau_path must be in [0, 1], got {tau_path}")
    if tau_path == 0.0:
        return ctx
    survivors = {(p.layer, p.unit_id) for p in ctx.paths if p.path_confidence >= tau_path}
    if not survivors:
        return replace(ctx, gate_bypassed=True)
    if len(survivors) == len(ctx.paths):
        return ctx
    kept_hits = {}
    kept_vectors = {}
    for layer_no, hits in ctx.layer_hits.items():
        keep = [i for i, h in enumerate(hits) if (layer_no, h.unit_id) in survivors]
        if keep:
            kept_hits[layer_no] = [hits[i] for i in keep]
            kept_vectors[layer_no] = ctx.hit_vectors[layer_no][keep]
    gated = assemble(kept_hits, kept_vectors, ctx.depth, ctx.c.shape[0], ctx.config)
    return replace(gated, encodings=ctx.encodings)
