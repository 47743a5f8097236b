"""Uncertainty measures, the gate and objective settings, and path gating.

Entropy measures how spread a distribution is. GateConfig holds the path
threshold and the joint objective's coefficients and perturbation settings,
which the answer model's training uses. Gating removes retrieval paths whose
confidence falls below a threshold and recomputes the context over the
survivors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, require_type
from .router import FusedContext, assemble

VAR_MODES = ("ensemble", "intra")
# the ensemble's draws are (N, K, dim) floats held for a whole training run or sweep
_MAX_ENSEMBLE_K = 1024


def validate_distribution(p: np.ndarray) -> np.ndarray:
    p = np.asarray(p, dtype=np.float64)
    if p.ndim != 1 or p.size == 0:
        raise ValueError(f"distribution must be a non-empty 1-d array, got shape {p.shape}")
    # NaN makes both extremes NaN and an infinity makes one of them infinite, so
    # finite extremes mean finite entries; only those are summed, which may overflow
    lowest = p.min()
    if not (math.isfinite(lowest) and math.isfinite(p.max())):
        raise ValueError("distribution has non-finite entries")
    if lowest < -1e-9:
        raise ValueError(f"distribution has negative entries (min {lowest})")
    total = float(p.sum())
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"distribution sums to {total}, not 1")
    return p


def entropy(p: np.ndarray) -> float:
    """Shannon entropy in nats, with 0*ln(0) taken as 0."""
    p = validate_distribution(p)
    mask = p > 0
    return float(0.0 - np.sum(p[mask] * np.log(p[mask])))  # +0.0, not -0.0, for a point mass


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
        require_type("ensemble_K", self.ensemble_K, "int")
        require_type("seed", self.seed, "int")
        if self.ensemble_K < 2:
            raise ConfigError(f"ensemble_K must be >= 2, got {self.ensemble_K}")
        if self.ensemble_K > _MAX_ENSEMBLE_K:
            raise ConfigError(f"ensemble_K must be <= {_MAX_ENSEMBLE_K}, got {self.ensemble_K}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.var_mode not in VAR_MODES:
            raise ConfigError(f"var_mode must be one of {VAR_MODES}, got {self.var_mode!r}")


def filter_paths(ctx: FusedContext, tau_path: float) -> FusedContext:
    """Drop paths with confidence below tau and re-weigh the surviving hits.

    A path's confidence is its layer's weight times its within-layer weight,
    so each layer's keep-mask is ``weights[l] * within[l] >= tau``, in hit
    order. tau = 0 is a no-op that returns the input object, as is a tau
    that keeps every path. If every path would be dropped, gating is skipped
    and the context comes back flagged as bypassed rather than empty. A
    layer the gate keeps whole is reused as it is; any other is rebuilt
    from its survivors and weighed anew (``Retrieval.kept``).
    """
    if not 0.0 <= tau_path <= 1.0:
        raise ConfigError(f"tau_path must be in [0, 1], got {tau_path}")
    if tau_path == 0.0:
        return ctx
    keep = [w * layer.within >= tau_path for w, layer in zip(ctx.weights, ctx.retrieval.layers)]
    if not any(mask.any() for mask in keep):
        return replace(ctx, gate_bypassed=True)
    if all(mask.all() for mask in keep):
        return ctx
    return assemble(ctx.retrieval.kept(keep), ctx.config)
