"""Prediction heads: next mark, gap density, and goal, from history vectors.

The time head is gated by the duration cluster of the current action: the
history vector is multiplied elementwise with that cluster's trainable
embedding before two linear readouts produce the lognormal location and a
raw scale, the latter mapped through softplus plus a small floor so the
variance stays positive. The fused model variant offsets the history vector
by a scaled order-free prefix summary before any head runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import (
    NumericError,
    ParamStore,
    Tensor,
    add,
    matmul,
    mul,
    relu,
    softplus,
    take_rows,
)

SIGMA_FLOOR = 1e-4


@dataclass
class TimeDensity:
    """Lognormal parameters for the gap to the next action."""

    mu: float
    sigma2: float


def init_head_params(d: int, m: int, n_marks: int, n_goals: int,
                     rng: np.random.Generator) -> list[tuple[str, np.ndarray]]:
    """All head parameters, in the fixed order they consume rng; m is the
    duration-cluster count."""
    bound = 1.0 / math.sqrt(d)

    def uniform(shape):
        return rng.uniform(-bound, bound, size=shape)

    return [
        ("mark.w", uniform((d, n_marks))),
        ("mark.bias", np.zeros(n_marks)),
        ("goal.w_hidden", uniform((d, d))),
        ("goal.b_hidden", np.zeros(d)),
        ("goal.w_out", uniform((d, n_goals))),
        ("goal.b_out", np.zeros(n_goals)),
        ("time.clusters", uniform((m, d))),
        ("time.w_mu", uniform((d, 1))),
        ("time.b_mu", np.zeros(1)),
        ("time.w_var", uniform((d, 1))),
        ("time.b_var", np.zeros(1)),
    ]


def fuse(s: Tensor, x: Tensor | None, alpha: float) -> Tensor:
    """History vectors offset by the scaled order-free summary.

    With alpha == 0 (or no summary present) the history passes through
    untouched, so the fused variant collapses to the base computation
    bit for bit.
    """
    if x is None or alpha == 0.0:
        return s
    return add(s, mul(x, alpha))


def mark_logits(store: ParamStore, s: Tensor) -> Tensor:
    return add(matmul(s, store["mark.w"]), store["mark.bias"])


def goal_logits(store: ParamStore, s: Tensor) -> Tensor:
    hidden = relu(add(matmul(s, store["goal.w_hidden"]), store["goal.b_hidden"]))
    return add(matmul(hidden, store["goal.w_out"]), store["goal.b_out"])


def time_params(store: ParamStore, s: Tensor, cluster_ids) -> tuple[Tensor, Tensor]:
    """Per-index lognormal (mu, sigma^2) columns, gated by duration cluster.

    cluster_ids[i] selects the cluster embedding multiplied into row i; only
    that row's parameters depend on it, so embeddings of inactive clusters
    leave the output untouched.
    """
    cluster_ids = np.asarray(cluster_ids, dtype=np.intp)
    m = store["time.clusters"].data.shape[0]
    if cluster_ids.size and (cluster_ids.min() < 0 or cluster_ids.max() >= m):
        raise NumericError(f"cluster id outside [0, {m})")
    z = take_rows(store["time.clusters"], cluster_ids)
    e = mul(s, z)
    mu = add(matmul(e, store["time.w_mu"]), store["time.b_mu"])
    raw = add(matmul(e, store["time.w_var"]), store["time.b_var"])
    sigma2 = add(softplus(raw), SIGMA_FLOOR)
    return mu, sigma2


# ---------------------------------------------------------------------------
# lognormal gap density
# ---------------------------------------------------------------------------

def log_density(td: TimeDensity, delta: float) -> float:
    """Closed-form lognormal log-density of a positive gap."""
    if delta <= 0.0:
        raise NumericError(f"gap must be positive, got {delta}")
    lg = math.log(delta)
    return (-lg
            - 0.5 * math.log(2.0 * math.pi * td.sigma2)
            - (lg - td.mu) ** 2 / (2.0 * td.sigma2))


def sample_time(td: TimeDensity, rng: np.random.Generator) -> float:
    """Draw a gap: exp(mu + sigma * eps) with standard normal eps."""
    return float(np.exp(td.mu + math.sqrt(td.sigma2) * rng.standard_normal()))


def point_time(td: TimeDensity) -> float:
    """Median gap e^mu, the point prediction used for time error metrics."""
    return float(np.exp(td.mu))
