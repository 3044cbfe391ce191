"""Training losses: likelihood, discounted goal term, margins, and their sum.

All loss functions build taped tensor expressions, so calling them inside an
open GradTape yields gradients; calling them outside just computes numbers.
Each term scores a whole batch from one packed ForwardPass its caller
computed (see model.pack) and returns one value per sequence; none runs the
model itself or re-derives the packed layout: the pass carries its marks,
times and Segments. The per-sequence values cover:

* nll: negative log-likelihood of every transition, the one into the
  terminal mark included, combining the next-mark log-probability with the
  lognormal log-density of the observed gap.
* discounted_goal_ce: cross-entropy of the goal at each prefix index k,
  weighted by gamma**k (k starting at 1), so late certainty earns less.
* margin_goal / margin_action: hinge penalties whenever a probability drops
  below its best value at any earlier index, pressing detection scores to be
  non-decreasing along the sequence. The running best starts at zero, so the
  first index is never penalized.

A batch loss is the mean of per-sequence totals plus one L2 term over all
parameters, recorded on the tape as a single op over the store's flat
parameter vector.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .data import Ctas
from .model import ForwardPass, Model, pack
from .numerics import (
    NumericError,
    ParamStore,
    Segments,
    Tensor,
    _emit,
    add,
    guarded,
    div,
    log,
    mul,
    pick,
    primitive,
    relu,
    segment_sum,
    shifted_prefix_max,
    sub,
    sum_all,
    take_rows,
)


@dataclass
class LossBreakdown:
    """Scalar components of one loss evaluation.

    l2 holds the raw squared parameter norm; total applies the weights:
    total = nll + goal_ce + margin_weight * (margin_goal + margin_action)
    + l2_coeff * l2.
    """

    nll: float
    goal_ce: float
    margin_goal: float
    margin_action: float
    l2: float
    total: float

    @classmethod
    def build(cls, nll: float, goal_ce: float, margin_goal: float,
              margin_action: float, l2: float, margin_weight: float,
              l2_coeff: float) -> "LossBreakdown":
        total = nll + goal_ce + margin_weight * (margin_goal + margin_action) + l2_coeff * l2
        if not math.isfinite(total):
            raise NumericError("loss total is not finite")
        return cls(nll=nll, goal_ce=goal_ce, margin_goal=margin_goal,
                   margin_action=margin_action, l2=l2, total=total)

    def to_dict(self) -> dict:
        return asdict(self)


def hinge_sum(probs: Tensor, segs: Segments) -> Tensor:
    """Per-sequence sum of max(0, running-best - current) down each column.

    probs holds packed rows laid out by segs. The running best is the
    strictly-previous prefix maximum with each sequence's first row pinned
    to zero, so any column that never decreases contributes exactly zero.
    """
    return segment_sum(relu(sub(shifted_prefix_max(probs, segs), probs)), segs)


def _goal_rows(batch: list[Ctas], fwd: ForwardPass) -> np.ndarray:
    """The goal of the sequence each packed row belongs to."""
    return np.array([seq.goal for seq in batch], dtype=np.intp)[fwd.segs.seg]


def nll(model: Model, batch: list[Ctas], *, fwd: ForwardPass) -> Tensor:
    """Negative log-likelihood of all transitions, one value per sequence.

    Every transition, the one into a terminal mark included, scores both its
    mark and its gap.
    """
    for seq in batch:
        if len(seq.actions) < 2:
            raise ValueError(f"sequence {seq.id!r} has no transitions")
    marks, times, segs = fwd.marks, fwd.times, fwd.segs
    src = np.delete(np.arange(segs.n), segs.last)  # rows with a successor
    gaps = times[src + 1] - times[src]
    if np.any(gaps <= 0.0):
        raise NumericError("non-positive gap")
    steps = Segments(src.size, segs.lens - 1)
    mark_ll = segment_sum(pick(fwd.mark_logprob, src, marks[src + 1]), steps)
    mu = take_rows(fwd.mu, src)
    sigma2 = take_rows(fwd.sigma2, src)
    log_gap = Tensor(np.log(gaps)[:, None])
    centered = sub(log_gap, mu)
    quad = div(mul(centered, centered), mul(sigma2, 2.0))
    half_log = mul(log(mul(sigma2, 2.0 * math.pi)), 0.5)
    per_step = sub(sub(mul(log_gap, -1.0), half_log), quad)
    return mul(add(mark_ll, segment_sum(per_step, steps)), -1.0)


def discounted_goal_ce(model: Model, batch: list[Ctas], gamma: float, *,
                       fwd: ForwardPass) -> Tensor:
    """Per sequence, the sum over indices k=1..n of gamma^k times the goal
    cross-entropy."""
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"gamma must lie in [0, 1], got {gamma}")
    lp = pick(fwd.goal_logprob, np.arange(fwd.segs.n), _goal_rows(batch, fwd))
    weights = gamma ** (fwd.segs.pos + 1.0)
    return mul(segment_sum(mul(lp, Tensor(weights)), fwd.segs), -1.0)


def margin_goal(model: Model, batch: list[Ctas], *, fwd: ForwardPass) -> Tensor:
    """Hinge penalty for drops in the true goal's probability along each sequence."""
    p = pick(fwd.goal_prob, np.arange(fwd.segs.n), _goal_rows(batch, fwd))
    return hinge_sum(p, fwd.segs)


def margin_action(model: Model, batch: list[Ctas], *, fwd: ForwardPass) -> Tensor:
    """Hinge penalty for drops in the probabilities of each goal's action set.

    A sequence's candidate set is the marks observed with its goal in the
    training split (terminal mark excluded); each candidate keeps its own
    running best. Other marks are zeroed out, which makes their hinge zero.
    """
    candidates = np.zeros((model.vocab.n_goals, model.vocab.n_marks))
    for goal in sorted({seq.goal for seq in batch}):
        candidates[goal, list(model.vocab.marks_for_goal(goal))] = 1.0
    keep = Tensor(candidates[_goal_rows(batch, fwd)])
    return hinge_sum(mul(fwd.mark_prob, keep), fwd.segs)


@primitive
def l2_penalty(store: ParamStore) -> Tensor:
    """Squared norm of every parameter, as one tape record.

    The flat parameter vector is squared once; the value is the name-order
    sum of each parameter's own total (so it equals a per-parameter chain
    bit for bit), and the gradient is 2 * flat split back into parameters.
    """
    flat = store.flat
    total = sum(part.sum() for part in store.split(flat * flat))
    return _emit("l2_penalty", total, store.tensors, lambda g: store.split(2.0 * g * flat))


def sequence_terms(model: Model, batch: list[Ctas], *, gamma: float) -> dict[str, Tensor]:
    """Every loss term of a batch from one packed forward pass; each term
    holds one value per sequence, in batch order."""
    fwd = model.forward(*pack(batch))
    return {
        "nll": nll(model, batch, fwd=fwd),
        "goal_ce": discounted_goal_ce(model, batch, gamma, fwd=fwd),
        "margin_goal": margin_goal(model, batch, fwd=fwd),
        "margin_action": margin_action(model, batch, fwd=fwd),
    }


@guarded
def total_loss(model: Model, batch: list[Ctas], *, gamma: float,
               margin_weight: float, l2_coeff: float) -> tuple[Tensor, LossBreakdown]:
    """Batch objective: mean of per-sequence totals plus one L2 term.

    Returns the taped scalar to differentiate and a float breakdown whose
    components are batch means (l2 is the raw squared norm). Runs under the
    floating-point guard. A non-finite parameter aborts first; any other
    non-finite value aborts with the offending sequence id in the error: the
    batch is then re-run one sequence at a time to find it.
    """
    if not batch:
        raise ValueError("empty batch")
    model.store.check_finite()
    try:
        terms = sequence_terms(model, batch, gamma=gamma)
    except NumericError:
        for seq in batch:
            try:
                sequence_terms(model, [seq], gamma=gamma)
            except NumericError as e:
                raise NumericError(f"sequence {seq.id!r}: {e}") from None
        raise
    per_seq = add(add(terms["nll"], terms["goal_ce"]),
                  mul(add(terms["margin_goal"], terms["margin_action"]), margin_weight))
    mean = mul(sum_all(per_seq), 1.0 / len(batch))
    l2 = l2_penalty(model.store)
    total = add(mean, mul(l2, l2_coeff)) if l2_coeff != 0.0 else mean
    breakdown = LossBreakdown.build(
        **{name: float(t.data.sum()) / len(batch) for name, t in terms.items()},
        l2=float(l2.data), margin_weight=margin_weight, l2_coeff=l2_coeff)
    return total, breakdown
