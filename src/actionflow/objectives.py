"""Training losses: likelihood, discounted goal term, margins, and their sum.

All loss functions build taped tensor expressions, so calling them inside an
open GradTape yields gradients; calling them outside just computes numbers.
Each per-sequence term scores a ForwardPass its caller computed; none runs
the model itself.
Per-sequence losses cover:

* nll: negative log-likelihood of every transition, combining the next-mark
  log-probability with the lognormal log-density of the observed gap.
* discounted_goal_ce: cross-entropy of the goal at each prefix index k,
  weighted by gamma**k (k starting at 1), so late certainty earns less.
* margin_goal / margin_action: hinge penalties whenever a probability drops
  below its best value at any earlier index, pressing detection scores to be
  non-decreasing along the sequence. The running best starts at zero, so the
  first index is never penalized.

A batch loss is the mean of per-sequence totals plus one L2 term over all
parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import Ctas
from .model import ForwardPass, Model
from .numerics import (
    NumericError,
    ParamStore,
    Tensor,
    add,
    div,
    log,
    mul,
    pick,
    relu,
    shifted_prefix_max,
    sub,
    sum_all,
    take_cols,
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
        return {
            "nll": self.nll,
            "goal_ce": self.goal_ce,
            "margin_goal": self.margin_goal,
            "margin_action": self.margin_action,
            "l2": self.l2,
            "total": self.total,
        }


def hinge_sum(probs: Tensor) -> Tensor:
    """Sum of max(0, running-best - current) down each column.

    The running best is the strictly-previous prefix maximum with the first
    row pinned to zero, so any column that never decreases contributes
    exactly zero.
    """
    return sum_all(relu(sub(shifted_prefix_max(probs), probs)))


def _transition_indices(n: int) -> np.ndarray:
    return np.arange(n - 1, dtype=np.intp)


def _nll_terms(fwd: ForwardPass, seq: Ctas, eos_time_term: bool,
               eos_id: int) -> Tensor:
    n = len(seq.actions)
    if n < 2:
        raise ValueError(f"sequence {seq.id!r} has no transitions")
    marks = seq.marks()
    times = seq.times()
    gaps = np.diff(times)
    if np.any(gaps <= 0.0):
        raise NumericError(f"sequence {seq.id!r}: non-positive gap")
    idx = _transition_indices(n)
    mark_ll = sum_all(pick(fwd.mark_logprob, idx, marks[1:]))
    time_idx = idx
    time_gaps = gaps
    if not eos_time_term and marks[-1] == eos_id:
        time_idx = idx[:-1]
        time_gaps = gaps[:-1]
    if time_idx.size == 0:
        return mul(mark_ll, -1.0)
    mu = take_rows(fwd.mu, time_idx)
    sigma2 = take_rows(fwd.sigma2, time_idx)
    log_gap = Tensor(np.log(time_gaps)[:, None])
    centered = sub(log_gap, mu)
    quad = div(mul(centered, centered), mul(sigma2, 2.0))
    half_log = mul(log(mul(sigma2, 2.0 * math.pi)), 0.5)
    per_step = sub(sub(mul(log_gap, -1.0), half_log), quad)
    return mul(add(mark_ll, sum_all(per_step)), -1.0)


def nll(model: Model, seq: Ctas, eos_time_term: bool = True, *,
        fwd: ForwardPass) -> Tensor:
    """Negative log-likelihood of all transitions of one sequence.

    The terminal transition's mark term always participates; its time term
    can be dropped with eos_time_term=False since the terminal gap is a
    synthetic constant.
    """
    return _nll_terms(fwd, seq, eos_time_term, model.vocab.eos_id)


def discounted_goal_ce(model: Model, seq: Ctas, gamma: float, *,
                       fwd: ForwardPass) -> Tensor:
    """Sum over indices k=1..n of gamma^k times the goal cross-entropy."""
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"gamma must lie in [0, 1], got {gamma}")
    n = len(seq.actions)
    idx = np.arange(n, dtype=np.intp)
    lp = pick(fwd.goal_logprob, idx, np.full(n, seq.goal, dtype=np.intp))
    weights = gamma ** np.arange(1, n + 1, dtype=np.float64)
    return mul(sum_all(mul(lp, Tensor(weights))), -1.0)


def margin_goal(model: Model, seq: Ctas, *, fwd: ForwardPass) -> Tensor:
    """Hinge penalty for drops in the true goal's probability along the sequence."""
    n = len(seq.actions)
    idx = np.arange(n, dtype=np.intp)
    p = pick(fwd.goal_prob, idx, np.full(n, seq.goal, dtype=np.intp))
    return hinge_sum(p)


def margin_action(model: Model, seq: Ctas, *, fwd: ForwardPass) -> Tensor:
    """Hinge penalty for drops in the probabilities of the goal's action set.

    The candidate set is the marks observed with this goal in the training
    split (terminal mark excluded); each candidate keeps its own running
    best.
    """
    candidates = model.vocab.marks_for_goal(seq.goal)
    p = take_cols(fwd.mark_prob, np.array(candidates, dtype=np.intp))
    return hinge_sum(p)


def l2_penalty(store: ParamStore) -> Tensor:
    """Squared norm of every parameter, accumulated in name order."""
    acc: Tensor | None = None
    for _, t in store.items():
        term = sum_all(mul(t, t))
        acc = term if acc is None else add(acc, term)
    if acc is None:
        return Tensor(0.0)
    return acc


def sequence_loss(model: Model, seq: Ctas, *, gamma: float,
                  apply_margin: bool = True,
                  eos_time_term: bool = True) -> dict[str, Tensor]:
    """Unweighted per-sequence terms sharing a single forward pass.

    Returns named taped tensors; the caller weights the margins and sums.
    """
    fwd = model.forward(seq.marks(), seq.times())
    terms = {
        "nll": nll(model, seq, eos_time_term, fwd=fwd),
        "goal_ce": discounted_goal_ce(model, seq, gamma, fwd=fwd),
    }
    if apply_margin:
        terms["margin_goal"] = margin_goal(model, seq, fwd=fwd)
        terms["margin_action"] = margin_action(model, seq, fwd=fwd)
    return terms


def total_loss(model: Model, batch: list[Ctas], *, gamma: float,
               margin_weight: float, l2_coeff: float,
               apply_margin: bool = True,
               eos_time_term: bool = True) -> tuple[Tensor, LossBreakdown]:
    """Batch objective: mean of per-sequence totals plus one L2 term.

    Returns the taped scalar to differentiate and a float breakdown whose
    components are batch means (l2 is the raw squared norm). A non-finite
    component aborts with the offending sequence id in the error.
    """
    if not batch:
        raise ValueError("empty batch")
    acc: Tensor | None = None
    sums = {"nll": 0.0, "goal_ce": 0.0, "margin_goal": 0.0, "margin_action": 0.0}
    for seq in batch:
        try:
            terms = sequence_loss(model, seq, gamma=gamma, apply_margin=apply_margin,
                                  eos_time_term=eos_time_term)
        except NumericError as e:
            raise NumericError(f"sequence {seq.id!r}: {e}") from None
        seq_total = add(terms["nll"], terms["goal_ce"])
        if apply_margin:
            margins = add(terms["margin_goal"], terms["margin_action"])
            seq_total = add(seq_total, mul(margins, margin_weight))
        for name, tensor in terms.items():
            sums[name] += float(tensor.data)
        acc = seq_total if acc is None else add(acc, seq_total)
    mean = mul(acc, 1.0 / len(batch))
    l2 = l2_penalty(model.store)
    total = add(mean, mul(l2, l2_coeff)) if l2_coeff != 0.0 else mean
    breakdown = LossBreakdown.build(
        nll=sums["nll"] / len(batch),
        goal_ce=sums["goal_ce"] / len(batch),
        margin_goal=sums["margin_goal"] / len(batch),
        margin_action=sums["margin_action"] / len(batch),
        l2=float(l2.data),
        margin_weight=margin_weight if apply_margin else 0.0,
        l2_coeff=l2_coeff,
    )
    return total, breakdown
