"""Goal-conditioned sequence generation with a learned stopping rule.

Starting from a goal and a first action, the loop repeatedly samples the
next mark and a lognormal gap from the model, appends the candidate,
encodes it, and checks whether the model still believes the requested goal
is the most likely one. Every layer of the model is causal, so the candidate
is encoded alone (Model.step) against a cache of the earlier actions' keys,
values and running sums (encoder.DecodeCache); its predictions are the last
row of a forward pass over the whole prefix, up to rounding. Generation ends
in one of three ways, each closing the sequence with the terminal mark:

* goal_mismatch: the candidate pushed the predicted goal away from the
  request; the candidate is dropped and the terminal mark takes its time.
* eos_sampled: the mark head itself drew the terminal mark.
* max_len: the core sequence hit the cap; one extra gap is sampled for the
  terminal mark.

The returned core length therefore never exceeds max_len, and the full
sequence (terminal included) never exceeds max_len + 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Action, Ctas, DataError
from .encoder import CapacityError, DecodeCache
from .heads import TimeDensity, point_time, sample_time
from .model import Model

TERMINATION_REASONS = ("goal_mismatch", "eos_sampled", "max_len")

MODES = ("stochastic", "greedy")


@dataclass
class GenRequest:
    """What to generate: goal, first action, cap, seed, and sampling mode."""

    goal: int
    first_mark: int
    first_t: float = 0.0
    max_len: int | None = None
    seed: int = 0
    mode: str = "stochastic"

    def validate(self, model: Model) -> None:
        if not 0 <= self.goal < model.vocab.n_goals:
            raise DataError(f"goal id {self.goal} outside vocabulary")
        if not 0 <= self.first_mark < model.vocab.eos_id:
            raise DataError(f"first mark id {self.first_mark} outside vocabulary")
        if not (np.isfinite(self.first_t) and self.first_t >= 0.0):
            raise DataError(f"first time must be finite and non-negative, got {self.first_t}")
        if self.max_len is not None:
            if self.max_len < 2:
                raise DataError(f"max_len must be at least 2, got {self.max_len}")
            if self.max_len > model.config.max_len:
                raise CapacityError(
                    f"max_len {self.max_len} exceeds the model's capacity "
                    f"{model.config.max_len}")
        if self.mode not in MODES:
            raise DataError(f"mode must be one of {MODES}, got {self.mode!r}")


def _draw_mark(probs: np.ndarray, mode: str, rng: np.random.Generator) -> int:
    if mode == "greedy":
        return int(np.argmax(probs))
    p = probs / probs.sum()
    return int(rng.choice(p.size, p=p))


def _draw_gap(td: TimeDensity, mode: str, rng: np.random.Generator) -> float:
    return point_time(td) if mode == "greedy" else sample_time(td, rng)


def generate(model: Model, request: GenRequest, *,
             rng: np.random.Generator | None = None,
             seq_id: str = "gen") -> tuple[Ctas, str]:
    """Run the generation loop; returns the sequence and why it stopped.

    Greedy mode never touches the rng, so repeated calls are identical.
    Stochastic mode uses the supplied rng, or one derived from the request
    seed.
    """
    request.validate(model)
    max_len = request.max_len if request.max_len is not None else model.config.max_len
    if rng is None:
        rng = np.random.default_rng([request.seed])
    eos = model.vocab.eos_id
    cache = DecodeCache(model.config, max_len)
    actions = [Action(mark=request.first_mark, t=float(request.first_t))]
    pred = model.step(cache, request.first_mark, actions[0].t)
    while True:
        mark = _draw_mark(pred.mark_prob.data[0], request.mode, rng)
        t = actions[-1].t + _draw_gap(model.time_density_at(pred, 0), request.mode, rng)
        if mark == eos:
            reason = "eos_sampled"
            break
        pred = model.step(cache, mark, t)
        if int(np.argmax(pred.goal_prob.data[0])) != request.goal:
            # the candidate revealed the mismatch; the terminal mark takes its time
            reason = "goal_mismatch"
            break
        actions.append(Action(mark=mark, t=t))
        if len(actions) >= max_len:
            t += _draw_gap(model.time_density_at(pred, 0), request.mode, rng)
            reason = "max_len"
            break
    actions.append(Action(mark=eos, t=t))
    return Ctas(id=seq_id, goal=request.goal, actions=actions), reason


def core_actions(seq: Ctas, eos_id: int) -> list[Action]:
    """The generated actions without the single terminal mark."""
    if seq.actions and seq.actions[-1].mark == eos_id:
        return seq.actions[:-1]
    return list(seq.actions)
