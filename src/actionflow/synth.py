"""Synthetic corpus generation with known ground truth.

Each goal owns an ordered template of marks. Every template position carries
lognormal gap parameters (mu, sigma) describing how long that action takes
before the next one starts, so e^mu is the ground-truth median duration.
Optional swap pairs exchange two template positions with a configurable
probability, injecting mild order noise while keeping the emitted mark
multiset (and therefore the goal identity, for disjoint templates) intact.

A generator spec is a JSON object::

    {
      "count": 1000,
      "seed": 7,
      "swap_prob": 0.1,
      "goals": [
        {"name": "brew", "template": ["grind", "pour", "press"],
         "mu": [0.0, 1.1, 0.5], "sigma": [0.25, 0.25, 0.25],
         "swap_pairs": [[0, 1]]}
      ]
    }
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .data import Ctas, Action, Vocab, read_record


class SynthSpecError(ValueError):
    """The generator spec is structurally or numerically invalid."""


@dataclass
class GoalTemplate:
    """One goal's mark order and per-position gap parameters."""

    name: str
    template: list[str]
    mu: list[float]
    sigma: list[float]
    swap_pairs: list[list[int]] = field(default_factory=list)

    def validate(self) -> None:
        if not self.template:
            raise SynthSpecError(f"goal {self.name!r}: empty template")
        n = len(self.template)
        if len(self.mu) != n or len(self.sigma) != n:
            raise SynthSpecError(
                f"goal {self.name!r}: mu/sigma lengths must match the template length {n}")
        for v in self.mu:
            if not math.isfinite(v):
                raise SynthSpecError(f"goal {self.name!r}: non-finite mu")
        for v in self.sigma:
            if not math.isfinite(v) or v <= 0.0:
                raise SynthSpecError(f"goal {self.name!r}: sigma must be finite and positive")
        for pair in self.swap_pairs:
            if len(pair) != 2:
                raise SynthSpecError(f"goal {self.name!r}: swap pair must have two positions")
            i, j = pair
            if not (0 <= i < n and 0 <= j < n) or i == j:
                raise SynthSpecError(
                    f"goal {self.name!r}: swap pair ({i}, {j}) outside template of length {n}")


@dataclass(kw_only=True)  # so that goals, saved last, is declared last
class SynthSpec:
    """Full generator configuration: goals, noise level, count, and seed."""

    VERSION = 1  # saved as "version"; unannotated, so not a field

    count: int
    seed: int = 0
    swap_prob: float = 0.0
    goals: list[GoalTemplate]

    def validate(self) -> None:
        if not self.goals:
            raise SynthSpecError("spec needs at least one goal")
        names = [g.name for g in self.goals]
        if len(set(names)) != len(names):
            raise SynthSpecError("duplicate goal names")
        if self.count < 1:
            raise SynthSpecError(f"count must be at least 1, got {self.count}")
        if self.seed < 0:
            raise SynthSpecError(f"seed must be non-negative, got {self.seed}")
        if not 0.0 <= self.swap_prob <= 1.0:
            raise SynthSpecError(f"swap_prob must lie in [0, 1], got {self.swap_prob}")
        for g in self.goals:
            g.validate()

    @classmethod
    def from_dict(cls, payload: dict) -> "SynthSpec":
        try:
            return read_record(cls, payload, "synth spec")
        except ValueError as e:
            raise SynthSpecError(str(e)) from None


def build_vocab(spec: SynthSpec) -> Vocab:
    """Vocab over the spec's marks (first appearance order) and goals."""
    marks: list[str] = []
    seen: set[str] = set()
    for g in spec.goals:
        for name in g.template:
            if name not in seen:
                seen.add(name)
                marks.append(name)
    return Vocab(marks, [g.name for g in spec.goals])


def generate(spec: SynthSpec) -> tuple[list[Ctas], Vocab]:
    """Draw a corpus from the spec; deterministic for a fixed seed.

    Each sequence picks a goal uniformly, applies seeded swaps to the
    template, and accumulates times from a small seeded positive offset.
    The gap after position i is exp(mu_i + sigma_i * eps); the final
    position's parameters are unused because nothing follows it.
    """
    spec.validate()
    vocab = build_vocab(spec)
    rng = np.random.default_rng(spec.seed)
    corpus: list[Ctas] = []
    for i in range(spec.count):
        g = int(rng.integers(len(spec.goals)))
        tpl = spec.goals[g]
        entries = [(vocab.mark_id(m), mu, sg)
                   for m, mu, sg in zip(tpl.template, tpl.mu, tpl.sigma)]
        for a, b in tpl.swap_pairs:
            if rng.random() < spec.swap_prob:
                entries[a], entries[b] = entries[b], entries[a]
        t = float(rng.uniform(0.01, 0.25))
        actions = []
        for mark, mu, sg in entries:
            actions.append(Action(mark=mark, t=t))
            t += float(np.exp(mu + sg * rng.standard_normal()))
        corpus.append(Ctas(id=f"s{i:06d}", goal=g, actions=actions))
    return corpus, vocab
