"""The three benchmark workloads and the corpora they feed the program.

A workload fixes the template structure (goal count, template lengths, gap
parameters), an equal number of sequences per goal, and the training
settings. The ``--seed`` of a run draws the corpus from that
structure: the order of the sequences, the order swaps, the gap noise and,
for ``train_mixed``, each sequence's clock offset. The same seed gives the
same corpus. The program only ever sees the corpus file the set-up writes.

Why each workload exists, and what it should and should not move, is in
``perfbench/README.md``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from actionflow.data import Action, Ctas
from actionflow.synth import GoalTemplate, SynthSpec

# the template structure is part of a workload's definition, not of a run
STRUCTURE_SEED = 20230719


@dataclass(frozen=True)
class Workload:
    name: str
    template_lens: tuple[int, ...]
    # each goal owns this many marks, repeated in order up to the template
    # length; None gives every template position its own mark
    cycle: int | None
    mu_range: tuple[float, float]
    # sequences per goal
    per_goal: int
    # each sequence is shifted by a uniform draw from [0, clock_offset) s
    clock_offset: float
    swap_prob: float
    # TrainConfig fields
    train: dict
    # train() writes final.json/best.json after every epoch
    ckpt_every_epoch: bool = False
    # the model is trained once per set-up; the loop only loads and serves it
    train_in_setup: bool = False
    setup_reps: int = 9
    # eval + generation rounds per cycle, so that the serving metrics get
    # samples between the (longer) training jobs
    serve_reps: int = 1
    gen_requests: int = 24
    gen_cap: int | None = None
    gen_mode: str = "stochastic"

    def spec(self, seed: int) -> SynthSpec:
        """Templates fixed by the workload; the seed only draws sequences."""
        rng = np.random.default_rng([STRUCTURE_SEED, *self.name.encode()])
        goals = []
        for g, length in enumerate(self.template_lens):
            cycle = self.cycle or length
            own_mu = rng.uniform(*self.mu_range, size=cycle)
            template = [f"g{g}a{i % cycle}" for i in range(length)]
            mu = [float(own_mu[i % cycle]) for i in range(length)]
            swaps = [(1, 2)] if self.swap_prob > 0.0 else []
            goals.append(GoalTemplate(name=f"goal{g}", template=template, mu=mu,
                                      sigma=[0.25] * length, swap_pairs=swaps))
        # goals are drawn uniformly; oversample, then keep per_goal of each
        count = 2 * self.per_goal * len(goals)
        return SynthSpec(goals=goals, count=count, seed=seed, swap_prob=self.swap_prob)

    def balance(self, corpus: list[Ctas]) -> list[Ctas]:
        """The first ``per_goal`` sequences of every goal, in corpus order."""
        kept: dict[int, int] = {}
        out = []
        for seq in corpus:
            if kept.get(seq.goal, 0) < self.per_goal:
                kept[seq.goal] = kept.get(seq.goal, 0) + 1
                out.append(seq)
        if len(out) != self.per_goal * len(self.template_lens):
            raise ValueError(f"{self.name}: too few sequences of some goal")
        return out

    def shift_clocks(self, corpus: list[Ctas], seed: int) -> list[Ctas]:
        """Give every sequence its own clock origin, as separate logs have."""
        if self.clock_offset == 0.0:
            return corpus
        offsets = np.random.default_rng([seed, 1]).uniform(
            0.0, self.clock_offset, size=len(corpus))
        return [Ctas(id=s.id, goal=s.goal,
                     actions=[Action(a.mark, a.t + float(o)) for a in s.actions])
                for s, o in zip(corpus, offsets)]


WORKLOADS = {w.name: w for w in (
    Workload(
        name="train_short",
        template_lens=(4, 5, 6, 4, 5, 6, 5, 5), cycle=None,
        mu_range=(0.3, 1.2), per_goal=50, clock_offset=0.0, swap_prob=0.1,
        train={"epochs": 3, "batch_size": 32, "lr": 2e-2},
        serve_reps=2, gen_requests=64, gen_mode="greedy"),
    Workload(
        name="train_mixed",
        template_lens=(8, 20, 32, 44, 56, 68, 80, 96), cycle=4,
        mu_range=(0.3, 1.0), per_goal=30, clock_offset=3600.0, swap_prob=0.1,
        train={"epochs": 2, "batch_size": 16, "lr": 1e-2},
        ckpt_every_epoch=True, setup_reps=11, serve_reps=2, gen_requests=64, gen_cap=3),
    Workload(
        name="infer_long",
        template_lens=(32, 40, 48, 56), cycle=4,
        mu_range=(0.0, 0.5), per_goal=40, clock_offset=0.0, swap_prob=0.0,
        train={"epochs": 12, "batch_size": 32, "lr": 1e-2},
        ckpt_every_epoch=True, train_in_setup=True, setup_reps=3,
        gen_requests=24, gen_cap=32, gen_mode="greedy"),
)}
