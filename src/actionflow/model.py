"""Model assembly: configuration, parameter init, and the full forward pass.

A Model binds a configuration, a vocabulary, a duration-cluster map, and a
parameter store. Its forward pass encodes one or more packed sequences at
once and produces, for every prefix index, the next-mark log-probabilities,
the goal log-probabilities, and the lognormal gap parameters gated by the
current action's duration cluster. The "plus" variant additionally maintains an
order-free prefix summary and offsets the history vectors by a scaled copy
of it (one scale per head) before the heads run. Model.step gives the same
predictions for one action appended to a cached sequence (generation); it
shares every head and every per-row layer with the forward pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import encoder as enc
from . import heads
from .data import ClusterMap, Ctas, Vocab
from .numerics import (
    ParamSpec,
    ParamStore,
    Segments,
    Tensor,
    draw_params,
    exp,
    guarded,
    log_softmax,
)

VARIANTS = ("base", "plus")


@dataclass
class ModelConfig:
    """Every architectural hyperparameter in one validated record.

    max_len bounds the number of non-terminal actions the model can handle;
    the positional table gets max_len + 1 rows so a terminal mark always
    fits. Set max_len to None to have the training driver derive it from
    the corpus (1.5 times the longest raw training sequence, rounded up).
    """

    VERSION = 2  # saved as "version"; unannotated, so not a field

    d: int = 16
    heads: int = 2
    blocks: int = 2
    clusters: int = 8
    max_len: int | None = None
    variant: str = "base"
    alpha_mark: float = 0.1
    alpha_time: float = 0.1
    alpha_goal: float = 0.1

    def validate(self) -> None:
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if self.clusters < 1:
            raise ValueError(f"cluster count must be positive, got {self.clusters}")
        for name in ("alpha_mark", "alpha_time", "alpha_goal"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.max_len is not None and self.max_len < 2:
            raise ValueError(f"max_len must be at least 2, got {self.max_len}")
        if self.d < 1:
            raise ValueError(f"embedding width must be positive, got {self.d}")
        if self.heads < 1 or self.d % self.heads != 0:
            raise ValueError(
                f"width {self.d} must be divisible by head count {self.heads}")
        if self.blocks < 1:
            raise ValueError(f"block count must be positive, got {self.blocks}")


@dataclass
class Predictions:
    """Every head's output at each encoded index, one row per index."""

    mark_logprob: Tensor
    mark_prob: Tensor
    goal_logprob: Tensor
    goal_prob: Tensor
    mu: Tensor
    sigma2: Tensor


@dataclass
class ForwardPass(Predictions):
    """All per-index predictions from one encoding of packed sequences, with
    the marks, times and layout (one segment per sequence) they came from."""

    marks: np.ndarray
    times: np.ndarray
    segs: Segments


def pack(seqs: list[Ctas]) -> tuple[np.ndarray, np.ndarray, Segments]:
    """Marks, times and row layout of sequences stacked for one forward pass."""
    marks = np.concatenate([s.marks() for s in seqs])
    return (marks, np.concatenate([s.times() for s in seqs]),
            Segments(marks.size, [len(s.actions) for s in seqs]))


def _check(config: ModelConfig, vocab: Vocab, clusters: ClusterMap) -> None:
    config.validate()
    if config.max_len is None:
        raise ValueError("model needs a concrete max_len; resolve it from the corpus first")
    if clusters.m != config.clusters:
        raise ValueError(
            f"cluster map has {clusters.m} clusters but config expects {config.clusters}")
    if len(clusters.assignments) != vocab.n_marks:
        raise ValueError(f"cluster map needs one assignment per mark ({vocab.n_marks}), "
                         f"got {len(clusters.assignments)}")
    vocab.validate()


def param_specs(config: ModelConfig, vocab: Vocab, clusters: ClusterMap) -> list[ParamSpec]:
    """Every parameter as (name, shape, draw), in the order Model.init draws
    them; nothing is drawn or allocated."""
    _check(config, vocab, clusters)  # init_encoder_params needs max_len
    specs = enc.init_encoder_params(config, vocab.n_marks)
    specs += heads.init_head_params(config.d, config.clusters, vocab.n_marks, vocab.n_goals)
    if config.variant == "plus":
        specs += enc.init_set_params(config)
    return specs


def layout(config: ModelConfig, vocab: Vocab,
           clusters: ClusterMap) -> tuple[list[str], list[list[int]]]:
    """The names and shapes of the store Model.init builds, in ``flat``
    order, as JSON lists; found without drawing or allocating a parameter."""
    specs = sorted(param_specs(config, vocab, clusters), key=lambda spec: spec[0])
    return [name for name, _, _ in specs], [list(shape) for _, shape, _ in specs]


class Model:
    """Configuration + vocabulary + cluster map + parameters, ready to run."""

    def __init__(self, config: ModelConfig, vocab: Vocab, clusters: ClusterMap,
                 store: ParamStore):
        _check(config, vocab, clusters)
        self.config = config
        self.vocab = vocab
        self.clusters = clusters
        self.store = store

    @classmethod
    def init(cls, config: ModelConfig, vocab: Vocab, clusters: ClusterMap,
             seed: int = 0) -> "Model":
        """Fresh parameters; rng consumption order is fixed by construction."""
        specs = param_specs(config, vocab, clusters)
        store = ParamStore(draw_params(specs, np.random.default_rng([seed, 0])))
        return cls(config, vocab, clusters, store)

    @guarded
    def forward(self, marks, times, segs: Segments) -> ForwardPass:
        """Encode once and evaluate every head at every prefix index.

        marks and times are packed, one segment of segs per sequence (pack's
        layout, or Segments(n) for a lone prefix). The gap parameters at index
        i are gated by the duration cluster of the action at index i (the
        current action when predicting what follows it). Runs under the
        floating-point guard, after checking the parameters and times.
        """
        self.store.check_finite()
        marks = np.asarray(marks, dtype=np.intp)
        times = np.asarray(times, dtype=np.float64)
        y = enc.embed_actions(self.store, marks, times, segs)
        s = enc.encode(self.store, self.config, y, segs)
        x = enc.set_embed(self.store, y, segs) if self.config.variant == "plus" else None
        return ForwardPass(*self._heads(s, x, marks), marks=marks, times=times, segs=segs)

    @guarded
    def step(self, cache: enc.DecodeCache, mark: int, t: float) -> Predictions:
        """Append one action to the cache's sequence and predict what follows.

        The one row returned is the last row of forward on the whole
        sequence, up to rounding, at the cost of encoding one action. Runs
        under the floating-point guard, as forward does.
        """
        self.store.check_finite()
        s, x = enc.encode_next(self.store, self.config, cache, mark, t)
        return Predictions(*self._heads(s, x, np.array([mark], dtype=np.intp)))

    def _heads(self, s: Tensor, x: Tensor | None, marks: np.ndarray) -> tuple[Tensor, ...]:
        """The Predictions fields from history rows s, the plus variant's
        summary rows x (else None) and the marks of those rows."""
        cfg = self.config
        mark_lp = log_softmax(heads.mark_logits(self.store, heads.fuse(s, x, cfg.alpha_mark)))
        goal_lp = log_softmax(heads.goal_logits(self.store, heads.fuse(s, x, cfg.alpha_goal)))
        mu, sigma2 = heads.time_params(self.store, heads.fuse(s, x, cfg.alpha_time),
                                       self.clusters.clusters_of(marks))
        return mark_lp, exp(mark_lp), goal_lp, exp(goal_lp), mu, sigma2

    def time_density_at(self, pred: Predictions, index: int) -> heads.TimeDensity:
        return heads.TimeDensity(mu=float(pred.mu.data[index, 0]),
                                 sigma2=float(pred.sigma2.data[index, 0]))
