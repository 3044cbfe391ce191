"""Model assembly: configuration, parameter init, and the full forward pass.

A Model binds a configuration, a vocabulary, a duration-cluster map, and a
parameter store. Its forward pass encodes one or more packed sequences at
once and produces, for every prefix index, the next-mark log-probabilities,
the goal log-probabilities, and the lognormal gap parameters gated by the
current action's duration cluster. The "plus" variant additionally maintains an
order-free prefix summary and offsets the history vectors by a scaled copy
of it (one scale per head) before the heads run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict

import numpy as np

from . import encoder as enc
from . import heads
from .data import ClusterMap, Ctas, Vocab, read_record
from .numerics import ParamStore, Segments, Tensor, exp, log_softmax

VARIANTS = ("base", "plus")

FFN_FORMS = ("summed", "standard")

CONFIG_VERSION = 1


@dataclass
class ModelConfig:
    """Every architectural hyperparameter in one validated record.

    max_len bounds the number of non-terminal actions the model can handle;
    the positional table gets max_len + 1 rows so a terminal mark always
    fits. Set max_len to None to have the training driver derive it from
    the corpus (1.5 times the longest raw training sequence, rounded up).
    """

    d: int = 16
    heads: int = 2
    blocks: int = 2
    clusters: int = 8
    max_len: int | None = None
    variant: str = "base"
    alpha_mark: float = 0.1
    alpha_time: float = 0.1
    alpha_goal: float = 0.1
    ffn: str = "summed"

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
        if self.ffn not in FFN_FORMS:
            raise ValueError(f"feed-forward form must be one of {FFN_FORMS}, got {self.ffn!r}")

    def to_dict(self) -> dict:
        return {**asdict(self), "version": CONFIG_VERSION}

    @classmethod
    def from_dict(cls, payload: dict) -> "ModelConfig":
        return read_record(cls, payload, "model config", version=CONFIG_VERSION)


@dataclass
class ForwardPass:
    """All per-index predictions from one encoding of packed sequences, with
    the marks, times and layout (one segment per sequence) they came from."""

    mark_logprob: Tensor
    mark_prob: Tensor
    goal_logprob: Tensor
    goal_prob: Tensor
    mu: Tensor
    sigma2: Tensor
    marks: np.ndarray
    times: np.ndarray
    segs: Segments


def pack(seqs: list[Ctas]) -> tuple[np.ndarray, np.ndarray, Segments]:
    """Marks, times and row layout of sequences stacked for one forward pass."""
    marks = np.concatenate([s.marks() for s in seqs])
    return (marks, np.concatenate([s.times() for s in seqs]),
            Segments(marks.size, [len(s.actions) for s in seqs]))


def _check(config: ModelConfig, clusters: ClusterMap) -> None:
    config.validate()
    if config.max_len is None:
        raise ValueError("model needs a concrete max_len; resolve it from the corpus first")
    if clusters.m != config.clusters:
        raise ValueError(
            f"cluster map has {clusters.m} clusters but config expects {config.clusters}")


class Model:
    """Configuration + vocabulary + cluster map + parameters, ready to run."""

    def __init__(self, config: ModelConfig, vocab: Vocab, clusters: ClusterMap,
                 store: ParamStore):
        _check(config, clusters)
        self.config = config
        self.vocab = vocab
        self.clusters = clusters
        self.store = store

    @classmethod
    def init(cls, config: ModelConfig, vocab: Vocab, clusters: ClusterMap,
             seed: int = 0) -> "Model":
        """Fresh parameters; rng consumption order is fixed by construction."""
        _check(config, clusters)  # before any draw: init_encoder_params needs max_len
        rng = np.random.default_rng([seed, 0])
        params = enc.init_encoder_params(config, vocab.n_marks, rng)
        params += heads.init_head_params(config.d, config.clusters, vocab.n_marks,
                                         vocab.n_goals, rng)
        if config.variant == "plus":
            params += enc.init_set_params(config, rng)
        return cls(config, vocab, clusters, ParamStore(params))

    def forward(self, marks, times, segs: Segments) -> ForwardPass:
        """Encode once and evaluate every head at every prefix index.

        marks and times are packed, one segment of segs per sequence (pack's
        layout, or Segments(n) for a lone prefix). The gap parameters at index
        i are gated by the duration cluster of the action at index i (the
        current action when predicting what follows it).
        """
        marks = np.asarray(marks, dtype=np.intp)
        times = np.asarray(times, dtype=np.float64)
        cfg = self.config
        y = enc.embed_actions(self.store, marks, times, segs)
        s = enc.encode(self.store, cfg, y, segs)
        x = enc.set_embed(self.store, y, segs) if cfg.variant == "plus" else None
        s_mark = heads.fuse(s, x, cfg.alpha_mark)
        s_goal = heads.fuse(s, x, cfg.alpha_goal)
        s_time = heads.fuse(s, x, cfg.alpha_time)
        mark_lp = log_softmax(heads.mark_logits(self.store, s_mark))
        goal_lp = log_softmax(heads.goal_logits(self.store, s_goal))
        cluster_ids = self.clusters.clusters_of(marks)
        mu, sigma2 = heads.time_params(self.store, s_time, cluster_ids)
        return ForwardPass(
            mark_logprob=mark_lp,
            mark_prob=exp(mark_lp),
            goal_logprob=goal_lp,
            goal_prob=exp(goal_lp),
            mu=mu,
            sigma2=sigma2,
            marks=marks, times=times, segs=segs,
        )

    def time_density_at(self, fwd: ForwardPass, index: int) -> heads.TimeDensity:
        return heads.TimeDensity(mu=float(fwd.mu.data[index, 0]),
                                 sigma2=float(fwd.sigma2.data[index, 0]))
