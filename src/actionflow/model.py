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
from .numerics import ParamStore, Tensor, exp, log_softmax

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
    """All per-index predictions from one encoding of packed sequences.

    Row r of every tensor belongs to the sequence whose rows include r;
    lens[b] is the row count of sequence b, in packing order.
    """

    mark_logprob: Tensor
    mark_prob: Tensor
    goal_logprob: Tensor
    goal_prob: Tensor
    mu: Tensor
    sigma2: Tensor
    lens: np.ndarray

    def split(self) -> list["ForwardPass"]:
        """One forward-only pass per packed sequence, viewing its own rows."""
        fields = ("mark_logprob", "mark_prob", "goal_logprob", "goal_prob", "mu", "sigma2")
        ends = np.cumsum(self.lens)
        return [ForwardPass(**{f: Tensor(getattr(self, f).data[end - n:end]) for f in fields},
                            lens=np.array([n]))
                for n, end in zip(self.lens.tolist(), ends.tolist())]


def pack(seqs: list[Ctas]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Marks, times and row counts of sequences stacked for one forward pass."""
    return (np.concatenate([s.marks() for s in seqs]),
            np.concatenate([s.times() for s in seqs]),
            np.array([len(s.actions) for s in seqs], dtype=np.intp))


class Model:
    """Configuration + vocabulary + cluster map + parameters, ready to run."""

    def __init__(self, config: ModelConfig, vocab: Vocab, clusters: ClusterMap,
                 store: ParamStore):
        config.validate()
        if config.max_len is None:
            raise ValueError("model needs a concrete max_len; resolve it from the corpus first")
        if clusters.m != config.clusters:
            raise ValueError(
                f"cluster map has {clusters.m} clusters but config expects {config.clusters}")
        self.config = config
        self.vocab = vocab
        self.clusters = clusters
        self.store = store

    @classmethod
    def init(cls, config: ModelConfig, vocab: Vocab, clusters: ClusterMap,
             seed: int = 0) -> "Model":
        """Fresh parameters; rng consumption order is fixed by construction."""
        model = cls(config, vocab, clusters, ParamStore())
        rng = np.random.default_rng([seed, 0])
        enc.init_encoder_params(model.store, config, vocab.n_marks, rng)
        heads.init_head_params(model.store, config.d, config.clusters,
                               vocab.n_marks, vocab.n_goals, rng)
        if config.variant == "plus":
            enc.init_set_params(model.store, config, rng)
        return model

    def encode(self, marks, times, lens=None) -> enc.EncoderState:
        """History vectors (and prefix sums for the plus variant)."""
        y = enc.embed_actions(self.store, marks, times, lens)
        s = enc.encode(self.store, self.config, y, lens)
        x = enc.set_embed(self.store, y, lens) if self.config.variant == "plus" else None
        return enc.EncoderState(s=s, x=x)

    def forward(self, marks, times, lens=None) -> ForwardPass:
        """Encode once and evaluate every head at every prefix index.

        marks and times are packed: lens[b] consecutive actions per sequence
        (lens=None: a single sequence). The gap parameters at index i are
        gated by the duration cluster of the action at index i (the current
        action when predicting what follows it).
        """
        marks = np.asarray(marks, dtype=np.intp)
        state = self.encode(marks, times, lens)
        cfg = self.config
        s_mark = heads.fuse(state.s, state.x, cfg.alpha_mark)
        s_goal = heads.fuse(state.s, state.x, cfg.alpha_goal)
        s_time = heads.fuse(state.s, state.x, cfg.alpha_time)
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
            lens=np.array([marks.size] if lens is None else lens, dtype=np.intp),
        )

    def time_density_at(self, fwd: ForwardPass, index: int) -> heads.TimeDensity:
        return heads.TimeDensity(mu=float(fwd.mu.data[index, 0]),
                                 sigma2=float(fwd.sigma2.data[index, 0]))
