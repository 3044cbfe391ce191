"""Model assembly: configuration, parameter init, and the full forward pass.

A Model binds a configuration, a vocabulary, a duration-cluster map, and a
parameter store. Its forward pass encodes a sequence once and produces, for
every prefix index, the next-mark log-probabilities, the goal
log-probabilities, and the lognormal gap parameters gated by the current
action's duration cluster. The "plus" variant additionally maintains an
order-free prefix summary and offsets the history vectors by a scaled copy
of it (one scale per head) before the heads run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict

import numpy as np

from . import encoder as enc
from . import heads
from .data import ClusterMap, Vocab
from .numerics import ParamStore, Tensor, exp, log_softmax

VARIANTS = ("base", "plus")

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
        self.encoder_config().validate()

    def encoder_config(self) -> enc.EncoderConfig:
        rows = 4 if self.max_len is None else self.max_len + 1
        return enc.EncoderConfig(d=self.d, heads=self.heads, blocks=self.blocks,
                                 max_len=rows, ffn=self.ffn)

    def to_dict(self) -> dict:
        payload = asdict(self)
        payload["version"] = CONFIG_VERSION
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "ModelConfig":
        payload = dict(payload)
        version = payload.pop("version", CONFIG_VERSION)
        if version != CONFIG_VERSION:
            raise ValueError(f"unsupported model config version {version!r}")
        known = {f.name for f in cls.__dataclass_fields__.values()}
        unknown = set(payload) - known
        if unknown:
            raise ValueError(f"unknown model config key {sorted(unknown)[0]!r}")
        cfg = cls(**payload)
        cfg.validate()
        return cfg


@dataclass
class ForwardPass:
    """All per-index predictions from one encoding of a sequence."""

    mark_logprob: Tensor
    mark_prob: Tensor
    goal_logprob: Tensor
    goal_prob: Tensor
    mu: Tensor
    sigma2: Tensor


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
        config.validate()
        store = ParamStore()
        rng = np.random.default_rng([seed, 0])
        ecfg = config.encoder_config()
        enc.init_encoder_params(store, ecfg, vocab.n_marks, rng)
        heads.init_head_params(store, config.d, config.clusters,
                               vocab.n_marks, vocab.n_goals, rng)
        if config.variant == "plus":
            enc.init_set_params(store, ecfg, rng)
        return cls(config, vocab, clusters, store)

    def encode(self, marks, times) -> enc.EncoderState:
        """History vectors (and prefix sums for the plus variant)."""
        ecfg = self.config.encoder_config()
        y = enc.embed_actions(self.store, ecfg, marks, times)
        s = enc.encode(self.store, ecfg, y)
        x = enc.set_embed(self.store, ecfg, y) if self.config.variant == "plus" else None
        return enc.EncoderState(s=s, x=x)

    def forward(self, marks, times) -> ForwardPass:
        """Encode once and evaluate every head at every prefix index.

        The gap parameters at index i are gated by the duration cluster of
        the action at index i (the current action when predicting what
        follows it).
        """
        marks = np.asarray(marks, dtype=np.intp)
        state = self.encode(marks, times)
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
        )

    def time_density_at(self, fwd: ForwardPass, index: int) -> heads.TimeDensity:
        return heads.TimeDensity(mu=float(fwd.mu.data[index, 0]),
                                 sigma2=float(fwd.sigma2.data[index, 0]))
