"""Adam training loop with seeding, logging, and exact-resume checkpoints.

Training is deterministic for a fixed seed: parameter init, the per-epoch
shuffle, and the update order all derive from it, and the shuffle rng is
re-derived per epoch so a resumed run needs no carried rng state. Each epoch
writes one JSON line to the training log: loss components, the health of the
epoch's last step (global gradient norm and update-to-parameter ratio) and
wall time; a fresh run starts the log over, a resumed run appends to it.
Adam is built for the model's store and steps its one flat parameter vector
in one vectorized pass.
A checkpoint is one versioned JSON record: model config, vocabulary (with one
action set per goal id), cluster map (one cluster per mark id, the terminal
mark last), the parameters' names and shapes once, then the parameter vector and
Adam's state (its step and two moment vectors laid out like
``ParamStore.flat``). Each vector is one base64 string of little-endian
float64 bytes (``data.encode_vector``), so it round-trips bit for bit. The
file is declared once, as ``Checkpoint``: ``data.write_record`` writes it and
``data.read_record`` reads it back, checking every field for type and range
and the names and shapes against those the config describes, before any
parameter is allocated, so a bad file is one ValueError. Its ``model`` is
built over the saved parameter vector. A resumed run builds its Adam from
the TrainConfig it is given and loads only the saved state into it; with the
saved config it reproduces an uninterrupted run bit for bit.
"""

from __future__ import annotations

import functools
import json
import logging
import math
import os
import time
from dataclasses import dataclass, replace

import numpy as np

from .data import (
    ClusterMap,
    Ctas,
    Vocab,
    append_eos_corpus,
    build_clusters,
    duration_means,
    median_gap,
    observed_marks_by_goal,
    read_record,
    split_by_goal,
    write_record,
)
from .model import Model, ModelConfig, layout
from .numerics import GradTape, NumericError, ParamStore, guarded
from .objectives import LossBreakdown, total_loss

log = logging.getLogger(__name__)

CHECKPOINT_VERSION = 7


class TrainingDiverged(ArithmeticError):
    """The total loss left the finite range; the last checkpoint survives."""


@dataclass
class TrainConfig:
    """Optimization settings; loss weights live here too."""

    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    epochs: int = 50
    batch_size: int = 32
    seed: int = 0
    margin_weight: float = 0.1
    l2_coeff: float = 0.001
    gamma: float = 0.9

    def validate(self) -> None:
        # lr == 0 is allowed: it freezes parameters, which is useful in tests
        if not 0.0 <= self.lr < math.inf:
            raise ValueError(f"learning rate must be finite and non-negative, got {self.lr}")
        for name in ("beta1", "beta2"):
            v = getattr(self, name)
            if not 0.0 <= v < 1.0:
                raise ValueError(f"{name} must lie in [0, 1), got {v}")
        if not 0.0 < self.eps < math.inf:
            raise ValueError(f"eps must be finite and positive, got {self.eps}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be at least 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch size must be at least 1, got {self.batch_size}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError(f"gamma must lie in [0, 1], got {self.gamma}")
        if not (0.0 <= self.margin_weight < math.inf and 0.0 <= self.l2_coeff < math.inf):
            raise ValueError("margin_weight and l2_coeff must be finite and non-negative")

    @classmethod
    def from_dict(cls, payload: dict) -> "TrainConfig":
        return read_record(cls, payload, "train config")


class Adam:
    """Bias-corrected Adam over one ParamStore's flat parameter vector.

    The optimizer is built for one store. The moments m and v are two
    vectors laid out like ``store.flat``, so a step is one vectorized pass;
    each element goes through the same float operations as a per-parameter
    loop would. A checkpoint saves ``step``, ``m`` and ``v`` as they are.
    """

    def __init__(self, store: ParamStore, lr: float = 1e-3, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.store = store
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step = 0
        self.m = self.v = np.zeros(store.flat.size)  # replaced on every step, never written into

    @classmethod
    def from_config(cls, store: ParamStore, cfg: TrainConfig) -> "Adam":
        return cls(store, lr=cfg.lr, beta1=cfg.beta1, beta2=cfg.beta2, eps=cfg.eps)

    @guarded
    def update(self) -> tuple[float, float]:
        """Apply one step using the gradients currently on the store.

        Returns the step's health: the global L2 norm of the gradient, and
        the update ratio ||delta|| / ||params|| (params before the step).
        Runs under the floating-point guard: a step that overflows raises
        NumericError and leaves the optimizer and the parameters unusable.
        """
        flat = self.store.flat
        g = self.store.flat_grad()
        self.step += 1
        bc1 = 1.0 - self.beta1 ** self.step
        bc2 = 1.0 - self.beta2 ** self.step
        self.m = self.beta1 * self.m + (1.0 - self.beta1) * g
        self.v = self.beta2 * self.v + (1.0 - self.beta2) * (g * g)
        delta = self.lr * (self.m / bc1) / (np.sqrt(self.v / bc2) + self.eps)
        size2 = float(flat @ flat)
        flat -= delta
        ratio = math.sqrt(float(delta @ delta) / size2) if size2 > 0.0 else math.inf
        return math.sqrt(float(g @ g)), ratio


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def save_checkpoint(path, model: Model, train_cfg: TrainConfig | None = None,
                    optimizer: Adam | None = None, epoch: int = 0,
                    best_total: float | None = None) -> None:
    """Write the checkpoint atomically: a crash mid-write leaves the old file."""
    store = model.store
    ckpt = Checkpoint(
        model_config=model.config, vocab=model.vocab, clusters=model.clusters,
        names=store.names(), shapes=[list(t.data.shape) for t in store.tensors],
        params=store.flat, train_config=train_cfg,
        optimizer=None if optimizer is None else OptimizerState(
            optimizer.step, optimizer.m, optimizer.v),
        epoch=epoch, best_total=best_total)
    # one string from the C encoder, one write: json.dump would run the
    # pure-Python encoder and write it chunk by chunk, at twice the cost
    text = json.dumps(write_record(ckpt))
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


@dataclass
class OptimizerState:
    """Adam's saved state: the step count and the two moment vectors. The
    settings it steps with come from the TrainConfig that train() is given."""

    step: int
    m: np.ndarray
    v: np.ndarray

    def validate(self) -> None:
        if self.step < 0:
            raise ValueError(f"optimizer step must be non-negative, got {self.step}")
        if (self.v < 0.0).any():
            raise ValueError("optimizer v holds a negative value")


@dataclass
class Checkpoint:
    """The checkpoint file: its version, then one key per field, with the
    model those fields describe and the resumable training state."""

    VERSION = CHECKPOINT_VERSION  # saved as "version"; unannotated, so not a field

    model_config: ModelConfig
    vocab: Vocab
    clusters: ClusterMap
    names: list[str]
    shapes: list[list[int]]
    params: np.ndarray
    train_config: TrainConfig | None
    optimizer: OptimizerState | None
    epoch: int
    best_total: float | None

    def validate(self) -> None:
        if self.epoch < 0:
            raise ValueError(f"checkpoint epoch must be non-negative, got {self.epoch}")
        if self.best_total is not None and not math.isfinite(self.best_total):
            raise ValueError(f"checkpoint best_total must be finite, got {self.best_total}")
        size = sum(math.prod(shape) for shape in self.shapes)
        vectors = [self.params]
        if self.optimizer is not None:
            vectors += [self.optimizer.m, self.optimizer.v]
        if any(vector.size != size for vector in vectors):
            raise ValueError(f"checkpoint vectors hold {[v.size for v in vectors]} values, "
                             f"its names and shapes describe {size}")
        if (self.names, self.shapes) != layout(self.model_config, self.vocab, self.clusters):
            raise ValueError("checkpoint names and shapes do not match the parameters "
                             "its model config builds")

    @functools.cached_property
    def model(self) -> Model:
        """The model the config describes, its store built over ``params`` itself."""
        return Model(self.model_config, self.vocab, self.clusters,
                     ParamStore.from_flat(self.names, self.shapes, self.params))


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint and build its model.

    Every field is read by ``data.read_record`` and type-checked against
    ``Checkpoint``; the version must be CHECKPOINT_VERSION, every vector
    finite and as long as the saved shapes describe, the counts and ids in
    range, the per-goal and per-mark tables one entry per id, and the names
    and shapes those the config describes, all before any parameter is
    allocated. Any refusal is a ValueError.
    """
    with open(path, "r", encoding="utf-8") as fh:
        ckpt = read_record(Checkpoint, json.load(fh), "checkpoint", require_version=True)
    ckpt.model  # built here, so a caller gets a checkpoint whose model is ready
    return ckpt


# ---------------------------------------------------------------------------
# the loop
# ---------------------------------------------------------------------------

def train(corpus: list[Ctas], vocab: Vocab, clusters: ClusterMap,
          model_cfg: ModelConfig, train_cfg: TrainConfig, *,
          ckpt_dir: str | None = None,
          resume: Checkpoint | None = None) -> tuple[Model, list[dict]]:
    """Optimize a model on an already-prepared (terminal-augmented) corpus.

    Returns the trained model and the per-epoch log entries. When ckpt_dir
    is given, writes final.json after every epoch, best.json whenever the
    epoch total improves, and train_log.jsonl incrementally; a divergent
    loss aborts with those files intact. A ``resume`` checkpoint supplies
    the model, the epoch and the saved optimizer state; every setting,
    Adam's included, comes from ``train_cfg``.
    """
    train_cfg.validate()
    if not corpus:
        raise ValueError("empty training corpus")
    if resume is not None:
        model = resume.model
        start_epoch = resume.epoch + 1
        best_total = resume.best_total if resume.best_total is not None else math.inf
    else:
        model = Model.init(model_cfg, vocab, clusters, seed=train_cfg.seed)
        start_epoch = 1
        best_total = math.inf
    optimizer = Adam.from_config(model.store, train_cfg)
    if resume is not None and resume.optimizer is not None:
        state = resume.optimizer
        optimizer.step, optimizer.m, optimizer.v = state.step, state.m, state.v
    if ckpt_dir is not None:
        os.makedirs(ckpt_dir, exist_ok=True)
    log_path = None if ckpt_dir is None else os.path.join(ckpt_dir, "train_log.jsonl")
    log_mode = "w" if resume is None else "a"
    entries: list[dict] = []
    n = len(corpus)
    for epoch in range(start_epoch, train_cfg.epochs + 1):
        started = time.perf_counter()
        rng = np.random.default_rng([train_cfg.seed, 1, epoch])
        order = rng.permutation(n)
        sums = {"nll": 0.0, "goal_ce": 0.0, "margin_goal": 0.0, "margin_action": 0.0}
        last_l2 = 0.0
        for lo in range(0, n, train_cfg.batch_size):
            batch = [corpus[i] for i in order[lo:lo + train_cfg.batch_size]]
            model.store.zero_grads()
            try:
                with GradTape() as tape:
                    total, bd = total_loss(
                        model, batch,
                        gamma=train_cfg.gamma,
                        margin_weight=train_cfg.margin_weight,
                        l2_coeff=train_cfg.l2_coeff,
                    )
                    tape.backward(total)
                health = optimizer.update()
            except NumericError as e:
                raise TrainingDiverged(f"epoch {epoch}: {e}") from None
            for key in sums:
                sums[key] += getattr(bd, key) * len(batch)
            last_l2 = bd.l2
        breakdown = LossBreakdown.build(
            **{key: value / n for key, value in sums.items()}, l2=last_l2,
            margin_weight=train_cfg.margin_weight, l2_coeff=train_cfg.l2_coeff)
        grad_norm, update_ratio = health
        entry = {"epoch": epoch, **breakdown.to_dict(), "grad_norm": grad_norm,
                 "update_ratio": update_ratio, "seconds": time.perf_counter() - started}
        entries.append(entry)
        log.info("epoch %d: total %.6f (nll %.6f, goal_ce %.6f)",
                 epoch, breakdown.total, breakdown.nll, breakdown.goal_ce)
        if ckpt_dir is not None:
            with open(log_path, log_mode, encoding="utf-8") as fh:
                fh.write(json.dumps(entry) + "\n")
            log_mode = "a"
            if breakdown.total < best_total:
                best_total = breakdown.total
                save_checkpoint(os.path.join(ckpt_dir, "best.json"), model,
                                train_cfg, optimizer, epoch, best_total)
            save_checkpoint(os.path.join(ckpt_dir, "final.json"), model,
                            train_cfg, optimizer, epoch, best_total)
        else:
            best_total = min(best_total, breakdown.total)
    return model, entries


# ---------------------------------------------------------------------------
# corpus preparation + one-call driver
# ---------------------------------------------------------------------------

@dataclass
class Prepared:
    """Everything train() needs, derived from a raw corpus."""

    train_raw: list[Ctas]
    test_raw: list[Ctas]
    train_aug: list[Ctas]
    vocab: Vocab
    clusters: ClusterMap
    eos_gap: float
    model_config: ModelConfig


def resolve_max_len(model_cfg: ModelConfig, train_raw: list[Ctas]) -> ModelConfig:
    """Fill in max_len as 1.5x the longest raw training sequence, rounded up."""
    if model_cfg.max_len is not None:
        return model_cfg
    longest = max(len(seq) for seq in train_raw)
    return replace(model_cfg, max_len=max(2, math.ceil(1.5 * longest)))


def prepare(corpus: list[Ctas], vocab: Vocab, model_cfg: ModelConfig,
            train_cfg: TrainConfig, *, do_split: bool = True,
            train_fraction: float = 0.8) -> Prepared:
    """Split, cluster, derive candidate action sets, and append terminals.

    Clustering and the per-goal action sets come from the raw training side
    only; the terminal gap is the training corpus' median inter-action gap.
    The cluster count is lowered to the number of distinct per-mark mean
    gaps when the config asks for more, since the extra clusters would stay
    empty. ``vocab`` is left as it is: the returned vocabulary is a copy
    that carries the per-goal action sets.
    """
    if do_split:
        train_raw, test_raw = split_by_goal(corpus, train_fraction, seed=train_cfg.seed)
    else:
        train_raw, test_raw = list(corpus), []
    durations = duration_means(train_raw, vocab.eos_id)
    distinct = durations.distinct
    resolved = resolve_max_len(model_cfg, train_raw)
    if resolved.clusters > distinct:
        log.info("lowering the cluster count from %d to %d, the number of distinct "
                 "per-mark mean gaps", resolved.clusters, distinct)
        resolved = replace(resolved, clusters=distinct)
    resolved.validate()
    clusters = build_clusters(durations, resolved.clusters)
    vocab = replace(vocab, goal_marks=observed_marks_by_goal(train_raw, vocab.n_goals))
    gap = median_gap(train_raw)
    train_aug = append_eos_corpus(train_raw, gap, vocab.eos_id)
    return Prepared(train_raw=train_raw, test_raw=test_raw, train_aug=train_aug,
                    vocab=vocab, clusters=clusters, eos_gap=gap, model_config=resolved)


def run_training(corpus: list[Ctas], vocab: Vocab, model_cfg: ModelConfig,
                 train_cfg: TrainConfig, *, do_split: bool = True,
                 train_fraction: float = 0.8,
                 ckpt_dir: str | None = None) -> tuple[Model, Prepared, list[dict]]:
    """Prepare a raw corpus and train on it; the usual entry point."""
    prep = prepare(corpus, vocab, model_cfg, train_cfg, do_split=do_split,
                   train_fraction=train_fraction)
    model, entries = train(prep.train_aug, prep.vocab, prep.clusters,
                           prep.model_config, train_cfg, ckpt_dir=ckpt_dir)
    return model, prep, entries
