"""Adam training loop with seeding, logging, and exact-resume checkpoints.

Training is deterministic for a fixed seed: parameter init, the per-epoch
shuffle, and the update order all derive from it, and the shuffle rng is
re-derived per epoch so a resumed run needs no carried rng state. Each epoch
writes one JSON line to the training log: loss components, the health of the
epoch's last step (global gradient norm and update-to-parameter ratio) and
wall time; a fresh run starts the log over, a resumed run appends to it.
Adam is built for the model's store and steps its one flat parameter vector
in one vectorized pass.
A checkpoint is one versioned JSON record: model config, vocabulary, cluster
map, the parameters' names and shapes once, then the parameter vector and
Adam's two moment vectors laid out like ``ParamStore.flat``. Loading builds
the model its config describes and refuses a file whose names, shapes or
vectors do not fit it; reloading one and continuing reproduces an
uninterrupted run bit for bit.
"""

from __future__ import annotations

import json
import logging
import math
import os
import time
from dataclasses import asdict, dataclass, replace

import numpy as np

from .data import (
    ClusterMap,
    Ctas,
    Vocab,
    append_eos_corpus,
    build_clusters,
    distinct_durations,
    median_gap,
    observed_marks_by_goal,
    read_record,
    split_by_goal,
)
from .model import Model, ModelConfig
from .numerics import GradTape, NumericError, ParamStore
from .objectives import LossBreakdown, total_loss

log = logging.getLogger(__name__)

CHECKPOINT_VERSION = 3


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
    eos_time_term: bool = True

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

    def to_dict(self) -> dict:
        return asdict(self)

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

    def update(self) -> tuple[float, float]:
        """Apply one step using the gradients currently on the store.

        Returns the step's health: the global L2 norm of the gradient, and
        the update ratio ||delta|| / ||params|| (params before the step).
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

def _layout(store: ParamStore) -> tuple[list[str], list[list[int]]]:
    """The parameters' names and shapes, in ``flat`` order, as JSON lists."""
    return store.names(), [list(t.data.shape) for t in store.tensors]


def _encode(vector: np.ndarray) -> list[float]:
    """The one codec for the checkpoint's three vectors: JSON floats, which
    python reads back bit for bit."""
    return vector.tolist()


def _decode(values, size: int, key: str) -> np.ndarray:
    """A saved vector as a new float64 array of ``size`` finite values."""
    vector = np.array(values, dtype=np.float64)  # a JSON null reads as nan
    if vector.shape != (size,):
        raise ValueError(f"checkpoint {key} holds {vector.size} values, "
                         f"the model has {size} parameters")
    if not np.isfinite(vector).all():
        raise ValueError(f"checkpoint {key} holds a non-finite value")
    return vector


def save_checkpoint(path, model: Model, train_cfg: TrainConfig | None = None,
                    optimizer: Adam | None = None, epoch: int = 0,
                    best_total: float | None = None) -> None:
    """Write the checkpoint atomically: a crash mid-write leaves the old file."""
    names, shapes = _layout(model.store)
    payload = {
        "version": CHECKPOINT_VERSION,
        "model_config": model.config.to_dict(),
        "vocab": model.vocab.to_dict(),
        "clusters": model.clusters.to_dict(),
        "names": names,
        "shapes": shapes,
        "params": _encode(model.store.flat),
        "train_config": None if train_cfg is None else train_cfg.to_dict(),
        "optimizer": None if optimizer is None else {
            "step": optimizer.step, "m": _encode(optimizer.m), "v": _encode(optimizer.v)},
        "epoch": epoch,
        "best_total": best_total,
    }
    # one string from the C encoder, one write: json.dump would run the
    # pure-Python encoder and write it chunk by chunk, at twice the cost
    text = json.dumps(payload)
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
class Checkpoint:
    """A deserialized checkpoint: the model plus resumable training state."""

    model: Model
    train_config: TrainConfig | None
    optimizer: Adam | None
    epoch: int
    best_total: float | None


def load_checkpoint(path) -> Checkpoint:
    """Rebuild the model a checkpoint's config describes, with its saved state.

    The file is refused unless its version is CHECKPOINT_VERSION, its names
    and shapes equal those of the store ``Model.init`` builds from its
    config, and each saved vector has the store's length and only finite
    values. A refusal is a ValueError, or a KeyError or TypeError for a
    missing or ill-typed field.
    """
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict):
        raise ValueError("checkpoint is not a JSON object")
    if payload.get("version") != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {payload.get('version')!r}")
    model = Model.init(ModelConfig.from_dict(payload["model_config"]),
                       Vocab.from_dict(payload["vocab"]),
                       ClusterMap.from_dict(payload["clusters"]))
    store = model.store
    if (payload["names"], payload["shapes"]) != _layout(store):
        raise ValueError("checkpoint names and shapes do not match the parameters "
                         "its model config builds")
    store.flat[:] = _decode(payload["params"], store.flat.size, "params")
    train_cfg = None
    if payload.get("train_config") is not None:
        train_cfg = TrainConfig.from_dict(payload["train_config"])
    optimizer = None
    state = payload.get("optimizer")
    if state is not None:
        optimizer = Adam(store) if train_cfg is None else Adam.from_config(store, train_cfg)
        optimizer.step = int(state["step"])
        optimizer.m, optimizer.v = (_decode(state[key], store.flat.size, f"optimizer {key}")
                                    for key in ("m", "v"))
    return Checkpoint(model=model, train_config=train_cfg, optimizer=optimizer,
                      epoch=int(payload.get("epoch", 0)),
                      best_total=payload.get("best_total"))


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
    loss aborts with those files intact.
    """
    train_cfg.validate()
    if not corpus:
        raise ValueError("empty training corpus")
    if resume is not None:
        model = resume.model
        optimizer = resume.optimizer or Adam.from_config(model.store, train_cfg)
        start_epoch = resume.epoch + 1
        best_total = resume.best_total if resume.best_total is not None else math.inf
    else:
        model = Model.init(model_cfg, vocab, clusters, seed=train_cfg.seed)
        optimizer = Adam.from_config(model.store, train_cfg)
        start_epoch = 1
        best_total = math.inf
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
                        eos_time_term=train_cfg.eos_time_term,
                    )
                    tape.backward(total)
            except NumericError as e:
                raise TrainingDiverged(f"epoch {epoch}: {e}") from None
            health = optimizer.update()
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
    empty.
    """
    if do_split:
        train_raw, test_raw = split_by_goal(corpus, train_fraction, seed=train_cfg.seed)
    else:
        train_raw, test_raw = list(corpus), []
    distinct = distinct_durations(train_raw)
    resolved = resolve_max_len(model_cfg, train_raw)
    if resolved.clusters > distinct:
        log.info("lowering the cluster count from %d to %d, the number of distinct "
                 "per-mark mean gaps", resolved.clusters, distinct)
        resolved = replace(resolved, clusters=distinct)
    resolved.validate()
    clusters = build_clusters(train_raw, resolved.clusters, seed=train_cfg.seed,
                              eos_id=vocab.eos_id)
    vocab.goal_marks = observed_marks_by_goal(train_raw)
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
