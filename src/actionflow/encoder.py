"""Prefix encoder: action embedding, positions, masked self-attention.

Given a sequence of (mark, time) actions, the encoder produces one history
vector per index j that summarizes actions 1..j. Inputs combine a learned
mark embedding with linear features of the absolute time and the gap from
the previous action, plus a trainable positional table. Stacked blocks of
causally masked multi-head attention and a feed-forward stage, each followed
by a residual add and layer normalization, refine the vectors.

Two feed-forward forms are available. The default accumulates an
elementwise-gated transform of every earlier index (a causal running sum),
so each output position mixes all positions up to it once more; "standard"
is the usual per-position two-layer ReLU network with inner width 4 * d.

A separate order-free summary runs alongside for the fused model variant:
each action's pre-positional embedding passes through a small ReLU network
and the results are summed over the prefix, which is permutation-invariant
by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import DataError
from .numerics import (
    ParamStore,
    Tensor,
    add,
    concat,
    cumsum,
    layer_norm,
    masked_fill,
    matmul,
    mul,
    relu,
    slice_cols,
    softmax,
    take_rows,
    transpose,
)

FFN_FORMS = ("summed", "standard")

MASK_FILL = -1e30


class CapacityError(ValueError):
    """A prefix is longer than the positional table supports."""


@dataclass
class EncoderConfig:
    """Width, head count, depth, positional capacity, feed-forward form."""

    d: int = 16
    heads: int = 2
    blocks: int = 2
    max_len: int = 32
    ffn: str = "summed"

    def validate(self) -> None:
        if self.d < 1:
            raise ValueError(f"embedding width must be positive, got {self.d}")
        if self.heads < 1 or self.d % self.heads != 0:
            raise ValueError(
                f"width {self.d} must be divisible by head count {self.heads}")
        if self.blocks < 1:
            raise ValueError(f"block count must be positive, got {self.blocks}")
        if self.max_len < 2:
            raise ValueError(f"positional capacity must be at least 2, got {self.max_len}")
        if self.ffn not in FFN_FORMS:
            raise ValueError(f"feed-forward form must be one of {FFN_FORMS}, got {self.ffn!r}")


@dataclass
class EncoderState:
    """Per-index history vectors, plus order-free prefix sums when present."""

    s: Tensor
    x: Tensor | None = None


# ---------------------------------------------------------------------------
# parameter initialization
# ---------------------------------------------------------------------------

def init_encoder_params(store: ParamStore, cfg: EncoderConfig, n_marks: int,
                        rng: np.random.Generator) -> None:
    """Create all encoder parameters; consumption order of rng is fixed."""
    cfg.validate()
    d = cfg.d
    bound = 1.0 / math.sqrt(d)

    def uniform(shape):
        return rng.uniform(-bound, bound, size=shape)

    store.add("embed.marks", uniform((n_marks, d)))
    store.add("embed.w_time", uniform((1, d)))
    store.add("embed.w_gap", uniform((1, d)))
    store.add("embed.bias", np.zeros(d))
    store.add("pos.table", rng.normal(0.0, 0.02, size=(cfg.max_len, d)))
    for b in range(cfg.blocks):
        for proj in ("wq", "wk", "wv", "wo"):
            store.add(f"block{b}.attn.{proj}", uniform((d, d)))
        store.add(f"block{b}.ln1.gain", np.ones(d))
        store.add(f"block{b}.ln1.bias", np.zeros(d))
        if cfg.ffn == "summed":
            store.add(f"block{b}.ffn.w_in", uniform((d,)))
            store.add(f"block{b}.ffn.b_in", np.zeros(d))
            store.add(f"block{b}.ffn.w_out", uniform((d,)))
            store.add(f"block{b}.ffn.b_out", np.zeros(d))
        else:
            inner = 4 * d
            store.add(f"block{b}.ffn.w1", uniform((d, inner)))
            store.add(f"block{b}.ffn.b1", np.zeros(inner))
            store.add(f"block{b}.ffn.w2",
                      rng.uniform(-1.0 / math.sqrt(inner), 1.0 / math.sqrt(inner),
                                  size=(inner, d)))
            store.add(f"block{b}.ffn.b2", np.zeros(d))
        store.add(f"block{b}.ln2.gain", np.ones(d))
        store.add(f"block{b}.ln2.bias", np.zeros(d))


def init_set_params(store: ParamStore, cfg: EncoderConfig,
                    rng: np.random.Generator) -> None:
    """Parameters of the order-free prefix summary (fused variant only)."""
    d = cfg.d
    bound = 1.0 / math.sqrt(d)

    def uniform(shape):
        return rng.uniform(-bound, bound, size=shape)

    store.add("set.w_in", uniform((d, d)))
    store.add("set.b_in", np.zeros(d))
    store.add("set.w_hidden", uniform((d, d)))
    store.add("set.b_hidden", np.zeros(d))
    store.add("set.w_out", uniform((d, d)))
    store.add("set.b_out", np.zeros(d))


# ---------------------------------------------------------------------------
# forward passes
# ---------------------------------------------------------------------------

def embed_actions(store: ParamStore, cfg: EncoderConfig, marks, times) -> Tensor:
    """Embed all actions of a sequence: mark row + time and gap features + bias.

    The gap feature for the first action measures from time zero. Positional
    rows are not included here; they are added inside encode so the order-free
    summary can run on position-free inputs.
    """
    marks = np.asarray(marks, dtype=np.intp)
    times = np.asarray(times, dtype=np.float64)
    if marks.ndim != 1 or times.shape != marks.shape:
        raise ValueError(f"marks {marks.shape} and times {times.shape} must be equal-length vectors")
    if marks.size == 0:
        raise ValueError("empty prefix")
    n_rows = store["embed.marks"].data.shape[0]
    if marks.min() < 0 or marks.max() >= n_rows:
        raise DataError(f"mark id outside vocabulary of size {n_rows}")
    gaps = np.diff(times, prepend=0.0)
    if np.any(gaps < 0.0):
        raise DataError("times must be non-decreasing from zero")
    y = take_rows(store["embed.marks"], marks)
    y = add(y, matmul(Tensor(times[:, None]), store["embed.w_time"]))
    y = add(y, matmul(Tensor(gaps[:, None]), store["embed.w_gap"]))
    return add(y, store["embed.bias"])


def positional_add(store: ParamStore, cfg: EncoderConfig, y: Tensor) -> Tensor:
    """Add the trainable positional rows 0..k-1 to the embedded prefix."""
    k = y.data.shape[0]
    if k > cfg.max_len:
        raise CapacityError(f"prefix length {k} exceeds positional capacity {cfg.max_len}")
    return add(y, take_rows(store["pos.table"], np.arange(k, dtype=np.intp)))


def _attention(store: ParamStore, cfg: EncoderConfig, x: Tensor, block: int,
               mask: np.ndarray) -> Tensor:
    q = matmul(x, store[f"block{block}.attn.wq"])
    k = matmul(x, store[f"block{block}.attn.wk"])
    v = matmul(x, store[f"block{block}.attn.wv"])
    dh = cfg.d // cfg.heads
    scale = 1.0 / math.sqrt(dh)
    outs = []
    for h in range(cfg.heads):
        lo, hi = h * dh, (h + 1) * dh
        qh, kh, vh = slice_cols(q, lo, hi), slice_cols(k, lo, hi), slice_cols(v, lo, hi)
        scores = mul(matmul(qh, transpose(kh)), scale)
        weights = softmax(masked_fill(scores, mask, MASK_FILL))
        outs.append(matmul(weights, vh))
    merged = outs[0] if cfg.heads == 1 else concat(outs, axis=1)
    return matmul(merged, store[f"block{block}.attn.wo"])


def _feed_forward(store: ParamStore, cfg: EncoderConfig, x: Tensor, block: int) -> Tensor:
    if cfg.ffn == "summed":
        gated = relu(add(mul(x, store[f"block{block}.ffn.w_in"]),
                         store[f"block{block}.ffn.b_in"]))
        per_index = add(mul(gated, store[f"block{block}.ffn.w_out"]),
                        store[f"block{block}.ffn.b_out"])
        return cumsum(per_index)
    hidden = relu(add(matmul(x, store[f"block{block}.ffn.w1"]),
                      store[f"block{block}.ffn.b1"]))
    return add(matmul(hidden, store[f"block{block}.ffn.w2"]),
               store[f"block{block}.ffn.b2"])


def encode(store: ParamStore, cfg: EncoderConfig, y: Tensor) -> Tensor:
    """History vectors for every prefix index, in one pass.

    Attention is causally masked, so row j of the result depends only on
    rows 0..j of the input; the summed feed-forward keeps that property via
    its running sum.
    """
    k = y.data.shape[0]
    if k == 0:
        raise ValueError("empty prefix")
    x = positional_add(store, cfg, y)
    mask = np.triu(np.ones((k, k), dtype=bool), 1)
    for b in range(cfg.blocks):
        attn = _attention(store, cfg, x, b, mask)
        x = layer_norm(add(x, attn), store[f"block{b}.ln1.gain"], store[f"block{b}.ln1.bias"])
        ffn = _feed_forward(store, cfg, x, b)
        x = layer_norm(add(x, ffn), store[f"block{b}.ln2.gain"], store[f"block{b}.ln2.bias"])
    return x


def set_embed(store: ParamStore, cfg: EncoderConfig, y: Tensor) -> Tensor:
    """Order-free prefix summary: sum of per-action ReLU features.

    Row j is the sum over i <= j of relu(net(W y_i + b)), where net is a
    one-hidden-layer ReLU network of width d. Feed pre-positional embeddings
    so that reordering a prefix only reorders the summands.
    """
    u = add(matmul(y, store["set.w_in"]), store["set.b_in"])
    h = relu(add(matmul(u, store["set.w_hidden"]), store["set.b_hidden"]))
    o = add(matmul(h, store["set.w_out"]), store["set.b_out"])
    return cumsum(relu(o))
