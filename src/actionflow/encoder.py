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

Every pass works on packed rows: the actions of a batch of sequences stacked
in one array, laid out by the one Segments built per forward pass (see
Model.forward). Positions, gaps, attention and running sums all restart at
each sequence, so a sequence's rows come out the same whatever it is packed
with.

Every layer is causal, so generation appends one action at a time:
encode_next runs the new action's row alone, through the same per-row code,
against a DecodeCache of the earlier rows' keys, values and running sums.
Attention and the running sums are the only steps in which a row meets
earlier ones, and they are the only steps the two paths do differently.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from .data import DataError
from .numerics import (
    NumericError,
    ParamSpec,
    ParamStore,
    Segments,
    Tensor,
    add,
    attend,
    causal_attention,
    constant_draw,
    cumsum,
    layer_norm,
    matmul,
    mul,
    normal_draw,
    relu,
    take_rows,
    uniform_draw,
)

if TYPE_CHECKING:
    from .model import ModelConfig

class CapacityError(ValueError):
    """A prefix is longer than the positional table supports."""


# ---------------------------------------------------------------------------
# parameter initialization
# ---------------------------------------------------------------------------

def init_encoder_params(cfg: ModelConfig, n_marks: int) -> list[ParamSpec]:
    """All encoder parameters as (name, shape, draw), in the fixed order
    Model.init draws them.

    max_len must be resolved; the positional table gets max_len + 1 rows so
    a terminal mark always fits.
    """
    cfg.validate()
    d = cfg.d
    uniform, zeros, ones = uniform_draw(1.0 / math.sqrt(d)), constant_draw(0.0), constant_draw(1.0)
    params = [
        ("embed.marks", (n_marks, d), uniform),
        ("embed.w_time", (1, d), uniform),
        ("embed.w_gap", (1, d), uniform),
        ("embed.bias", (d,), zeros),
        ("pos.table", (cfg.max_len + 1, d), normal_draw(0.02)),
    ]
    for b in range(cfg.blocks):
        params += [(f"block{b}.attn.{proj}", (d, d), uniform) for proj in ("wq", "wk", "wv", "wo")]
        params += [(f"block{b}.ln1.gain", (d,), ones), (f"block{b}.ln1.bias", (d,), zeros)]
        if cfg.ffn == "summed":
            params += [
                (f"block{b}.ffn.w_in", (d,), uniform),
                (f"block{b}.ffn.b_in", (d,), zeros),
                (f"block{b}.ffn.w_out", (d,), uniform),
                (f"block{b}.ffn.b_out", (d,), zeros),
            ]
        else:
            inner = 4 * d
            params += [
                (f"block{b}.ffn.w1", (d, inner), uniform),
                (f"block{b}.ffn.b1", (inner,), zeros),
                (f"block{b}.ffn.w2", (inner, d), uniform_draw(1.0 / math.sqrt(inner))),
                (f"block{b}.ffn.b2", (d,), zeros),
            ]
        params += [(f"block{b}.ln2.gain", (d,), ones), (f"block{b}.ln2.bias", (d,), zeros)]
    return params


def init_set_params(cfg: ModelConfig) -> list[ParamSpec]:
    """Parameters of the order-free prefix summary (fused variant only)."""
    d = cfg.d
    uniform, zeros = uniform_draw(1.0 / math.sqrt(d)), constant_draw(0.0)
    return [
        ("set.w_in", (d, d), uniform),
        ("set.b_in", (d,), zeros),
        ("set.w_hidden", (d, d), uniform),
        ("set.b_hidden", (d,), zeros),
        ("set.w_out", (d, d), uniform),
        ("set.b_out", (d,), zeros),
    ]


# ---------------------------------------------------------------------------
# forward passes
# ---------------------------------------------------------------------------

def _embed_rows(store: ParamStore, marks: np.ndarray, times: np.ndarray,
                prev: np.ndarray | float) -> Tensor:
    """Mark row + time and gap features + bias, one row per action; each
    action's gap is measured from its prev time (a number or one per row).

    A non-finite time raises no floating-point flag where it is used, so
    it is refused here. Checking the order before subtracting keeps every
    gap of finite, non-negative times finite.
    """
    n_rows = store["embed.marks"].data.shape[0]
    if marks.min() < 0 or marks.max() >= n_rows:
        raise DataError(f"mark id outside vocabulary of size {n_rows}")
    if not np.isfinite(times).all():
        raise NumericError("times must be finite")
    if np.any(times < prev):
        raise DataError("times must be non-decreasing from zero")
    y = take_rows(store["embed.marks"], marks)
    y = add(y, matmul(Tensor(times[:, None]), store["embed.w_time"]))
    y = add(y, matmul(Tensor((times - prev)[:, None]), store["embed.w_gap"]))
    return add(y, store["embed.bias"])


def embed_actions(store: ParamStore, marks, times, segs: Segments) -> Tensor:
    """Embed packed actions: mark row + time and gap features + bias.

    marks and times hold the actions of consecutive sequences, laid out by
    segs; every sequence needs at least one action. The gap feature of each
    sequence's first action measures from time zero. Positional rows are not
    included here; they are added inside encode so the order-free summary
    can run on position-free inputs.
    """
    marks = np.asarray(marks, dtype=np.intp)
    times = np.asarray(times, dtype=np.float64)
    if marks.ndim != 1 or times.shape != marks.shape:
        raise ValueError(f"marks {marks.shape} and times {times.shape} must be equal-length vectors")
    segs.check("embed_actions", marks.size)
    if segs.lens.min() == 0:
        raise ValueError("empty prefix")
    prev = np.roll(times, 1)
    prev[segs.starts] = 0.0
    return _embed_rows(store, marks, times, prev)


def _add_positions(store: ParamStore, y: Tensor, pos: np.ndarray, length: int) -> Tensor:
    """Add positional row pos[i] to row i; length is the longest prefix."""
    table = store["pos.table"]
    capacity = table.data.shape[0]
    if length > capacity:
        raise CapacityError(f"prefix length {length} exceeds positional capacity {capacity}")
    return add(y, take_rows(table, pos))


def positional_add(store: ParamStore, y: Tensor, segs: Segments) -> Tensor:
    """Add the trainable positional rows 0..k-1 to each embedded sequence."""
    segs.check("positional_add", y.data.shape[0])
    return _add_positions(store, y, segs.pos, segs.width)


def _feed_forward(store: ParamStore, cfg: ModelConfig, x: Tensor, block: int) -> Tensor:
    """The feed-forward stage of each row on its own: for the summed form,
    the per-index terms that its running sum accumulates."""
    if cfg.ffn == "summed":
        gated = relu(add(mul(x, store[f"block{block}.ffn.w_in"]),
                         store[f"block{block}.ffn.b_in"]))
        return add(mul(gated, store[f"block{block}.ffn.w_out"]),
                   store[f"block{block}.ffn.b_out"])
    hidden = relu(add(matmul(x, store[f"block{block}.ffn.w1"]),
                      store[f"block{block}.ffn.b1"]))
    return add(matmul(hidden, store[f"block{block}.ffn.w2"]),
               store[f"block{block}.ffn.b2"])


def _set_rows(store: ParamStore, y: Tensor) -> Tensor:
    """The order-free summary's per-action features, before the prefix sum."""
    u = add(matmul(y, store["set.w_in"]), store["set.b_in"])
    h = relu(add(matmul(u, store["set.w_hidden"]), store["set.b_hidden"]))
    return relu(add(matmul(h, store["set.w_out"]), store["set.b_out"]))


class _Packed:
    """How the rows of packed sequences see earlier rows: causal attention
    and running sums, restarting at every segment."""

    def __init__(self, segs: Segments, heads: int):
        self.segs = segs
        self.heads = heads

    def attend(self, block: int, q: Tensor, k: Tensor, v: Tensor) -> Tensor:
        return causal_attention(q, k, v, self.segs, self.heads)

    def running_sum(self, key, a: Tensor) -> Tensor:
        return cumsum(a, self.segs)


def _attention(store: ParamStore, x: Tensor, block: int, context) -> Tensor:
    q, k, v = (matmul(x, store[f"block{block}.attn.{proj}"]) for proj in ("wq", "wk", "wv"))
    return matmul(context.attend(block, q, k, v), store[f"block{block}.attn.wo"])


def _blocks(store: ParamStore, cfg: ModelConfig, x: Tensor, context) -> Tensor:
    """The attention and feed-forward blocks on positioned rows x.

    Everything here works row by row except the two calls into context
    (_Packed or DecodeCache), the only places a row meets earlier ones:
    context.attend(block, q, k, v) for attention and
    context.running_sum(key, a) for the summed feed-forward.
    """
    for b in range(cfg.blocks):
        attn = _attention(store, x, b, context)
        x = layer_norm(add(x, attn), store[f"block{b}.ln1.gain"], store[f"block{b}.ln1.bias"])
        ffn = _feed_forward(store, cfg, x, b)
        if cfg.ffn == "summed":
            ffn = context.running_sum(("ffn", b), ffn)
        x = layer_norm(add(x, ffn), store[f"block{b}.ln2.gain"], store[f"block{b}.ln2.bias"])
    return x


def encode(store: ParamStore, cfg: ModelConfig, y: Tensor, segs: Segments) -> Tensor:
    """History vectors for every prefix index of every packed sequence.

    Attention is causal and local to each sequence, so row j of a sequence
    depends only on rows 0..j of that sequence's input; the summed
    feed-forward keeps that property via its per-sequence running sum.
    """
    if y.data.shape[0] == 0:
        raise ValueError("empty prefix")
    return _blocks(store, cfg, positional_add(store, y, segs), _Packed(segs, cfg.heads))


def set_embed(store: ParamStore, y: Tensor, segs: Segments) -> Tensor:
    """Order-free prefix summary: sum of per-action ReLU features.

    Row j of a sequence is the sum over its rows i <= j of relu(net(W y_i + b)),
    where net is a one-hidden-layer ReLU network of width d. Feed
    pre-positional embeddings so that reordering a prefix only reorders the
    summands.
    """
    return cumsum(_set_rows(store, y), segs)


# ---------------------------------------------------------------------------
# cached decoding
# ---------------------------------------------------------------------------

class DecodeCache:
    """What one growing sequence's next row needs from its earlier rows.

    Every layer is causal, so appending an action changes no earlier row;
    the cache keeps each block's keys and values (preallocated for
    ``capacity`` actions), the running sums of the summed feed-forward and
    of the order-free summary, the last action's time (for the gap feature)
    and the sequence's length (the next position). encode_next fills it. A
    step that raises leaves the cache unusable.
    """

    def __init__(self, cfg: ModelConfig, capacity: int):
        self.heads = cfg.heads
        self.keys = np.empty((cfg.blocks, capacity, cfg.d))
        self.values = np.empty((cfg.blocks, capacity, cfg.d))
        self.sums: dict[object, Tensor] = {}
        self.length = 0
        self.last_t = 0.0

    def attend(self, block: int, q: Tensor, k: Tensor, v: Tensor) -> Tensor:
        n = self.length
        self.keys[block, n] = k.data[0]
        self.values[block, n] = v.data[0]
        return attend(q, Tensor(self.keys[block, :n + 1]), Tensor(self.values[block, :n + 1]),
                      self.heads)

    def running_sum(self, key, a: Tensor) -> Tensor:
        total = self.sums.get(key)
        self.sums[key] = a if total is None else add(total, a)
        return self.sums[key]


def encode_next(store: ParamStore, cfg: ModelConfig, cache: DecodeCache, mark: int,
                t: float) -> tuple[Tensor, Tensor | None]:
    """Append one action to the cache's sequence and encode it alone.

    Returns the action's [1, d] history row and, for the plus variant, its
    order-free summary row (None otherwise): the last rows encode and
    set_embed give on the whole sequence, up to rounding. Each row runs the
    same per-row code as the packed pass and keeps its checks.
    """
    capacity = cache.keys.shape[1]
    if cache.length == capacity:
        raise CapacityError(f"prefix length {capacity + 1} exceeds the cache's capacity {capacity}")
    marks = np.array([mark], dtype=np.intp)
    times = np.array([t], dtype=np.float64)
    y = _embed_rows(store, marks, times, cache.last_t)
    x = _add_positions(store, y, np.array([cache.length]), cache.length + 1)
    s = _blocks(store, cfg, x, cache)
    summary = cache.running_sum("set", _set_rows(store, y)) if cfg.variant == "plus" else None
    cache.length += 1
    cache.last_t = times[0]
    return s, summary
