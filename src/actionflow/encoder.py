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
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from .data import DataError
from .numerics import (
    ParamStore,
    Segments,
    Tensor,
    add,
    causal_attention,
    cumsum,
    layer_norm,
    matmul,
    mul,
    relu,
    take_rows,
)

if TYPE_CHECKING:
    from .model import ModelConfig

class CapacityError(ValueError):
    """A prefix is longer than the positional table supports."""


# ---------------------------------------------------------------------------
# parameter initialization
# ---------------------------------------------------------------------------

def init_encoder_params(cfg: ModelConfig, n_marks: int,
                        rng: np.random.Generator) -> list[tuple[str, np.ndarray]]:
    """All encoder parameters, in the fixed order they consume rng.

    max_len must be resolved; the positional table gets max_len + 1 rows so
    a terminal mark always fits.
    """
    cfg.validate()
    d = cfg.d
    bound = 1.0 / math.sqrt(d)

    def uniform(shape):
        return rng.uniform(-bound, bound, size=shape)

    params = [
        ("embed.marks", uniform((n_marks, d))),
        ("embed.w_time", uniform((1, d))),
        ("embed.w_gap", uniform((1, d))),
        ("embed.bias", np.zeros(d)),
        ("pos.table", rng.normal(0.0, 0.02, size=(cfg.max_len + 1, d))),
    ]
    for b in range(cfg.blocks):
        params += [(f"block{b}.attn.{proj}", uniform((d, d))) for proj in ("wq", "wk", "wv", "wo")]
        params += [(f"block{b}.ln1.gain", np.ones(d)), (f"block{b}.ln1.bias", np.zeros(d))]
        if cfg.ffn == "summed":
            params += [
                (f"block{b}.ffn.w_in", uniform((d,))),
                (f"block{b}.ffn.b_in", np.zeros(d)),
                (f"block{b}.ffn.w_out", uniform((d,))),
                (f"block{b}.ffn.b_out", np.zeros(d)),
            ]
        else:
            inner = 4 * d
            params += [
                (f"block{b}.ffn.w1", uniform((d, inner))),
                (f"block{b}.ffn.b1", np.zeros(inner)),
                (f"block{b}.ffn.w2", rng.uniform(-1.0 / math.sqrt(inner), 1.0 / math.sqrt(inner),
                                                 size=(inner, d))),
                (f"block{b}.ffn.b2", np.zeros(d)),
            ]
        params += [(f"block{b}.ln2.gain", np.ones(d)), (f"block{b}.ln2.bias", np.zeros(d))]
    return params


def init_set_params(cfg: ModelConfig, rng: np.random.Generator) -> list[tuple[str, np.ndarray]]:
    """Parameters of the order-free prefix summary (fused variant only)."""
    d = cfg.d
    bound = 1.0 / math.sqrt(d)

    def uniform(shape):
        return rng.uniform(-bound, bound, size=shape)

    return [
        ("set.w_in", uniform((d, d))),
        ("set.b_in", np.zeros(d)),
        ("set.w_hidden", uniform((d, d))),
        ("set.b_hidden", np.zeros(d)),
        ("set.w_out", uniform((d, d))),
        ("set.b_out", np.zeros(d)),
    ]


# ---------------------------------------------------------------------------
# forward passes
# ---------------------------------------------------------------------------

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
    n_rows = store["embed.marks"].data.shape[0]
    if marks.min() < 0 or marks.max() >= n_rows:
        raise DataError(f"mark id outside vocabulary of size {n_rows}")
    gaps = np.diff(times, prepend=0.0)
    gaps[segs.starts] = times[segs.starts]
    if np.any(gaps < 0.0):
        raise DataError("times must be non-decreasing from zero")
    y = take_rows(store["embed.marks"], marks)
    y = add(y, matmul(Tensor(times[:, None]), store["embed.w_time"]))
    y = add(y, matmul(Tensor(gaps[:, None]), store["embed.w_gap"]))
    return add(y, store["embed.bias"])


def positional_add(store: ParamStore, y: Tensor, segs: Segments) -> Tensor:
    """Add the trainable positional rows 0..k-1 to each embedded sequence."""
    segs.check("positional_add", y.data.shape[0])
    table = store["pos.table"]
    k, capacity = segs.width, table.data.shape[0]
    if k > capacity:
        raise CapacityError(f"prefix length {k} exceeds positional capacity {capacity}")
    return add(y, take_rows(table, segs.pos))


def _attention(store: ParamStore, cfg: ModelConfig, x: Tensor, block: int,
               segs: Segments) -> Tensor:
    q = matmul(x, store[f"block{block}.attn.wq"])
    k = matmul(x, store[f"block{block}.attn.wk"])
    v = matmul(x, store[f"block{block}.attn.wv"])
    return matmul(causal_attention(q, k, v, segs, cfg.heads), store[f"block{block}.attn.wo"])


def _feed_forward(store: ParamStore, cfg: ModelConfig, x: Tensor, block: int,
                  segs: Segments) -> Tensor:
    if cfg.ffn == "summed":
        gated = relu(add(mul(x, store[f"block{block}.ffn.w_in"]),
                         store[f"block{block}.ffn.b_in"]))
        per_index = add(mul(gated, store[f"block{block}.ffn.w_out"]),
                        store[f"block{block}.ffn.b_out"])
        return cumsum(per_index, segs)
    hidden = relu(add(matmul(x, store[f"block{block}.ffn.w1"]),
                      store[f"block{block}.ffn.b1"]))
    return add(matmul(hidden, store[f"block{block}.ffn.w2"]),
               store[f"block{block}.ffn.b2"])


def encode(store: ParamStore, cfg: ModelConfig, y: Tensor, segs: Segments) -> Tensor:
    """History vectors for every prefix index of every packed sequence.

    Attention is causal and local to each sequence, so row j of a sequence
    depends only on rows 0..j of that sequence's input; the summed
    feed-forward keeps that property via its per-sequence running sum.
    """
    if y.data.shape[0] == 0:
        raise ValueError("empty prefix")
    x = positional_add(store, y, segs)
    for b in range(cfg.blocks):
        attn = _attention(store, cfg, x, b, segs)
        x = layer_norm(add(x, attn), store[f"block{b}.ln1.gain"], store[f"block{b}.ln1.bias"])
        ffn = _feed_forward(store, cfg, x, b, segs)
        x = layer_norm(add(x, ffn), store[f"block{b}.ln2.gain"], store[f"block{b}.ln2.bias"])
    return x


def set_embed(store: ParamStore, y: Tensor, segs: Segments) -> Tensor:
    """Order-free prefix summary: sum of per-action ReLU features.

    Row j of a sequence is the sum over its rows i <= j of relu(net(W y_i + b)),
    where net is a one-hidden-layer ReLU network of width d. Feed
    pre-positional embeddings so that reordering a prefix only reorders the
    summands.
    """
    u = add(matmul(y, store["set.w_in"]), store["set.b_in"])
    h = relu(add(matmul(u, store["set.w_hidden"]), store["set.b_hidden"]))
    o = add(matmul(h, store["set.w_out"]), store["set.b_out"])
    return cumsum(relu(o), segs)
