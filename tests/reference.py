"""Per-sequence reference path: the oracle the packed batch path is checked against.

It encodes one sequence at a time, runs attention as a chain of per-head
ops, and scores every loss term of one sequence on its own. The ops that
chain needs and the package no longer provides (column gathers and slices,
transpose, masked softmax, concatenation) are rebuilt here from the
primitives that remain, mostly as products with constant 0/1 matrices, so
the oracle shares no attention, packing or segment code with the path under
test. Every helper is taped, so the oracle yields gradients too.

It also keeps the generation loop that re-encodes the whole prefix with
Model.forward after every draw: the oracle for cached decoding.
"""

from __future__ import annotations

import math

import numpy as np

from actionflow import encoder as enc
from actionflow import heads
from actionflow.data import Action, Ctas
from actionflow.generation import _draw_gap, _draw_mark
from actionflow.model import ForwardPass
from actionflow.numerics import (
    Segments,
    ShapeError,
    Tensor,
    add,
    cumsum,
    div,
    exp,
    layer_norm,
    log,
    log_softmax,
    matmul,
    mul,
    pick,
    relu,
    shifted_prefix_max,
    sub,
    sum_all,
    take_rows,
)

MASK_FILL = -1e30


# ---------------------------------------------------------------------------
# ops built from the remaining primitives
# ---------------------------------------------------------------------------

def _onehot(idx, n: int) -> np.ndarray:
    """[len(idx), n] matrix with a single 1 per row, at column idx[row]."""
    idx = np.asarray(idx, dtype=np.intp)
    out = np.zeros((idx.size, n))
    out[np.arange(idx.size), idx] = 1.0
    return out


def take_cols(a: Tensor, idx) -> Tensor:
    """Gather columns of a rank-2 tensor by integer index."""
    return matmul(a, Tensor(_onehot(idx, a.data.shape[1]).T))


def slice_cols(a: Tensor, start: int, stop: int) -> Tensor:
    return take_cols(a, np.arange(start, stop))


def transpose(a: Tensor) -> Tensor:
    """a.T: spread every entry onto its own row, then place it at (j, i)."""
    r, c = a.data.shape
    i, j = np.divmod(np.arange(r * c), c)
    entry = matmul(mul(take_rows(a, i), Tensor(_onehot(j, c))), Tensor(np.ones((c, 1))))
    placed = mul(matmul(entry, Tensor(np.ones((1, r)))), Tensor(_onehot(i, r)))
    return matmul(Tensor(_onehot(j, c).T), placed)


def concat(parts: list[Tensor], axis: int = 0) -> Tensor:
    """Concatenate rank-2 tensors, each placed by a constant 0/1 matrix."""
    sizes = [p.data.shape[axis] for p in parts]
    total = sum(sizes)
    out = None
    for part, size, start in zip(parts, sizes, np.cumsum(sizes) - sizes):
        place = _onehot(np.arange(start, start + size), total)  # [size, total]
        term = matmul(part, Tensor(place)) if axis == 1 else matmul(Tensor(place.T), part)
        out = term if out is None else add(out, term)
    return out


def masked_fill(a: Tensor, mask, value: float) -> Tensor:
    """Replace entries where mask is True with a constant; no grad there."""
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != a.data.shape:
        raise ShapeError(f"masked_fill: mask {mask.shape} vs tensor {a.data.shape}")
    return add(mul(a, Tensor((~mask).astype(np.float64))), Tensor(np.where(mask, value, 0.0)))


def softmax(a: Tensor) -> Tensor:
    return exp(log_softmax(a))


# ---------------------------------------------------------------------------
# one sequence through the model
# ---------------------------------------------------------------------------

def attention(store, cfg, x: Tensor, block: int) -> Tensor:
    """Causal multi-head attention of one sequence, one op chain per head."""
    k = x.data.shape[0]
    mask = np.triu(np.ones((k, k), dtype=bool), 1)
    q = matmul(x, store[f"block{block}.attn.wq"])
    ky = matmul(x, store[f"block{block}.attn.wk"])
    v = matmul(x, store[f"block{block}.attn.wv"])
    dh = cfg.d // cfg.heads
    scale = 1.0 / math.sqrt(dh)
    outs = []
    for h in range(cfg.heads):
        lo, hi = h * dh, (h + 1) * dh
        qh, kh, vh = slice_cols(q, lo, hi), slice_cols(ky, lo, hi), slice_cols(v, lo, hi)
        scores = mul(matmul(qh, transpose(kh)), scale)
        weights = softmax(masked_fill(scores, mask, MASK_FILL))
        outs.append(matmul(weights, vh))
    merged = outs[0] if cfg.heads == 1 else concat(outs, axis=1)
    return matmul(merged, store[f"block{block}.attn.wo"])


def encode(store, cfg, y: Tensor, segs: Segments) -> Tensor:
    x = enc.positional_add(store, y, segs)
    for b in range(cfg.blocks):
        x = layer_norm(add(x, attention(store, cfg, x, b)),
                       store[f"block{b}.ln1.gain"], store[f"block{b}.ln1.bias"])
        ffn = enc._feed_forward(store, cfg, x, b)
        if cfg.ffn == "summed":
            ffn = cumsum(ffn, segs)
        x = layer_norm(add(x, ffn), store[f"block{b}.ln2.gain"], store[f"block{b}.ln2.bias"])
    return x


def forward(model, marks, times) -> ForwardPass:
    """Model.forward for a single sequence, with the per-head attention chain."""
    marks = np.asarray(marks, dtype=np.intp)
    times = np.asarray(times, dtype=np.float64)
    store, cfg = model.store, model.config
    segs = Segments(marks.size)
    y = enc.embed_actions(store, marks, times, segs)
    s = encode(store, cfg, y, segs)
    x = enc.set_embed(store, y, segs) if cfg.variant == "plus" else None
    mark_lp = log_softmax(heads.mark_logits(store, heads.fuse(s, x, cfg.alpha_mark)))
    goal_lp = log_softmax(heads.goal_logits(store, heads.fuse(s, x, cfg.alpha_goal)))
    mu, sigma2 = heads.time_params(store, heads.fuse(s, x, cfg.alpha_time),
                                   model.clusters.clusters_of(marks))
    return ForwardPass(mark_logprob=mark_lp, mark_prob=exp(mark_lp),
                       goal_logprob=goal_lp, goal_prob=exp(goal_lp),
                       mu=mu, sigma2=sigma2, marks=marks, times=times, segs=segs)


# ---------------------------------------------------------------------------
# one sequence's loss terms
# ---------------------------------------------------------------------------

def hinge_sum(probs: Tensor) -> Tensor:
    segs = Segments(probs.data.shape[0])
    return sum_all(relu(sub(shifted_prefix_max(probs, segs), probs)))


def terms(model, seq, *, gamma: float, eos_time_term: bool = True) -> dict[str, Tensor]:
    """The four loss terms of one sequence, each a scalar tensor."""
    fwd = forward(model, seq.marks(), seq.times())
    n = len(seq.actions)
    marks = seq.marks()
    gaps = np.diff(seq.times())
    idx = np.arange(n - 1, dtype=np.intp)
    mark_ll = sum_all(pick(fwd.mark_logprob, idx, marks[1:]))
    if not eos_time_term and marks[-1] == model.vocab.eos_id:
        idx, gaps = idx[:-1], gaps[:-1]
    if idx.size == 0:
        seq_nll = mul(mark_ll, -1.0)
    else:
        mu = take_rows(fwd.mu, idx)
        sigma2 = take_rows(fwd.sigma2, idx)
        log_gap = Tensor(np.log(gaps)[:, None])
        centered = sub(log_gap, mu)
        quad = div(mul(centered, centered), mul(sigma2, 2.0))
        half_log = mul(log(mul(sigma2, 2.0 * math.pi)), 0.5)
        per_step = sub(sub(mul(log_gap, -1.0), half_log), quad)
        seq_nll = mul(add(mark_ll, sum_all(per_step)), -1.0)
    rows = np.arange(n, dtype=np.intp)
    goal = np.full(n, seq.goal, dtype=np.intp)
    weights = gamma ** np.arange(1, n + 1, dtype=np.float64)
    candidates = np.array(model.vocab.marks_for_goal(seq.goal), dtype=np.intp)
    return {
        "nll": seq_nll,
        "goal_ce": mul(sum_all(mul(pick(fwd.goal_logprob, rows, goal), Tensor(weights))), -1.0),
        "margin_goal": hinge_sum(pick(fwd.goal_prob, rows, goal)),
        "margin_action": hinge_sum(take_cols(fwd.mark_prob, candidates)),
    }


def total_loss(model, batch, *, gamma: float, margin_weight: float, l2_coeff: float,
               eos_time_term: bool = True) -> tuple[Tensor, list[dict[str, float]]]:
    """Mean of per-sequence totals plus the L2 term, summed one sequence at a
    time; also returns every sequence's terms as floats."""
    acc = None
    per_seq = []
    for seq in batch:
        t = terms(model, seq, gamma=gamma, eos_time_term=eos_time_term)
        per_seq.append({name: float(v.data) for name, v in t.items()})
        seq_total = add(add(t["nll"], t["goal_ce"]),
                        mul(add(t["margin_goal"], t["margin_action"]), margin_weight))
        acc = seq_total if acc is None else add(acc, seq_total)
    total = mul(acc, 1.0 / len(batch))
    if l2_coeff != 0.0:
        l2 = None
        for _, p in model.store.items():
            sq = sum_all(mul(p, p))
            l2 = sq if l2 is None else add(l2, sq)
        total = add(total, mul(l2, l2_coeff))
    return total, per_seq


# ---------------------------------------------------------------------------
# generation by re-encoding the whole prefix
# ---------------------------------------------------------------------------

def generate(model, request, *, rng=None, seq_id: str = "gen"):
    """generation.generate with a full Model.forward on the extended prefix
    after every draw, reading its last row."""
    request.validate(model)
    max_len = request.max_len if request.max_len is not None else model.config.max_len
    if rng is None:
        rng = np.random.default_rng([request.seed])
    eos = model.vocab.eos_id
    actions = [Action(mark=request.first_mark, t=float(request.first_t))]
    fwd = model.forward([a.mark for a in actions], [a.t for a in actions], Segments(1))
    while True:
        last = len(actions) - 1
        mark = _draw_mark(fwd.mark_prob.data[last], request.mode, rng)
        gap = _draw_gap(model.time_density_at(fwd, last), request.mode, rng)
        t_next = actions[-1].t + gap
        if mark == eos:
            actions.append(Action(mark=eos, t=t_next))
            reason = "eos_sampled"
            break
        actions.append(Action(mark=mark, t=t_next))
        fwd = model.forward([a.mark for a in actions], [a.t for a in actions],
                            Segments(len(actions)))
        if int(np.argmax(fwd.goal_prob.data[-1])) != request.goal:
            actions.pop()
            actions.append(Action(mark=eos, t=t_next))
            reason = "goal_mismatch"
            break
        if len(actions) >= max_len:
            tail_gap = _draw_gap(model.time_density_at(fwd, len(actions) - 1),
                                 request.mode, rng)
            actions.append(Action(mark=eos, t=actions[-1].t + tail_gap))
            reason = "max_len"
            break
    return Ctas(id=seq_id, goal=request.goal, actions=actions), reason
