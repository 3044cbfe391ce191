"""Dense float64 tensors with taped reverse-mode gradients.

Everything else in this package does its math through the primitives in this
module. Each primitive evaluates eagerly with numpy, records itself on the
active gradient tape (if one is open), and raises a structured error when
shapes disagree or a non-finite value shows up. Every tensor has one gradient
slot. ``requires_grad`` marks the parameters, whose gradients accumulate
across backward passes until explicitly zeroed, so a loss summed over many
sequences costs no extra bookkeeping; a product carries a gradient only
during its own tape's backward.

Broadcasting is deliberately narrow: scalars combine with anything, and a
rank-1 tensor may be added to, subtracted from or multiplied into the rows
of a rank-2 tensor (the bias case), whose gradient is then summed over the
rows. Everything else is rejected, which keeps the finite-difference oracle
and the backward rules straightforward.

A minibatch runs as packed rows: the rows of all its sequences stacked in
one array, laid out by one Segments that the caller builds per forward pass
(model.pack). Row-wise primitives need nothing more; the scans (cumsum,
shifted_prefix_max), segment_sum and causal_attention take the layout, refuse
one for another row count, and never mix rows of different sequences. The
scans run on one zero-padded [segments, longest, ...] block; causal_attention,
whose cost grows with the square of the padded width, runs one block per
group of similar-length segments (Segments.groups), still as one tape record.
The index ops (take_rows, pick, shifted_prefix_max) scatter their gradients
with one bincount each, adding repeated targets in input order.

A ParamStore is built once from all its named arrays and keeps them in one
contiguous vector, laid out in name order, with each named tensor a view into
it; that layout never changes, so whole-store passes (the L2 term, an Adam
step) are single vectorized operations. The store has no saved form of its
own: a checkpoint (``training``) writes its names, shapes and ``flat``.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.special import expit


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested op."""


class NumericError(ArithmeticError):
    """An op produced (or was handed) a non-finite or out-of-domain value."""


# ---------------------------------------------------------------------------
# tensors and tapes
# ---------------------------------------------------------------------------

class Tensor:
    """A float64 array plus a gradient slot.

    Tensors are constants (inputs, masks, targets), named parameters inside
    a ParamStore, or the products of primitives. ``requires_grad`` marks the
    parameters: their ``grad`` accumulates across ``GradTape.backward``
    calls until zeroed. A product carries the serial number of the tape that
    recorded it, and holds a ``grad`` only while that tape's backward runs.
    A ``grad`` array may be shared with another tensor's, so it is replaced,
    never written into.
    """

    __slots__ = ("data", "requires_grad", "grad", "name", "_tape")

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self.name = name
        self._tape = 0  # serial of the tape that recorded this tensor; 0 if none

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        if self.data.shape != ():
            raise ShapeError(f"item() needs a scalar tensor, got shape {self.data.shape}")
        return float(self.data)

    def __repr__(self) -> str:
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.data.shape}{tag})"

    # operator sugar; all dispatch to the module-level primitives
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        # c - x == (-x) + c exactly in IEEE arithmetic
        return add(mul(self, -1.0), other)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(self, other)

    def __truediv__(self, other):
        return div(self, other)

    def __matmul__(self, other):
        return matmul(self, other)

    def __neg__(self):
        return mul(self, -1.0)


_TAPE_STACK: list["GradTape"] = []
_TAPE_SERIALS = itertools.count(1)


class GradTape:
    """Ordered record of primitive ops, replayable in reverse for gradients.

    Use as a context manager::

        with GradTape() as tape:
            loss = ...          # ops record themselves here
            tape.backward(loss) # gradients land on parameter tensors

    With no tape open, the same ops run as plain forward arithmetic. Every
    tensor a tape records carries the tape's serial number, so backward
    treats the products of any other tape (an outer one, or one already
    finished) as constants. Tensors hold the number, not the tape, so a
    dropped tape is freed at once even while its loss lives on.
    """

    def __init__(self):
        # each record: (output tensor, input tuple, vjp callable)
        self._records: list[tuple[Tensor, tuple, object]] = []
        self._serial = next(_TAPE_SERIALS)

    def __enter__(self) -> "GradTape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        popped = _TAPE_STACK.pop()
        assert popped is self

    def __len__(self) -> int:
        return len(self._records)

    def backward(self, loss: Tensor) -> None:
        """Accumulate d(loss)/d(param) into every reachable parameter's .grad.

        The loss must be a scalar produced by ops recorded on this tape.
        Gradients travel on the tensors: replaying a record reads and clears
        its output's .grad and adds into the .grad of each input that is a
        parameter or a product of this tape, so no product keeps one
        afterwards. Parameters not reachable from the loss are left
        untouched (their gradient reads as zero).
        """
        if not isinstance(loss, Tensor):
            raise TypeError("backward expects a Tensor loss")
        if loss.data.shape != ():
            raise ShapeError(f"backward needs a scalar loss, got shape {loss.data.shape}")
        serial = self._serial
        if loss._tape != serial:
            raise ValueError("loss was not produced by ops recorded on this tape")
        loss.grad = np.ones((), dtype=np.float64)
        for out, inputs, vjp in reversed(self._records):
            g, out.grad = out.grad, None
            if g is None:
                continue
            for tensor, gin in zip(inputs, vjp(g)):
                if tensor.requires_grad or tensor._tape == serial:
                    # out of place: a vjp may hand one array to several inputs
                    tensor.grad = gin if tensor.grad is None else tensor.grad + gin


def _active_tape() -> GradTape | None:
    return _TAPE_STACK[-1] if _TAPE_STACK else None


def _emit(op: str, out_data: np.ndarray, inputs: tuple, vjp) -> Tensor:
    out = Tensor(out_data)
    if not np.isfinite(out.data).all():
        raise NumericError(f"{op}: non-finite output")
    tape = _active_tape()
    if tape is not None:
        tape._records.append((out, inputs, vjp))
        out._tape = tape._serial
    return out


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of two rank-2 operands."""
    ad, bd = a.data, b.data
    if ad.ndim != 2 or bd.ndim != 2:
        raise ShapeError(f"matmul: unsupported ranks {ad.shape} @ {bd.shape}")
    if ad.shape[1] != bd.shape[0]:
        raise ShapeError(f"matmul: {ad.shape} @ {bd.shape}")

    def vjp(g):
        return (g @ bd.T, ad.T @ g)

    return _emit("matmul", ad @ bd, (a, b), vjp)


def _operand(op: str, a: Tensor, b) -> np.ndarray | float:
    """b's value as the second operand of an elementwise op on a: a number,
    a tensor of a's shape, or a rank-1 tensor broadcast over a's rows."""
    if isinstance(b, (int, float, np.integer, np.floating)):
        return float(b)
    if not isinstance(b, Tensor):
        raise TypeError(f"{op}: operand must be Tensor or number, got {type(b).__name__}")
    ash, bsh = a.data.shape, b.data.shape
    if bsh == ash or (len(ash) == 2 and len(bsh) == 1 and ash[1] == bsh[0]):
        return b.data
    raise ShapeError(f"{op}: {ash} vs {bsh}")


def _binary(op: str, out: np.ndarray, a: Tensor, b, grad_a, grad_b) -> Tensor:
    """Record an elementwise op on a and b (checked by _operand).

    grad_a and grad_b map the output gradient to each operand's; b's is
    summed over the rows b was broadcast to, and a number b takes none.
    """
    if not isinstance(b, Tensor):
        return _emit(op, out, (a,), lambda g: (grad_a(g),))
    rows = b.data.shape != a.data.shape
    return _emit(op, out, (a, b),
                 lambda g: (grad_a(g), grad_b(g).sum(axis=0) if rows else grad_b(g)))


def add(a: Tensor, b) -> Tensor:
    """a + b; b may be a number, a tensor of a's shape or a rank-1 row bias."""
    return _binary("add", a.data + _operand("add", a, b), a, b, lambda g: g, lambda g: g)


def sub(a: Tensor, b) -> Tensor:
    """a - b; same operand rules as add."""
    return _binary("sub", a.data - _operand("sub", a, b), a, b, lambda g: g, lambda g: -g)


def mul(a: Tensor, b) -> Tensor:
    """Elementwise a * b; same operand rules as add."""
    ad, bd = a.data, _operand("mul", a, b)
    return _binary("mul", ad * bd, a, b, lambda g: g * bd, lambda g: g * ad)


def div(a: Tensor, b) -> Tensor:
    """Elementwise a / b for a nonzero number or a same-shape tensor b."""
    ad, bd = a.data, _operand("div", a, b)
    if isinstance(b, Tensor) and bd.shape != ad.shape:
        raise ShapeError(f"div: row broadcast not supported ({ad.shape} / {bd.shape})")
    if np.any(bd == 0.0):
        raise NumericError("div: zero divisor element" if isinstance(b, Tensor)
                           else "div: zero scalar divisor")
    return _binary("div", ad / bd, a, b, lambda g: g / bd, lambda g: -g * ad / (bd * bd))


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0.0

    def vjp(g):
        return (g * mask,)

    return _emit("relu", np.where(mask, a.data, 0.0), (a,), vjp)


def log_softmax(a: Tensor) -> Tensor:
    """Log of softmax over the last axis, computed without underflow."""
    if a.data.ndim not in (1, 2):
        raise ShapeError(f"log_softmax: need rank 1 or 2, got {a.data.shape}")
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    out = shifted - lse
    sm = np.exp(out)

    def vjp(g):
        return (g - sm * g.sum(axis=-1, keepdims=True),)

    return _emit("log_softmax", out, (a,), vjp)


def log(a: Tensor) -> Tensor:
    """Natural log; rejects non-positive inputs instead of returning -inf."""
    if np.any(a.data <= 0.0):
        raise NumericError("log: input outside positive domain")
    ad = a.data

    def vjp(g):
        return (g / ad,)

    return _emit("log", np.log(ad), (a,), vjp)


def exp(a: Tensor) -> Tensor:
    with np.errstate(over="ignore"):
        out = np.exp(a.data)

    def vjp(g):
        return (g * out,)

    return _emit("exp", out, (a,), vjp)


def softplus(a: Tensor) -> Tensor:
    """log(1 + e^x) computed stably for large |x|."""
    ad = a.data

    def vjp(g):
        return (g * expit(ad),)

    return _emit("softplus", np.logaddexp(0.0, ad), (a,), vjp)


def sum_all(a: Tensor) -> Tensor:
    shape = a.data.shape

    def vjp(g):
        return (np.full(shape, float(g)),)

    return _emit("sum_all", a.data.sum(), (a,), vjp)


def mean_all(a: Tensor) -> Tensor:
    if a.data.size == 0:
        raise ShapeError("mean_all: empty tensor")
    shape, n = a.data.shape, a.data.size

    def vjp(g):
        return (np.full(shape, float(g) / n),)

    return _emit("mean_all", a.data.mean(), (a,), vjp)


def _scatter_add(index: np.ndarray, values: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Zeros of ``shape`` with each value added at its flat index, in input
    order from 0.0: np.add.at on zeros, bit for bit, in one bincount."""
    out = np.bincount(index, weights=values.ravel(), minlength=math.prod(shape))
    return out.astype(np.float64, copy=False).reshape(shape)  # integer zeros if no values


def take_rows(a: Tensor, idx) -> Tensor:
    """Gather rows of a rank-2 tensor (or entries of a rank-1 tensor)."""
    idx = np.asarray(idx, dtype=np.intp)
    if idx.ndim != 1:
        raise ShapeError(f"take_rows: index must be rank 1, got {idx.shape}")
    n = a.data.shape[0]
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise ShapeError(f"take_rows: index out of range for {a.data.shape}")
    shape = a.data.shape
    cols = math.prod(shape[1:])

    def vjp(g):
        return (_scatter_add((idx[:, None] * cols + np.arange(cols)).ravel(), g, shape),)

    return _emit("take_rows", a.data[idx], (a,), vjp)


def pick(a: Tensor, rows, cols) -> Tensor:
    """Select a[rows[i], cols[i]] for each i, producing a rank-1 tensor."""
    if a.data.ndim != 2:
        raise ShapeError(f"pick: need rank 2, got {a.data.shape}")
    rows = np.asarray(rows, dtype=np.intp)
    cols = np.asarray(cols, dtype=np.intp)
    if rows.shape != cols.shape or rows.ndim != 1:
        raise ShapeError(f"pick: index shapes {rows.shape} vs {cols.shape}")
    nr, nc = a.data.shape
    if rows.size and (rows.min() < 0 or rows.max() >= nr or cols.min() < 0 or cols.max() >= nc):
        raise ShapeError(f"pick: index out of range for {a.data.shape}")
    shape = a.data.shape

    def vjp(g):
        return (_scatter_add(rows * nc + cols, g, shape),)

    return _emit("pick", a.data[rows, cols], (a,), vjp)


#: Fixed numpy dispatch of one padded attention block, counted in
#: [width x width] score cells: Segments.groups opens another block only
#: where the padding it saves outweighs this.
BLOCK_COST = 4096


def _length_cuts(sizes: list[int]) -> list[int]:
    """Cut points 0 = c[0] < ... < c[-1] = len(sizes) splitting ascending
    sizes into runs, minimising the sum over runs of
    len(run) * max(run)**2 + BLOCK_COST (dynamic programme over the run ends).
    """
    best, start = [0], [0]
    for j in range(1, len(sizes) + 1):
        area, top, at = sizes[j - 1] ** 2, float("inf"), 0
        for i in range(j - 1, -1, -1):
            spread = (j - i) * area
            if spread >= top:  # best[i] >= 0, so no longer run can win
                break
            if best[i] + spread < top:
                top, at = best[i] + spread, i
        best.append(top + BLOCK_COST)
        start.append(at)
    cuts = [len(sizes)]
    while cuts[-1]:
        cuts.append(start[cuts[-1]])
    return cuts[::-1]


class Segments:
    """Row layout of packed sequences: segment b owns lens[b] consecutive rows.

    ``seg``/``pos`` give each row's segment and index in it. ``pad`` lays
    packed rows out as a zero-padded [segments, longest, ...] block so that
    per-segment scans run along axis 1; ``unpad`` reads them back. Padding
    sits after each segment's rows, so it never enters a scan of the rows
    before it. A segment may own no rows; Segments(n) is one over all n rows.
    ``groups`` splits the segments into runs of similar length for ops whose
    cost grows with the square of the padded width.
    """

    def __init__(self, n: int, lens=None):
        lens = np.array([n] if lens is None else lens, dtype=np.intp)
        sizes = lens.tolist()
        if lens.ndim != 1 or not sizes or min(sizes) < 0 or sum(sizes) != n:
            raise ShapeError(f"segment lengths {sizes} do not tile {n} rows")
        self.n = n
        self.lens = lens
        self.count = len(sizes)
        self.width = max(sizes)
        self.starts = np.cumsum(lens) - lens
        self.last = self.starts + lens - 1
        self.seg = np.repeat(np.arange(self.count), lens)
        self.pos = np.arange(n) - self.starts[self.seg]

    def check(self, op: str, rows: int) -> None:
        """Reject an operand whose row count this layout does not tile."""
        if rows != self.n:
            raise ShapeError(f"{op}: layout of {self.n} rows handed {rows} rows")

    def pad(self, a: np.ndarray) -> np.ndarray:
        if self.count == 1:
            return a[None]
        out = np.zeros((self.count, self.width) + a.shape[1:])
        out[self.seg, self.pos] = a
        return out

    def unpad(self, p: np.ndarray) -> np.ndarray:
        return p[0] if self.count == 1 else p[self.seg, self.pos]

    @cached_property
    def groups(self) -> tuple[tuple[slice | np.ndarray, "Segments"], ...]:
        """The segments as blocks of similar length, shortest first.

        Each block is (rows, layout): the indices of this layout's rows that
        its segments own, and a Segments tiling just those rows, one segment
        per member, shortest first. The blocks partition the length-sorted
        segments so that sum(count * width**2) + BLOCK_COST per block is
        least; a single block is (slice(None), self). Worked out on first
        use and kept, so every op on this layout shares it.
        """
        # two or more blocks cost at least sum(lens**2) + 2 * BLOCK_COST, so
        # when one block costs less the search cannot split it
        if self.count * self.width ** 2 < int(self.lens @ self.lens) + BLOCK_COST:
            return ((slice(None), self),)
        order = np.argsort(self.lens, kind="stable")
        sizes = self.lens[order].tolist()
        # segments that own no rows join the first block, never one of width 0
        empty = sizes.count(0)
        cuts = [0, *(empty + c for c in _length_cuts(sizes[empty:])[1:])]
        if len(cuts) <= 2:
            return ((slice(None), self),)
        rank = np.empty(self.count, dtype=np.intp)
        rank[order] = np.arange(self.count)
        ranked = np.argsort(rank[self.seg], kind="stable")  # rows, segment by segment
        ends = np.concatenate(([0], np.cumsum(sizes))).tolist()
        return tuple((ranked[ends[a]:ends[b]], Segments(ends[b] - ends[a], sizes[a:b]))
                     for a, b in zip(cuts, cuts[1:]))


def cumsum(a: Tensor, segs: Segments) -> Tensor:
    """Running sum down axis 0, restarting at every segment."""
    segs.check("cumsum", a.data.shape[0])

    def vjp(g):
        return (segs.unpad(np.flip(np.cumsum(np.flip(segs.pad(g), axis=1), axis=1), axis=1)),)

    return _emit("cumsum", segs.unpad(np.cumsum(segs.pad(a.data), axis=1)), (a,), vjp)


def shifted_prefix_max(a: Tensor, segs: Segments) -> Tensor:
    """Strictly-previous running max down axis 0, restarting at every segment.

    Within each segment out[0] = 0 and out[j] = max(a[0..j-1]) per column.
    The backward rule routes each output row's gradient to the first
    attaining entry of its prefix, matching the subgradient convention of
    numpy's first-occurrence argmax.
    """
    if a.data.ndim not in (1, 2):
        raise ShapeError(f"shifted_prefix_max: need rank 1 or 2, got {a.data.shape}")
    segs.check("shifted_prefix_max", a.data.shape[0])
    ad = a.data if a.data.ndim == 2 else a.data[:, None]
    p = segs.pad(ad)
    b, n, m = p.shape
    run = np.maximum.accumulate(p, axis=1)
    out = np.zeros_like(p)
    out[:, 1:] = run[:, :-1]
    out = segs.unpad(out)
    if a.data.ndim == 1:
        out = out[:, 0]

    def vjp(g):
        gp = segs.pad(g if g.ndim == 2 else g[:, None])
        if n < 2:
            z = np.zeros_like(p)
        else:
            # the max of rows 0..i is first attained at the last row k <= i
            # that beat every earlier row strictly, so ties keep the earlier row
            new_max = np.ones((b, n - 1, m), dtype=bool)
            new_max[:, 1:] = p[:, 1:-1] > run[:, :-2]
            first = np.maximum.accumulate(
                np.where(new_max, np.arange(n - 1)[:, None], 0), axis=1)
            # out row j reads the max of rows 0..j-1; repeated targets sum in
            # row order (padding rows carry zero gradient)
            target = (np.arange(b)[:, None, None] * n + first) * m + np.arange(m)
            z = _scatter_add(target.ravel(), gp[:, 1:], p.shape)
        z = segs.unpad(z)
        return (z if a.data.ndim == 2 else z[:, 0],)

    return _emit("shifted_prefix_max", out, (a,), vjp)


def segment_sum(a: Tensor, segs: Segments) -> Tensor:
    """Per-segment totals: out[b] sums every entry of segment b's rows.

    a has rank 1 or 2; a segment that owns no rows totals zero. Rows are
    added in order, one segment at a time.
    """
    if a.data.ndim not in (1, 2):
        raise ShapeError(f"segment_sum: need rank 1 or 2, got {a.data.shape}")
    segs.check("segment_sum", a.data.shape[0])
    rows = a.data if a.data.ndim == 1 else a.data.sum(axis=1)
    shape = a.data.shape

    def vjp(g):
        per_row = g[segs.seg]
        return (per_row if len(shape) == 1 else np.repeat(per_row[:, None], shape[1], axis=1),)

    return _emit("segment_sum", np.bincount(segs.seg, weights=rows, minlength=segs.count),
                 (a,), vjp)


def causal_attention(q: Tensor, k: Tensor, v: Tensor, segs: Segments, heads: int) -> Tensor:
    """Multi-head causal self-attention over packed sequences, in one record.

    q, k and v are [N, d] projections of the N rows laid out by segs; the d
    columns split into ``heads`` equal blocks. Row i of a sequence attends
    to rows 0..i of the same sequence only: the causal upper triangle and
    the padding keys get exactly zero weight. Returns the [N, d] heads'
    outputs side by side, before any output projection.

    Each of segs.groups runs as one zero-padded [segments, heads, width,
    width] block as wide as its own longest sequence, so a short sequence
    pays for the padding of its group, not of the whole batch.
    """
    shapes = {q.data.shape, k.data.shape, v.data.shape}
    if len(shapes) != 1 or q.data.ndim != 2:
        raise ShapeError(f"causal_attention: q/k/v shapes {sorted(shapes)}")
    n, d = q.data.shape
    if heads < 1 or d % heads:
        raise ShapeError(f"causal_attention: width {d} does not split into {heads} heads")
    segs.check("causal_attention", n)
    scale = 1.0 / np.sqrt(d // heads)

    def split(x, sub):  # [rows, d] -> [segments, heads, width, dh]
        return sub.pad(x).reshape(sub.count, sub.width, heads, -1).transpose(0, 2, 1, 3)

    def merge(x, sub):  # inverse of split
        return sub.unpad(x.transpose(0, 2, 1, 3).reshape(sub.count, sub.width, d))

    out = np.empty((n, d))
    blocks = []
    # overflowing scores end in a non-finite output, which _emit reports
    with np.errstate(over="ignore", invalid="ignore"):
        for rows, sub in segs.groups:
            qh, kh, vh = (split(x.data[rows], sub) for x in (q, k, v))
            # a real row's padding keys lie above the diagonal too; a padding
            # row's output is dropped and its gradient is zero
            cols = np.arange(sub.width)
            scores = np.matmul(qh, kh.swapaxes(-1, -2)) * scale
            np.copyto(scores, -np.inf, where=cols > cols[:, None])
            scores -= scores.max(axis=-1, keepdims=True)
            w = np.exp(scores, out=scores)
            w /= w.sum(axis=-1, keepdims=True)
            out[rows] = merge(np.matmul(w, vh), sub)
            blocks.append((rows, sub, qh, kh, vh, w))

    def vjp(g):
        gq, gk, gv = np.empty((n, d)), np.empty((n, d)), np.empty((n, d))
        for rows, sub, qh, kh, vh, w in blocks:
            gh = split(g[rows], sub)
            gw = np.matmul(gh, vh.swapaxes(-1, -2))
            gs = w * (gw - (gw * w).sum(axis=-1, keepdims=True)) * scale
            gq[rows] = merge(np.matmul(gs, kh), sub)
            gk[rows] = merge(np.matmul(gs.swapaxes(-1, -2), qh), sub)
            gv[rows] = merge(np.matmul(w.swapaxes(-1, -2), gh), sub)
        return gq, gk, gv

    return _emit("causal_attention", out, (q, k, v), vjp)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-8) -> Tensor:
    """Row-wise normalization to zero mean / unit variance, then gain and bias."""
    if x.data.ndim != 2:
        raise ShapeError(f"layer_norm: need rank 2, got {x.data.shape}")
    d = x.data.shape[1]
    if gain.data.shape != (d,) or bias.data.shape != (d,):
        raise ShapeError(
            f"layer_norm: gain {gain.data.shape} / bias {bias.data.shape} vs width {d}")
    # row means as sum / d: the same arithmetic as ndarray.mean, without
    # its Python-level wrapper
    mu = x.data.sum(axis=1, keepdims=True) / d
    xc = x.data - mu
    var = (xc * xc).sum(axis=1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out = xhat * gain.data[None, :] + bias.data[None, :]

    def vjp(g):
        gxhat = g * gain.data[None, :]
        gx = inv * (
            gxhat
            - gxhat.sum(axis=1, keepdims=True) / d
            - xhat * ((gxhat * xhat).sum(axis=1, keepdims=True) / d)
        )
        return (gx, (g * xhat).sum(axis=0), g.sum(axis=0))

    return _emit("layer_norm", out, (x, gain, bias), vjp)


# ---------------------------------------------------------------------------
# parameter storage
# ---------------------------------------------------------------------------

class ParamStore:
    """Named trainable tensors in one contiguous vector.

    A store is built once, from all its named arrays. Names are unique within
    a store and sorted, so iteration, optimizer updates and gradient
    reductions happen in a fixed order. The values are copied, in name order,
    into one float64 vector, ``flat``; each parameter's ``.data`` is a view
    of its slice of it (``slices``, in ``tensors`` order), so a write through
    either shows in the other and whole-store passes (L2, Adam) are single
    vectorized operations.
    """

    def __init__(self, arrays: Mapping[str, object] | Iterable[tuple[str, object]] = ()):
        named: dict[str, np.ndarray] = {}
        for name, values in (arrays.items() if isinstance(arrays, Mapping) else arrays):
            if name in named:
                raise ValueError(f"parameter {name!r} already present")
            named[name] = np.asarray(values, dtype=np.float64)
        names = sorted(named)
        self.flat = np.concatenate([named[n] for n in names] or [np.zeros(0)], axis=None)
        ends = itertools.accumulate(named[n].size for n in names)
        self.slices = tuple(slice(end - named[n].size, end) for n, end in zip(names, ends))
        self.tensors = tuple(Tensor(self.flat[at].reshape(named[n].shape), requires_grad=True, name=n)
                             for n, at in zip(names, self.slices))
        self._params = {t.name: t for t in self.tensors}

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def __len__(self) -> int:
        return len(self._params)

    def names(self) -> list[str]:
        return list(self._params)

    def items(self) -> list[tuple[str, Tensor]]:
        return list(self._params.items())

    def split(self, vector: np.ndarray) -> list[np.ndarray]:
        """Views into a vector laid out like ``flat``, one per parameter in its shape."""
        return [vector[at].reshape(t.data.shape) for t, at in zip(self.tensors, self.slices)]

    def grad(self, name: str) -> np.ndarray:
        """Accumulated gradient for a parameter; zeros if never reached."""
        t = self._params[name]
        return np.zeros_like(t.data) if t.grad is None else t.grad

    def flat_grad(self) -> np.ndarray:
        """Every accumulated gradient in ``flat`` order; zeros where never reached."""
        return np.concatenate([np.zeros(t.data.shape) if t.grad is None else t.grad
                               for t in self.tensors] or [np.zeros(0)], axis=None)

    def zero_grads(self) -> None:
        for t in self._params.values():
            t.grad = None


# ---------------------------------------------------------------------------
# finite-difference oracle
# ---------------------------------------------------------------------------

@dataclass
class FdReport:
    """Outcome of comparing taped gradients against central differences."""

    max_rel_err: float = 0.0
    worst_param: str | None = None
    worst_index: tuple[int, ...] | None = None
    per_param: dict[str, float] = field(default_factory=dict)

    @property
    def empty(self) -> bool:
        return not self.per_param


def finite_difference_check(f, store: ParamStore, h: float = 1e-5) -> FdReport:
    """Compare backward() gradients of f against central finite differences.

    f maps the store to a scalar Tensor and must be deterministic. The
    relative error for one entry is |analytic - numeric| / max(1, |analytic|,
    |numeric|), which keeps near-zero gradients from producing spurious
    blowups. An empty store yields an empty report.
    """
    if h <= 0.0:
        raise ValueError("finite_difference_check: h must be positive")
    store.zero_grads()
    with GradTape() as tape:
        loss = f(store)
        tape.backward(loss)
    analytic = {name: store.grad(name).copy() for name, _ in store.items()}
    store.zero_grads()

    def eval_f() -> float:
        out = f(store)
        val = float(out.data)
        if not np.isfinite(val):
            raise NumericError("finite_difference_check: f non-finite at perturbed point")
        return val

    report = FdReport()
    for name, t in store.items():
        worst = 0.0
        for idx in np.ndindex(t.data.shape):
            orig = t.data[idx]
            t.data[idx] = orig + h
            fp = eval_f()
            t.data[idx] = orig - h
            fm = eval_f()
            t.data[idx] = orig
            numeric = (fp - fm) / (2.0 * h)
            a = analytic[name][idx]
            rel = abs(a - numeric) / max(1.0, abs(a), abs(numeric))
            if rel > worst:
                worst = rel
            if rel > report.max_rel_err:
                report.max_rel_err = rel
                report.worst_param = name
                report.worst_index = idx
        report.per_param[name] = worst
    return report
