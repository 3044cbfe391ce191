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
attend is the same softmax attention without a mask or a layout: a row
appended to a sequence attends over the keys and values cached before it.
The index ops (take_rows, pick, shifted_prefix_max) scatter their gradients
with one bincount each, adding repeated targets in input order.

A ParamStore is built once, from all its named arrays or over a saved flat
vector, and keeps them in one contiguous vector, laid out in name order, with
each named tensor a view into it; that layout never changes, so whole-store
passes (the L2 term, an Adam step) are single vectorized operations. The
store has no saved form of its own: a checkpoint (``training``) writes its
names, shapes and ``flat``.

Non-finite values are caught by one floating-point guard per call, not by a
scan after every op. The outermost guarded call (an entry point such as
Model.forward, Model.step, objectives.total_loss, GradTape.backward or
Adam.update, marked with ``guarded``) runs inside one
``np.errstate(over="raise", invalid="raise", divide="raise",
under="ignore")``, so numpy's own IEEE flags stop the first op that
overflows, divides by zero or makes a NaN; a guard opened inside another
passes straight through. The FloatingPointError leaves the innermost guard
as a NumericError that names it: every primitive is a guard too, so the
message reads like ``attend: overflow encountered in matmul``. A value that
is already non-finite raises no flag, so each entry point checks what can
arrive that way once (the parameters, the times). Two kinds of work raise no
flag of their own and are scanned instead: a float ``np.bincount`` total,
and a product large enough for BLAS to split over threads (a worker
thread's flags never reach numpy). A primitive called with no guard open
opens its own and scans its output once, since its inputs are unchecked.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import math
from collections.abc import Callable, Iterable, Mapping
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested op."""


class NumericError(ArithmeticError):
    """An op produced (or was handed) a non-finite or out-of-domain value."""


# ---------------------------------------------------------------------------
# the floating-point guard
# ---------------------------------------------------------------------------

# True while a guarded call runs in this context; numpy keeps its errstate in
# a context variable too, so the two share one scope per thread and task
_GUARD_OPEN = contextvars.ContextVar("actionflow_guard_open", default=False)


def _guard(fn, name: str, scan_output: bool):
    @functools.wraps(fn)
    def call(*args, **kwargs):
        if _GUARD_OPEN.get():
            try:
                return fn(*args, **kwargs)
            except FloatingPointError as e:
                raise NumericError(f"{name}: {e}") from None
        token = _GUARD_OPEN.set(True)
        try:
            with np.errstate(over="raise", invalid="raise", divide="raise", under="ignore"):
                out = call(*args, **kwargs)  # now the open-guard branch above
        finally:
            _GUARD_OPEN.reset(token)
        if scan_output and not np.isfinite(out.data).all():
            raise NumericError(f"{name}: non-finite output")
        return out
    return call


def guarded(fn):
    """Run fn under the floating-point guard (see the module docstring).

    The outermost guarded call turns numpy's overflow, invalid and
    divide-by-zero flags into FloatingPointError for its whole duration and
    restores the caller's errstate when it returns or raises; a guarded call
    inside it passes straight through. A FloatingPointError leaves the
    innermost guard it crosses as a NumericError prefixed with that guard's
    name (fn's qualified name), so one raised inside a primitive names the
    primitive. fn must not return non-finite values it was handed: check
    such inputs where they enter.
    """
    return _guard(fn, fn.__qualname__, scan_output=False)


def primitive(fn):
    """A guarded op whose output, a Tensor, is scanned once when no guard was
    open: its inputs then come from outside any checked entry point."""
    return _guard(fn, fn.__name__, scan_output=True)


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

    @guarded
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
    """Wrap an op's output and record it on the active tape, if any.

    op is the primitive's name; the record does not keep it. Nothing is
    scanned here: the op ran under the floating-point guard, so a result
    that overflowed or came out NaN has already raised.
    """
    out = Tensor(out_data)
    tape = _active_tape()
    if tape is not None:
        tape._records.append((out, inputs, vjp))
        out._tape = tape._serial
    return out


#: The fewest multiply-adds in a product that OpenBLAS splits over threads
#: (dgemv's threshold, 2304 * 4; dgemm's is higher). A flag raised on a
#: worker thread never reaches numpy, so such a product's output is scanned.
_THREADED_PRODUCT = 2304 * 4


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.matmul(a, b), raising FloatingPointError for a non-finite output
    that BLAS may have computed off this thread."""
    out = np.matmul(a, b)
    rows, inner = a.shape[-2:]
    if rows * inner * b.shape[-1] >= _THREADED_PRODUCT and not np.isfinite(out).all():
        raise FloatingPointError("non-finite value in a threaded matmul")
    return out


def _bincount(index: np.ndarray, weights: np.ndarray, minlength: int) -> np.ndarray:
    """np.bincount of float weights, which adds in C without setting a
    floating-point flag: a total that overflows raises here instead."""
    out = np.bincount(index, weights=weights, minlength=minlength)
    if not np.isfinite(out).all():
        raise FloatingPointError("overflow encountered in bincount")
    return out


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------

@primitive
def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of two rank-2 operands."""
    ad, bd = a.data, b.data
    if ad.ndim != 2 or bd.ndim != 2:
        raise ShapeError(f"matmul: unsupported ranks {ad.shape} @ {bd.shape}")
    if ad.shape[1] != bd.shape[0]:
        raise ShapeError(f"matmul: {ad.shape} @ {bd.shape}")

    def vjp(g):
        return (_product(g, bd.T), _product(ad.T, g))

    return _emit("matmul", _product(ad, bd), (a, b), vjp)


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


@primitive
def add(a: Tensor, b) -> Tensor:
    """a + b; b may be a number, a tensor of a's shape or a rank-1 row bias."""
    return _binary("add", a.data + _operand("add", a, b), a, b, lambda g: g, lambda g: g)


@primitive
def sub(a: Tensor, b) -> Tensor:
    """a - b; same operand rules as add."""
    return _binary("sub", a.data - _operand("sub", a, b), a, b, lambda g: g, lambda g: -g)


@primitive
def mul(a: Tensor, b) -> Tensor:
    """Elementwise a * b; same operand rules as add."""
    ad, bd = a.data, _operand("mul", a, b)
    return _binary("mul", ad * bd, a, b, lambda g: g * bd, lambda g: g * ad)


@primitive
def div(a: Tensor, b) -> Tensor:
    """Elementwise a / b for a nonzero number or a same-shape tensor b."""
    ad, bd = a.data, _operand("div", a, b)
    if isinstance(b, Tensor) and bd.shape != ad.shape:
        raise ShapeError(f"div: row broadcast not supported ({ad.shape} / {bd.shape})")
    if np.any(bd == 0.0):
        raise NumericError("div: zero divisor element" if isinstance(b, Tensor)
                           else "div: zero scalar divisor")
    return _binary("div", ad / bd, a, b, lambda g: g / bd, lambda g: -g * ad / (bd * bd))


@primitive
def relu(a: Tensor) -> Tensor:
    mask = a.data > 0.0

    def vjp(g):
        return (g * mask,)

    return _emit("relu", np.where(mask, a.data, 0.0), (a,), vjp)


@primitive
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


@primitive
def log(a: Tensor) -> Tensor:
    """Natural log; rejects non-positive inputs instead of returning -inf."""
    if np.any(a.data <= 0.0):
        raise NumericError("log: input outside positive domain")
    ad = a.data

    def vjp(g):
        return (g / ad,)

    return _emit("log", np.log(ad), (a,), vjp)


@primitive
def exp(a: Tensor) -> Tensor:
    out = np.exp(a.data)

    def vjp(g):
        return (g * out,)

    return _emit("exp", out, (a,), vjp)


@primitive
def softplus(a: Tensor) -> Tensor:
    """log(1 + e^x) computed stably for large |x|."""
    ad = a.data
    out = np.logaddexp(0.0, ad)

    def vjp(g):
        # the sigmoid e^x / (1 + e^x) = e^(x - out): no overflow at any x
        return (g * np.exp(ad - out),)

    return _emit("softplus", out, (a,), vjp)


@primitive
def sum_all(a: Tensor) -> Tensor:
    shape = a.data.shape

    def vjp(g):
        return (np.full(shape, float(g)),)

    return _emit("sum_all", a.data.sum(), (a,), vjp)


@primitive
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
    out = _bincount(index, values.ravel(), math.prod(shape))
    return out.astype(np.float64, copy=False).reshape(shape)  # integer zeros if no values


@primitive
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


@primitive
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
    before it. Every segment owns at least one row; Segments(n) is one over
    all n rows.
    ``groups`` splits the segments into runs of similar length for ops whose
    cost grows with the square of the padded width.
    """

    def __init__(self, n: int, lens=None):
        lens = np.array([n] if lens is None else lens, dtype=np.intp)
        sizes = lens.tolist()
        if lens.ndim != 1 or not sizes or min(sizes) < 1 or sum(sizes) != n:
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
        cuts = _length_cuts(sizes)
        if len(cuts) <= 2:
            return ((slice(None), self),)
        rank = np.empty(self.count, dtype=np.intp)
        rank[order] = np.arange(self.count)
        ranked = np.argsort(rank[self.seg], kind="stable")  # rows, segment by segment
        ends = np.concatenate(([0], np.cumsum(sizes))).tolist()
        return tuple((ranked[ends[a]:ends[b]], Segments(ends[b] - ends[a], sizes[a:b]))
                     for a, b in zip(cuts, cuts[1:]))


@primitive
def cumsum(a: Tensor, segs: Segments) -> Tensor:
    """Running sum down axis 0, restarting at every segment."""
    segs.check("cumsum", a.data.shape[0])

    def vjp(g):
        return (segs.unpad(np.flip(np.cumsum(np.flip(segs.pad(g), axis=1), axis=1), axis=1)),)

    return _emit("cumsum", segs.unpad(np.cumsum(segs.pad(a.data), axis=1)), (a,), vjp)


@primitive
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


@primitive
def segment_sum(a: Tensor, segs: Segments) -> Tensor:
    """Per-segment totals: out[b] sums every entry of segment b's rows.

    a has rank 1 or 2. Rows are added in order, one segment at a time.
    """
    if a.data.ndim not in (1, 2):
        raise ShapeError(f"segment_sum: need rank 1 or 2, got {a.data.shape}")
    segs.check("segment_sum", a.data.shape[0])
    rows = a.data if a.data.ndim == 1 else a.data.sum(axis=1)
    shape = a.data.shape

    def vjp(g):
        per_row = g[segs.seg]
        return (per_row if len(shape) == 1 else np.repeat(per_row[:, None], shape[1], axis=1),)

    return _emit("segment_sum", _bincount(segs.seg, rows, segs.count), (a,), vjp)


def _softmax_attention(qh: np.ndarray, kh: np.ndarray, vh: np.ndarray, scale: float,
                       causal: bool) -> tuple[np.ndarray, np.ndarray]:
    """Scaled dot-product attention on [..., heads, rows, dh] blocks: the
    heads' outputs and their weights. A causal block is square, and its row
    i gives exactly zero weight to the keys after it."""
    # no _product scan here: a +inf score turns NaN (invalid, so it raises) in
    # the max subtraction, a NaN reaches the output product, which is as large
    # and so scanned, and a -inf only zeroes a weight, as a masked score does
    scores = np.matmul(qh, kh.swapaxes(-1, -2))
    scores *= scale
    if causal:
        cols = np.arange(scores.shape[-1])
        np.copyto(scores, -np.inf, where=cols > cols[:, None])
    scores -= scores.max(axis=-1, keepdims=True)
    w = np.exp(scores, out=scores)
    w /= w.sum(axis=-1, keepdims=True)
    return _product(w, vh), w


def _softmax_attention_vjp(gh, qh, kh, vh, w, scale: float):
    """Gradients of _softmax_attention's output with respect to qh, kh, vh.

    The score gradient w * (gw - rowsum) * scale is built in place on the
    gw product, in that order of operations, so no other temporary of the
    score block's size is made."""
    # no _product scan here, as for the scores: an inf turns NaN (invalid) in
    # the lines below, and a NaN reaches the products returned, which are scanned
    gw = np.matmul(gh, vh.swapaxes(-1, -2))
    rowsum = (gw * w).sum(axis=-1, keepdims=True)
    gw -= rowsum
    gw *= w
    gw *= scale
    return (_product(gw, kh), _product(gw.swapaxes(-1, -2), qh),
            _product(w.swapaxes(-1, -2), gh))


def _attention_scale(op: str, d: int, heads: int) -> float:
    """The attention scale for d columns split into ``heads`` blocks."""
    if heads < 1 or d % heads:
        raise ShapeError(f"{op}: width {d} does not split into {heads} heads")
    return 1.0 / np.sqrt(d // heads)


@primitive
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
    scale = _attention_scale("causal_attention", d, heads)
    segs.check("causal_attention", n)

    def split(x, sub):  # [rows, d] -> [segments, heads, width, dh]
        return sub.pad(x).reshape(sub.count, sub.width, heads, -1).transpose(0, 2, 1, 3)

    def merge(x, sub):  # inverse of split
        return sub.unpad(x.transpose(0, 2, 1, 3).reshape(sub.count, sub.width, d))

    out = np.empty((n, d))
    blocks = []
    for rows, sub in segs.groups:
        # a real row's padding keys lie above the diagonal too; a padding
        # row's output is dropped and its gradient is zero
        qh, kh, vh = (split(x.data[rows], sub) for x in (q, k, v))
        oh, w = _softmax_attention(qh, kh, vh, scale, causal=True)
        out[rows] = merge(oh, sub)
        blocks.append((rows, sub, qh, kh, vh, w))

    def vjp(g):
        gq, gk, gv = np.empty((n, d)), np.empty((n, d)), np.empty((n, d))
        for rows, sub, qh, kh, vh, w in blocks:
            gqh, gkh, gvh = _softmax_attention_vjp(split(g[rows], sub), qh, kh, vh, w, scale)
            gq[rows], gk[rows], gv[rows] = merge(gqh, sub), merge(gkh, sub), merge(gvh, sub)
        return gq, gk, gv

    return _emit("causal_attention", out, (q, k, v), vjp)


@primitive
def attend(q: Tensor, k: Tensor, v: Tensor, heads: int) -> Tensor:
    """Multi-head attention of every row of q over every row of k and v.

    q is [m, d]; k and v are [n, d], with the d columns split into
    ``heads`` equal blocks as in causal_attention. When k and v hold a
    sequence's rows 0..i and q its row i, the output is row i of
    causal_attention on that sequence: this is how cached decoding attends
    from one appended row.
    """
    if q.data.ndim != 2 or k.data.ndim != 2 or k.data.shape != v.data.shape \
            or q.data.shape[1] != k.data.shape[1]:
        raise ShapeError(f"attend: q {q.data.shape}, k {k.data.shape}, v {v.data.shape}")
    d = q.data.shape[1]
    scale = _attention_scale("attend", d, heads)

    def split(x):  # [rows, d] -> [heads, rows, dh]
        return x.reshape(x.shape[0], heads, -1).transpose(1, 0, 2)

    def merge(x):  # inverse of split
        return x.transpose(1, 0, 2).reshape(-1, d)

    qh, kh, vh = split(q.data), split(k.data), split(v.data)
    oh, w = _softmax_attention(qh, kh, vh, scale, causal=False)

    def vjp(g):
        return tuple(merge(x) for x in _softmax_attention_vjp(split(g), qh, kh, vh, w, scale))

    return _emit("attend", merge(oh), (q, k, v), vjp)


@primitive
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

# a parameter's initial values: draw(rng, shape) returns an array of that shape
Draw = Callable[[np.random.Generator, tuple[int, ...]], np.ndarray]

# a parameter described without its values: (name, shape, draw)
ParamSpec = tuple[str, tuple[int, ...], Draw]


def uniform_draw(bound: float) -> Draw:
    return lambda rng, shape: rng.uniform(-bound, bound, size=shape)


def normal_draw(std: float) -> Draw:
    return lambda rng, shape: rng.normal(0.0, std, size=shape)


def constant_draw(value: float) -> Draw:
    """Draws nothing from rng."""
    return lambda rng, shape: np.full(shape, value)


def draw_params(specs: Iterable[ParamSpec],
                rng: np.random.Generator) -> list[tuple[str, np.ndarray]]:
    """Every spec's initial values, drawn from rng in spec order."""
    return [(name, draw(rng, shape)) for name, shape, draw in specs]


class ParamStore:
    """Named trainable tensors in one contiguous vector.

    A store is built once, from all its named arrays. Names are unique within
    a store and sorted, so iteration, optimizer updates and gradient
    reductions happen in a fixed order. The values are copied, in name order,
    into one float64 vector, ``flat``; each parameter's ``.data`` is a view
    of its slice of it (``slices``, in ``tensors`` order), so a write through
    either shows in the other and whole-store passes (L2, Adam) are single
    vectorized operations. ``from_flat`` builds a store over an existing
    vector instead, without copying it.
    """

    def __init__(self, arrays: Mapping[str, object] | Iterable[tuple[str, object]] = ()):
        named: dict[str, np.ndarray] = {}
        for name, values in (arrays.items() if isinstance(arrays, Mapping) else arrays):
            if name in named:
                raise ValueError(f"parameter {name!r} already present")
            named[name] = np.asarray(values, dtype=np.float64)
        names = sorted(named)
        self._bind(names, [named[n].shape for n in names],
                   np.concatenate([named[n] for n in names] or [np.zeros(0)], axis=None))

    @classmethod
    def from_flat(cls, names: list[str], shapes, flat: np.ndarray) -> "ParamStore":
        """A store whose ``flat`` is ``flat`` itself, laid out by ``names``
        (sorted and unique) and their ``shapes``."""
        if any(a >= b for a, b in itertools.pairwise(names)) or len(shapes) != len(names):
            raise ValueError("parameter names must be sorted, unique and one per shape")
        if flat.dtype != np.float64 or flat.shape != (sum(map(math.prod, shapes)),):
            raise ValueError(f"a {flat.dtype} vector of shape {flat.shape} does not hold "
                             f"the {len(names)} parameters' values")
        store = cls.__new__(cls)
        store._bind(list(names), [tuple(s) for s in shapes], flat)
        return store

    def _bind(self, names: list[str], shapes: list[tuple[int, ...]], flat: np.ndarray) -> None:
        self.flat = flat
        ends = itertools.accumulate(map(math.prod, shapes))
        self.slices = tuple(slice(end - math.prod(shape), end) for shape, end in zip(shapes, ends))
        self.tensors = tuple(Tensor(flat[at].reshape(shape), requires_grad=True, name=n)
                             for n, shape, at in zip(names, shapes, self.slices))
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

    def check_finite(self) -> None:
        """Raise NumericError naming the first parameter that holds a
        non-finite value. Such a value raises no floating-point flag where
        it is used, so a guarded entry point checks the store before it runs."""
        finite = np.isfinite(self.flat)
        if not finite.all():
            at = int(np.argmin(finite))
            name = next(t.name for t, part in zip(self.tensors, self.slices) if at < part.stop)
            raise NumericError(f"parameter {name} holds a non-finite value")

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
