"""Dense float64 tensors with taped reverse-mode gradients.

Everything else in this package does its math through the primitives in this
module. Each primitive evaluates eagerly with numpy, records itself on the
active gradient tape (if one is open), and raises a structured error when
shapes disagree or a non-finite value shows up. Gradients accumulate on
parameter tensors across backward passes until explicitly zeroed, so a loss
summed over many sequences costs no extra bookkeeping.

Broadcasting is deliberately narrow: scalars combine with anything, and a
rank-1 tensor may be added to / multiplied into the rows of a rank-2 tensor
(the bias case). Everything else is rejected, which keeps the finite-difference
oracle and the backward rules straightforward.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    """A float64 array plus an optional accumulated gradient.

    Tensors are created either as constants (inputs, masks, targets) or as
    named parameters inside a ParamStore; only the latter set
    ``requires_grad`` and receive gradients from ``GradTape.backward``.
    """

    __slots__ = ("data", "requires_grad", "grad", "name")

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        arr = np.asarray(data, dtype=np.float64)
        self.data = arr
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self.name = name

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


class GradTape:
    """Ordered record of primitive ops, replayable in reverse for gradients.

    Use as a context manager::

        with GradTape() as tape:
            loss = ...          # ops record themselves here
            tape.backward(loss) # gradients land on parameter tensors

    With no tape open, the same ops run as plain forward arithmetic.
    """

    def __init__(self):
        # each record: (output tensor, input tuple, vjp callable)
        self._records: list[tuple[Tensor, tuple, object]] = []
        self._produced: set[int] = set()

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
        Parameters not reachable from the loss are left untouched (their
        gradient reads as zero).
        """
        if not isinstance(loss, Tensor):
            raise TypeError("backward expects a Tensor loss")
        if loss.data.shape != ():
            raise ShapeError(f"backward needs a scalar loss, got shape {loss.data.shape}")
        if id(loss) not in self._produced:
            raise ValueError("loss was not produced by ops recorded on this tape")
        flowing: dict[int, np.ndarray] = {id(loss): np.ones((), dtype=np.float64)}
        for out, inputs, vjp in reversed(self._records):
            g = flowing.pop(id(out), None)
            if g is None:
                continue
            for tensor, gin in zip(inputs, vjp(g)):
                if gin is None or not isinstance(tensor, Tensor):
                    continue
                if tensor.requires_grad:
                    if tensor.grad is None:
                        tensor.grad = np.zeros_like(tensor.data)
                    tensor.grad += gin
                if id(tensor) in self._produced:
                    prev = flowing.get(id(tensor))
                    flowing[id(tensor)] = gin if prev is None else prev + gin


def _active_tape() -> GradTape | None:
    return _TAPE_STACK[-1] if _TAPE_STACK else None


def _emit(op: str, out_data: np.ndarray, inputs: tuple, vjp) -> Tensor:
    out_data = np.asarray(out_data, dtype=np.float64)
    if not np.all(np.isfinite(out_data)):
        raise NumericError(f"{op}: non-finite output")
    out = Tensor(out_data)
    tape = _active_tape()
    if tape is not None:
        tape._records.append((out, inputs, vjp))
        tape._produced.add(id(out))
    return out


def _is_number(x) -> bool:
    return isinstance(x, (int, float, np.integer, np.floating))


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


def transpose(a: Tensor) -> Tensor:
    if a.data.ndim != 2:
        raise ShapeError(f"transpose: need rank 2, got {a.data.shape}")

    def vjp(g):
        return (g.T,)

    return _emit("transpose", a.data.T, (a,), vjp)


def _binary_shapes(op: str, a: Tensor, b) -> str:
    """Classify a binary-op operand pair: 'scalar', 'same', or 'bias'."""
    if _is_number(b):
        return "scalar"
    if not isinstance(b, Tensor):
        raise TypeError(f"{op}: operand must be Tensor or number, got {type(b).__name__}")
    if a.data.shape == b.data.shape:
        return "same"
    if a.data.ndim == 2 and b.data.ndim == 1 and a.data.shape[1] == b.data.shape[0]:
        return "bias"
    raise ShapeError(f"{op}: {a.data.shape} vs {b.data.shape}")


def add(a: Tensor, b) -> Tensor:
    """a + b; b may be a scalar or a rank-1 bias broadcast over a's rows."""
    kind = _binary_shapes("add", a, b)
    if kind == "scalar":
        c = float(b)
        return _emit("add", a.data + c, (a,), lambda g: (g,))
    if kind == "same":
        return _emit("add", a.data + b.data, (a, b), lambda g: (g, g))
    return _emit("add", a.data + b.data[None, :], (a, b), lambda g: (g, g.sum(axis=0)))


def sub(a: Tensor, b) -> Tensor:
    """a - b; same operand rules as add."""
    kind = _binary_shapes("sub", a, b)
    if kind == "scalar":
        c = float(b)
        return _emit("sub", a.data - c, (a,), lambda g: (g,))
    if kind == "same":
        return _emit("sub", a.data - b.data, (a, b), lambda g: (g, -g))
    return _emit("sub", a.data - b.data[None, :], (a, b), lambda g: (g, -g.sum(axis=0)))


def mul(a: Tensor, b) -> Tensor:
    """Elementwise a * b; b may be a scalar or a rank-1 row-wise factor."""
    kind = _binary_shapes("mul", a, b)
    if kind == "scalar":
        c = float(b)
        return _emit("mul", a.data * c, (a,), lambda g: (g * c,))
    if kind == "same":
        ad, bd = a.data, b.data
        return _emit("mul", ad * bd, (a, b), lambda g: (g * bd, g * ad))
    ad, bd = a.data, b.data
    return _emit(
        "mul", ad * bd[None, :], (a, b),
        lambda g: (g * bd[None, :], (g * ad).sum(axis=0)),
    )


def div(a: Tensor, b) -> Tensor:
    """Elementwise a / b for same-shape tensors or a scalar divisor."""
    kind = _binary_shapes("div", a, b)
    if kind == "scalar":
        c = float(b)
        if c == 0.0:
            raise NumericError("div: zero scalar divisor")
        return _emit("div", a.data / c, (a,), lambda g: (g / c,))
    if kind == "bias":
        raise ShapeError(f"div: row broadcast not supported ({a.data.shape} / {b.data.shape})")
    ad, bd = a.data, b.data
    if np.any(bd == 0.0):
        raise NumericError("div: zero divisor element")
    out = ad / bd
    return _emit("div", out, (a, b), lambda g: (g / bd, -g * ad / (bd * bd)))


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0.0

    def vjp(g):
        return (g * mask,)

    return _emit("relu", np.where(mask, a.data, 0.0), (a,), vjp)


def softmax(a: Tensor) -> Tensor:
    """Softmax over the last axis, stabilized by max subtraction."""
    if a.data.ndim not in (1, 2):
        raise ShapeError(f"softmax: need rank 1 or 2, got {a.data.shape}")
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=-1, keepdims=True)

    def vjp(g):
        dot = (g * y).sum(axis=-1, keepdims=True)
        return (y * (g - dot),)

    return _emit("softmax", y, (a,), vjp)


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


def concat(parts: list[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors of equal rank along the given axis."""
    if not parts:
        raise ShapeError("concat: empty input list")
    ranks = {p.data.ndim for p in parts}
    if len(ranks) != 1:
        raise ShapeError(f"concat: mixed ranks {sorted(ranks)}")
    out = np.concatenate([p.data for p in parts], axis=axis)
    sizes = [p.data.shape[axis] for p in parts]
    splits = np.cumsum(sizes)[:-1]

    def vjp(g):
        return tuple(np.split(g, splits, axis=axis))

    return _emit("concat", out, tuple(parts), vjp)


def masked_fill(a: Tensor, mask: np.ndarray, value: float) -> Tensor:
    """Replace entries where mask is True with a constant; no grad there."""
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != a.data.shape:
        raise ShapeError(f"masked_fill: mask {mask.shape} vs tensor {a.data.shape}")
    keep = ~mask

    def vjp(g):
        return (g * keep,)

    return _emit("masked_fill", np.where(mask, value, a.data), (a,), vjp)


def take_rows(a: Tensor, idx) -> Tensor:
    """Gather rows of a rank-2 tensor (or entries of a rank-1 tensor)."""
    idx = np.asarray(idx, dtype=np.intp)
    if idx.ndim != 1:
        raise ShapeError(f"take_rows: index must be rank 1, got {idx.shape}")
    n = a.data.shape[0]
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise ShapeError(f"take_rows: index out of range for {a.data.shape}")
    shape = a.data.shape

    def vjp(g):
        z = np.zeros(shape)
        np.add.at(z, idx, g)
        return (z,)

    return _emit("take_rows", a.data[idx], (a,), vjp)


def take_cols(a: Tensor, idx) -> Tensor:
    """Gather columns of a rank-2 tensor by integer index."""
    if a.data.ndim != 2:
        raise ShapeError(f"take_cols: need rank 2, got {a.data.shape}")
    idx = np.asarray(idx, dtype=np.intp)
    if idx.ndim != 1:
        raise ShapeError(f"take_cols: index must be rank 1, got {idx.shape}")
    n = a.data.shape[1]
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise ShapeError(f"take_cols: index out of range for {a.data.shape}")
    shape = a.data.shape

    def vjp(g):
        z = np.zeros(shape)
        np.add.at(z.T, idx, g.T)
        return (z,)

    return _emit("take_cols", a.data[:, idx], (a,), vjp)


def slice_cols(a: Tensor, start: int, stop: int) -> Tensor:
    """Contiguous column slice of a rank-2 tensor."""
    if a.data.ndim != 2:
        raise ShapeError(f"slice_cols: need rank 2, got {a.data.shape}")
    if not (0 <= start < stop <= a.data.shape[1]):
        raise ShapeError(f"slice_cols: [{start}:{stop}] outside {a.data.shape}")
    shape = a.data.shape

    def vjp(g):
        z = np.zeros(shape)
        z[:, start:stop] = g
        return (z,)

    return _emit("slice_cols", a.data[:, start:stop].copy(), (a,), vjp)


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
        z = np.zeros(shape)
        np.add.at(z, (rows, cols), g)
        return (z,)

    return _emit("pick", a.data[rows, cols], (a,), vjp)


def cumsum(a: Tensor) -> Tensor:
    """Running sum down axis 0."""
    def vjp(g):
        return (np.flip(np.cumsum(np.flip(g, axis=0), axis=0), axis=0),)

    return _emit("cumsum", np.cumsum(a.data, axis=0), (a,), vjp)


def shifted_prefix_max(a: Tensor) -> Tensor:
    """Strictly-previous running max down axis 0, with row 0 set to zero.

    out[0] = 0 and out[j] = max(a[0..j-1]) per column. The backward rule routes
    each output row's gradient to the first attaining entry of its prefix,
    matching the subgradient convention of numpy's first-occurrence argmax.
    """
    if a.data.ndim not in (1, 2):
        raise ShapeError(f"shifted_prefix_max: need rank 1 or 2, got {a.data.shape}")
    ad = a.data if a.data.ndim == 2 else a.data[:, None]
    n, m = ad.shape
    run = np.maximum.accumulate(ad, axis=0)
    out = np.zeros_like(ad)
    if n > 1:
        out[1:] = run[:-1]
    if a.data.ndim == 1:
        out = out[:, 0]

    def vjp(g):
        gd = g if g.ndim == 2 else g[:, None]
        z = np.zeros_like(ad)
        if n > 1:
            # the max of rows 0..i is first attained at the last row k <= i
            # that beat every earlier row strictly, so ties keep the earlier row
            new_max = np.ones((n - 1, m), dtype=bool)
            new_max[1:] = ad[1:-1] > run[:-2]
            first = np.maximum.accumulate(
                np.where(new_max, np.arange(n - 1)[:, None], 0), axis=0)
            # out row j reads the max of rows 0..j-1; add.at sums repeated
            # targets in row order
            np.add.at(z, (first, np.arange(m)), gd[1:])
        return (z if a.data.ndim == 2 else z[:, 0],)

    return _emit("shifted_prefix_max", out, (a,), vjp)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-8) -> Tensor:
    """Row-wise normalization to zero mean / unit variance, then gain and bias."""
    if x.data.ndim != 2:
        raise ShapeError(f"layer_norm: need rank 2, got {x.data.shape}")
    d = x.data.shape[1]
    if gain.data.shape != (d,) or bias.data.shape != (d,):
        raise ShapeError(
            f"layer_norm: gain {gain.data.shape} / bias {bias.data.shape} vs width {d}")
    mu = x.data.mean(axis=1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out = xhat * gain.data[None, :] + bias.data[None, :]

    def vjp(g):
        gxhat = g * gain.data[None, :]
        gx = inv * (
            gxhat
            - gxhat.mean(axis=1, keepdims=True)
            - xhat * (gxhat * xhat).mean(axis=1, keepdims=True)
        )
        return (gx, (g * xhat).sum(axis=0), g.sum(axis=0))

    return _emit("layer_norm", out, (x, gain, bias), vjp)


# ---------------------------------------------------------------------------
# parameter storage
# ---------------------------------------------------------------------------

SERIALIZATION_VERSION = 1


def encode_arrays(arrays: dict[str, np.ndarray]) -> dict:
    """Named arrays as JSON-ready ``{"shape", "values"}`` entries, in name order."""
    return {name: {"shape": list(a.shape), "values": a.ravel().tolist()}
            for name, a in sorted(arrays.items())}


def decode_arrays(payload: dict) -> dict[str, np.ndarray]:
    """Inverse of encode_arrays; entries come back as float64 arrays."""
    return {name: np.array(entry["values"], dtype=np.float64).reshape(entry["shape"])
            for name, entry in payload.items()}


class ParamStore:
    """Named trainable tensors with deterministic iteration and a JSON-ready form.

    Names are unique within a store and a tensor belongs to exactly one
    store. Iteration is sorted by name so optimizer updates and gradient
    reductions happen in a fixed order.
    """

    def __init__(self):
        self._params: dict[str, Tensor] = {}

    def add(self, name: str, values) -> Tensor:
        if name in self._params:
            raise ValueError(f"parameter {name!r} already present")
        t = Tensor(np.array(values, dtype=np.float64), requires_grad=True, name=name)
        self._params[name] = t
        return t

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def __len__(self) -> int:
        return len(self._params)

    def names(self) -> list[str]:
        return sorted(self._params)

    def items(self) -> list[tuple[str, Tensor]]:
        return [(n, self._params[n]) for n in self.names()]

    def grad(self, name: str) -> np.ndarray:
        """Accumulated gradient for a parameter; zeros if never reached."""
        t = self._params[name]
        return np.zeros_like(t.data) if t.grad is None else t.grad

    def zero_grads(self) -> None:
        for t in self._params.values():
            t.grad = None

    # -- serialization (JSON floats round-trip bit-exactly in python3) ------

    def to_dict(self) -> dict:
        return {
            "version": SERIALIZATION_VERSION,
            "params": encode_arrays({name: t.data for name, t in self.items()}),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ParamStore":
        if payload.get("version") != SERIALIZATION_VERSION:
            raise ValueError(f"unsupported ParamStore version {payload.get('version')!r}")
        store = cls()
        for name, arr in decode_arrays(payload["params"]).items():
            store.add(name, arr)
        return store


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
