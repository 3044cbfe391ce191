"""Tests for the tensor primitives, the gradient tape, and the FD oracle.

The column gathers, transpose, masked softmax and concatenation that the
per-sequence oracle in reference.py rebuilds from the remaining primitives
are checked here as well, since the packed batch path is judged against it.
"""

import gc
import itertools
import json
import weakref

import numpy as np
import pytest

from actionflow import numerics
from actionflow.data import decode_vector, encode_vector
from actionflow.numerics import (
    FdReport,
    GradTape,
    NumericError,
    ParamStore,
    Segments,
    ShapeError,
    Tensor,
    add,
    attend,
    causal_attention,
    cumsum,
    div,
    exp,
    finite_difference_check,
    layer_norm,
    log,
    log_softmax,
    matmul,
    mean_all,
    mul,
    pick,
    relu,
    segment_sum,
    shifted_prefix_max,
    softplus,
    sub,
    sum_all,
    take_rows,
)
from reference import concat, masked_fill, slice_cols, softmax, take_cols, transpose

# fixed output weights for the attention gradient checks, so that no
# symmetry of sum_all hides a wrong entry
ATTN_WEIGHTS = Tensor(np.random.default_rng(77).normal(size=(6, 4)))
ATTEND_WEIGHTS = Tensor(np.random.default_rng(78).normal(size=(2, 4)))


def make_store(shapes, seed):
    rng = np.random.default_rng(seed)
    return ParamStore((name, rng.normal(size=shape)) for name, shape in shapes.items())


class TestPrimitiveValues:
    def test_softmax_symmetry(self):
        out = softmax(Tensor([0.0, 0.0, 0.0]))
        np.testing.assert_allclose(out.data, np.full(3, 1.0 / 3.0), rtol=0, atol=1e-15)

    def test_relu_definition(self):
        out = relu(Tensor([-1.0, 2.0]))
        np.testing.assert_array_equal(out.data, [0.0, 2.0])

    def test_matmul_against_scalar_loop(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(2, 3))
        b = rng.normal(size=(3, 1))
        out = matmul(Tensor(a), Tensor(b))
        expected = np.zeros((2, 1))
        for i in range(2):
            for j in range(1):
                for k in range(3):
                    expected[i, j] += a[i, k] * b[k, j]
        np.testing.assert_allclose(out.data, expected, rtol=1e-15)

    def test_softmax_normalizes_and_stays_positive(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            x = rng.normal(scale=rng.uniform(0.1, 50.0), size=(4, 6))
            y = softmax(Tensor(x)).data
            np.testing.assert_allclose(y.sum(axis=-1), np.ones(4), rtol=0, atol=1e-12)
            assert (y > 0).all()

    def test_log_softmax_matches_softmax(self):
        rng = np.random.default_rng(2)
        x = rng.normal(scale=10.0, size=(5, 7))
        np.testing.assert_allclose(
            np.exp(log_softmax(Tensor(x)).data), softmax(Tensor(x)).data,
            rtol=0, atol=1e-12)

    def test_shifted_prefix_max_against_loop(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(6, 3))
        out = shifted_prefix_max(Tensor(a), Segments(6)).data
        for j in range(6):
            for c in range(3):
                want = 0.0 if j == 0 else a[:j, c].max()
                assert out[j, c] == want

    def test_cumsum_against_loop(self):
        a = np.arange(12.0).reshape(4, 3)
        out = cumsum(Tensor(a), Segments(4)).data
        np.testing.assert_array_equal(out, np.cumsum(a, axis=0))

    def test_softplus_stable_at_extremes(self):
        out = softplus(Tensor([-800.0, 0.0, 800.0])).data
        np.testing.assert_allclose(out, [0.0, np.log(2.0), 800.0], rtol=1e-12, atol=1e-300)

    def test_masked_fill_values(self):
        a = Tensor(np.ones((2, 2)))
        mask = np.array([[True, False], [False, True]])
        out = masked_fill(a, mask, -5.0).data
        np.testing.assert_array_equal(out, [[-5.0, 1.0], [1.0, -5.0]])


class TestBackwardBasics:
    def test_sum_gradient_is_ones(self):
        store = ParamStore({"w": np.arange(6.0).reshape(2, 3)})
        w = store["w"]
        with GradTape() as tape:
            tape.backward(sum_all(w))
        np.testing.assert_array_equal(store.grad("w"), np.ones((2, 3)))

    def test_quadratic_gradient(self):
        store = ParamStore({"w": [1.0, 2.0]})
        w = store["w"]
        with GradTape() as tape:
            tape.backward(sum_all(mul(w, w)))
        np.testing.assert_array_equal(store.grad("w"), [2.0, 4.0])

    def test_three_layer_composition_matches_fd(self):
        def f(s):
            h1 = relu(add(matmul(s["x"], s["w1"]), s["b1"]))
            h2 = matmul(h1, s["w2"])
            return mean_all(mul(softmax(h2), h2))

        store = make_store(
            {"x": (3, 4), "w1": (4, 5), "b1": (5,), "w2": (5, 2)}, seed=4)
        report = finite_difference_check(f, store)
        assert report.max_rel_err < 1e-6

    def test_unreachable_parameter_reads_zero_gradient(self):
        store = ParamStore({"w": [1.0, 2.0], "unused": [3.0]})
        w = store["w"]
        with GradTape() as tape:
            tape.backward(sum_all(w))
        np.testing.assert_array_equal(store.grad("unused"), [0.0])

    def test_gradients_accumulate_until_zeroed(self):
        store = ParamStore({"w": [1.0, 2.0]})
        w = store["w"]
        for _ in range(3):
            with GradTape() as tape:
                tape.backward(sum_all(w))
        np.testing.assert_array_equal(store.grad("w"), [3.0, 3.0])
        store.zero_grads()
        assert store["w"].grad is None
        np.testing.assert_array_equal(store.grad("w"), [0.0, 0.0])

    def test_reflected_sub_matches_numpy(self):
        x = np.random.default_rng(3).normal(size=(2, 3))
        store = ParamStore({"w": x})
        w = store["w"]
        with GradTape() as tape:
            y = 1.5 - w
            tape.backward(sum_all(mul(y, y)))
        np.testing.assert_array_equal(y.data, 1.5 - x)
        np.testing.assert_array_equal(store.grad("w"), -2.0 * (1.5 - x))

    def test_tape_determinism_bitwise(self):
        def run():
            store = make_store({"w": (4, 4), "v": (4,)}, seed=11)
            with GradTape() as tape:
                h = softmax(matmul(s_const, store["w"]))
                loss = sum_all(mul(h, h)) + sum_all(exp(store["v"]))
                tape.backward(loss)
            return store.grad("w").tobytes(), store.grad("v").tobytes()

        s_const = Tensor(np.random.default_rng(12).normal(size=(3, 4)))
        assert run() == run()

    def test_shared_vjp_array_is_not_accumulated_in_place(self):
        # add's vjp hands one array to both inputs: an in-place sum into w's
        # gradient would also change the gradient flowing on to exp(v)
        store = ParamStore({"w": [0.5, -1.0], "v": [0.3, 1.2]})
        w, v = store["w"], store["v"]
        with GradTape() as tape:
            t = exp(v)
            u = mul(w, 2.0)
            tape.backward(sum_all(add(add(w, t), u)))
        np.testing.assert_array_equal(store.grad("w"), [3.0, 3.0])
        np.testing.assert_array_equal(store.grad("v"), np.exp(v.data))

    def test_inner_tape_leaves_outer_products_alone(self):
        store = ParamStore({"w": [1.0, -2.0]})
        w = store["w"]
        with GradTape() as outer:
            t = mul(w, 2.0)
            with GradTape() as inner:
                inner.backward(sum_all(mul(t, 3.0)))
            assert store["w"].grad is None and t.grad is None
            outer.backward(sum_all(t))
        np.testing.assert_array_equal(store.grad("w"), [2.0, 2.0])

    def test_no_product_holds_a_gradient_after_backward(self):
        store = ParamStore({"w": np.arange(6.0).reshape(2, 3), "b": [0.1, 0.2, 0.3]})
        w, b = store["w"], store["b"]
        with GradTape() as tape:
            loss = sum_all(mul(relu(add(w, b)), sub(w, 1.0)))
            tape.backward(loss)
        assert all(out.grad is None for out, _, _ in tape._records)
        assert store["w"].grad is not None and store["b"].grad is not None

    def test_dropped_tape_is_freed_while_its_loss_lives(self):
        store = ParamStore({"w": [1.0, 2.0]})
        w = store["w"]
        gc.disable()
        try:
            with GradTape() as tape:
                loss = sum_all(mul(w, w))
                tape.backward(loss)
            ref = weakref.ref(tape)
            del tape
            assert ref() is None
            assert loss.item() == 5.0
        finally:
            gc.enable()


class TestPerPrimitiveGradients:
    """Central-difference checks at relative 1e-6 on small random tensors."""

    CASES = {
        "matmul_22": ({"a": (3, 4), "b": (4, 2)}, lambda s: sum_all(matmul(s["a"], s["b"]))),
        "transpose": ({"a": (3, 4)}, lambda s: sum_all(mul(transpose(s["a"]), transpose(s["a"])))),
        "add_same": ({"a": (3, 4), "b": (3, 4)}, lambda s: sum_all(mul(add(s["a"], s["b"]), s["a"]))),
        "add_bias": ({"a": (3, 4), "b": (4,)}, lambda s: sum_all(mul(add(s["a"], s["b"]), s["a"]))),
        "add_scalar": ({"a": (3, 4)}, lambda s: sum_all(mul(add(s["a"], 1.5), s["a"]))),
        "sub_same": ({"a": (3, 4), "b": (3, 4)}, lambda s: sum_all(mul(sub(s["a"], s["b"]), s["a"]))),
        "sub_bias": ({"a": (3, 4), "b": (4,)}, lambda s: sum_all(mul(sub(s["a"], s["b"]), s["a"]))),
        "mul_same": ({"a": (3, 4), "b": (3, 4)}, lambda s: sum_all(mul(s["a"], s["b"]))),
        "mul_bias": ({"a": (3, 4), "b": (4,)}, lambda s: sum_all(mul(s["a"], s["b"]))),
        "mul_scalar": ({"a": (3, 4)}, lambda s: sum_all(mul(s["a"], -2.5))),
        "div_same": ({"a": (3, 4)}, lambda s: sum_all(div(s["a"], exp(s["a"])))),
        "div_scalar": ({"a": (3, 4)}, lambda s: sum_all(div(s["a"], 3.0))),
        "relu": ({"a": (3, 4)}, lambda s: sum_all(mul(relu(s["a"]), s["a"]))),
        "softmax": ({"a": (3, 4)}, lambda s: sum_all(mul(softmax(s["a"]), s["a"]))),
        "log_softmax": ({"a": (3, 4)}, lambda s: sum_all(mul(log_softmax(s["a"]), s["a"]))),
        "log": ({"a": (3, 4)}, lambda s: sum_all(log(exp(s["a"])))),
        "exp": ({"a": (3, 4)}, lambda s: sum_all(exp(s["a"]))),
        "softplus": ({"a": (3, 4)}, lambda s: sum_all(mul(softplus(s["a"]), s["a"]))),
        "mean_all": ({"a": (3, 4)}, lambda s: mean_all(mul(s["a"], s["a"]))),
        "concat0": ({"a": (2, 3), "b": (4, 3)},
                    lambda s: sum_all(mul(concat([s["a"], s["b"]], 0), concat([s["a"], s["b"]], 0)))),
        "concat1": ({"a": (3, 2), "b": (3, 4)},
                    lambda s: sum_all(mul(concat([s["a"], s["b"]], 1), concat([s["a"], s["b"]], 1)))),
        "masked_fill": ({"a": (3, 4)},
                        lambda s: sum_all(softmax(masked_fill(
                            s["a"], np.triu(np.ones((3, 4), bool), 1), -1e30)))),
        "take_rows": ({"a": (5, 3)},
                      lambda s: sum_all(mul(take_rows(s["a"], [0, 2, 2, 4]),
                                            take_rows(s["a"], [0, 2, 2, 4])))),
        "take_cols": ({"a": (3, 5)},
                      lambda s: sum_all(mul(take_cols(s["a"], [1, 1, 4]),
                                            take_cols(s["a"], [1, 1, 4])))),
        "slice_cols": ({"a": (3, 6)},
                       lambda s: sum_all(mul(slice_cols(s["a"], 1, 4), slice_cols(s["a"], 1, 4)))),
        "pick": ({"a": (4, 3)},
                 lambda s: sum_all(mul(pick(s["a"], [0, 1, 1], [2, 0, 0]),
                                       pick(s["a"], [0, 1, 1], [2, 0, 0])))),
        "cumsum": ({"a": (5, 3)}, lambda s: sum_all(mul(cumsum(s["a"], Segments(5)), s["a"]))),
        "prefix_max": ({"a": (6, 3)},
                       lambda s: sum_all(mul(shifted_prefix_max(s["a"], Segments(6)),
                                             s["a"]))),
        "prefix_max_1d": ({"a": (7,)},
                          lambda s: sum_all(mul(shifted_prefix_max(s["a"], Segments(7)),
                                                s["a"]))),
        "cumsum_segments": ({"a": (6, 3)},
                            lambda s: sum_all(mul(cumsum(s["a"], Segments(6, [2, 1, 3])),
                                                  s["a"]))),
        "prefix_max_segments": ({"a": (7, 2)},
                                lambda s: sum_all(mul(shifted_prefix_max(
                                    s["a"], Segments(7, [3, 1, 3])), s["a"]))),
        "segment_sum": ({"a": (5, 3)},
                        lambda s: sum_all(mul(segment_sum(s["a"], Segments(5, [2, 0, 3])),
                                              segment_sum(s["a"], Segments(5, [2, 0, 3]))))),
        "segment_sum_1d": ({"a": (5,)},
                           lambda s: sum_all(mul(segment_sum(s["a"], Segments(5, [1, 4])),
                                                 segment_sum(s["a"], Segments(5, [1, 4]))))),
        "causal_attention_1head": (
            {"q": (6, 4), "k": (6, 4), "v": (6, 4)},
            lambda s: sum_all(mul(causal_attention(s["q"], s["k"], s["v"],
                                                   Segments(6, [1, 3, 2]), 1),
                                  ATTN_WEIGHTS))),
        "causal_attention_2heads": (
            {"q": (6, 4), "k": (6, 4), "v": (6, 4)},
            lambda s: sum_all(mul(causal_attention(s["q"], s["k"], s["v"],
                                                   Segments(6, [4, 1, 1]), 2),
                                  ATTN_WEIGHTS))),
        "attend_1head": (
            {"q": (2, 4), "k": (5, 4), "v": (5, 4)},
            lambda s: sum_all(mul(attend(s["q"], s["k"], s["v"], 1), ATTEND_WEIGHTS))),
        "attend_2heads": (
            {"q": (2, 4), "k": (5, 4), "v": (5, 4)},
            lambda s: sum_all(mul(attend(s["q"], s["k"], s["v"], 2), ATTEND_WEIGHTS))),
        "layer_norm": ({"x": (4, 6), "g": (6,), "b": (6,)},
                       lambda s: sum_all(mul(layer_norm(s["x"], s["g"], s["b"]),
                                             layer_norm(s["x"], s["g"], s["b"])))),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_gradient_matches_central_differences(self, case):
        shapes, build = self.CASES[case]
        for seed in (101, 202, 303):
            store = make_store(shapes, seed)
            report = finite_difference_check(build, store)
            assert report.max_rel_err < 1e-6, (case, seed, report.max_rel_err)


class TestPrefixMaxTies:
    """The backward rule routes each row's gradient to the first row that
    attains the running max. Finite differences cannot see which of several
    tied rows receives it, so compare with a per-row loop instead."""

    @staticmethod
    def loop_grad(a, g):
        n, m = a.shape
        z = np.zeros_like(a)
        if n > 1:
            best = np.zeros(m, dtype=np.intp)
            best_val = a[0].copy()
            cols = np.arange(m)
            for j in range(1, n):
                z[best, cols] += g[j]
                if j < n - 1:
                    better = a[j] > best_val
                    best[better] = j
                    best_val = np.maximum(best_val, a[j])
        return z

    def grad_of(self, a, g, lens=None):
        store = ParamStore({"w": a})
        w = store["w"]
        segs = Segments(len(a), lens)
        with GradTape() as tape:
            tape.backward(sum_all(mul(shifted_prefix_max(w, segs), Tensor(g))))
        return store.grad("w")

    @pytest.mark.parametrize("rank", [1, 2])
    def test_matches_loop_on_tied_integers(self, rank):
        rng = np.random.default_rng(31 + rank)
        for _ in range(200):
            n = int(rng.integers(1, 12))
            m = int(rng.integers(1, 4)) if rank == 2 else 1
            a = rng.integers(-2, 3, size=(n, m)).astype(np.float64)
            g = rng.normal(size=(n, m))
            want = self.loop_grad(a, g)
            if rank == 1:
                a, g, want = a[:, 0], g[:, 0], want[:, 0]
            np.testing.assert_array_equal(self.grad_of(a, g), want)

    def test_ties_go_to_first_row(self):
        got = self.grad_of(np.array([1.0, 1.0, 0.0, 1.0, 2.0]), np.ones(5))
        np.testing.assert_array_equal(got, [4.0, 0.0, 0.0, 0.0, 0.0])

    def test_segments_restart_ties_on_tied_integers(self):
        # each segment routes its own gradient as if it stood alone; a tie
        # across a boundary must not pull gradient into the earlier segment
        rng = np.random.default_rng(35)
        for _ in range(100):
            lens = rng.integers(1, 6, size=int(rng.integers(1, 5)))
            a = rng.integers(-2, 3, size=(int(lens.sum()), 2)).astype(np.float64)
            g = rng.normal(size=a.shape)
            ends = np.cumsum(lens)
            want = np.concatenate([self.loop_grad(a[e - n:e], g[e - n:e])
                                   for n, e in zip(lens, ends)])
            np.testing.assert_array_equal(self.grad_of(a, g, lens), want)

    def test_segment_ties_go_to_first_row_of_their_segment(self):
        got = self.grad_of(np.array([1.0, 1.0, 1.0, 1.0, 0.0]), np.ones(5), [2, 3])
        np.testing.assert_array_equal(got, [1.0, 0.0, 2.0, 0.0, 0.0])


def grad_of(op, data, g):
    """a.grad after backward of sum(op(a) * g): op's vjp applied to g as is."""
    a = Tensor(data, requires_grad=True)
    with GradTape() as tape:
        tape.backward(sum_all(mul(op(a), Tensor(g))))
    return a.grad


def awkward(rng, shape):
    """Values whose sums depend on their order, with some -0.0 entries."""
    x = rng.normal(size=shape) * 10.0 ** rng.integers(-8, 9, size=shape)
    x[rng.random(shape) < 0.2] = -0.0
    return x


def add_at_prefix_max_grad(a, segs, g):
    """The np.add.at backward rule of shifted_prefix_max, kept as the reference."""
    ad = a if a.ndim == 2 else a[:, None]
    p = segs.pad(ad)
    b, n, m = p.shape
    run = np.maximum.accumulate(p, axis=1)
    gp = segs.pad(g if g.ndim == 2 else g[:, None])
    z = np.zeros_like(p)
    if n > 1:
        new_max = np.ones((b, n - 1, m), dtype=bool)
        new_max[:, 1:] = p[:, 1:-1] > run[:, :-2]
        first = np.maximum.accumulate(np.where(new_max, np.arange(n - 1)[:, None], 0), axis=1)
        np.add.at(z, (np.arange(b)[:, None, None], first, np.arange(m)), gp[:, 1:])
    z = segs.unpad(z)
    return z if a.ndim == 2 else z[:, 0]


class TestScatterBackward:
    """The index ops scatter their gradients with one bincount; each must
    equal np.add.at on zeros bit for bit, sign of zero included."""

    @pytest.mark.parametrize("seed", range(8))
    def test_take_rows_equals_add_at(self, seed):
        rng = np.random.default_rng(300 + seed)
        for shape in ((7,), (7, 5)):
            idx = rng.integers(0, 7, size=int(rng.integers(0, 40)))
            g = awkward(rng, (idx.size,) + shape[1:])
            want = np.zeros(shape)
            np.add.at(want, idx, g)
            got = grad_of(lambda a: take_rows(a, idx), rng.normal(size=shape), g)
            assert got.dtype == np.float64 and got.shape == shape
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("seed", range(8))
    def test_pick_equals_add_at(self, seed):
        rng = np.random.default_rng(310 + seed)
        count = int(rng.integers(0, 60))
        rows, cols = rng.integers(0, 4, size=count), rng.integers(0, 3, size=count)
        g = awkward(rng, (count,))
        want = np.zeros((4, 3))
        np.add.at(want, (rows, cols), g)
        got = grad_of(lambda a: pick(a, rows, cols), rng.normal(size=(4, 3)), g)
        assert got.dtype == np.float64 and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("rank", [1, 2])
    def test_shifted_prefix_max_equals_add_at(self, seed, rank):
        rng = np.random.default_rng(320 + seed)
        lens = rng.integers(0, 9, size=int(rng.integers(1, 6))).tolist()
        segs = Segments(sum(lens), lens)
        shape = (segs.n,) if rank == 1 else (segs.n, 3)
        a = rng.integers(0, 3, size=shape).astype(float)  # plenty of ties
        g = awkward(rng, shape)
        got = grad_of(lambda t: shifted_prefix_max(t, segs), a, g)
        assert got.tobytes() == add_at_prefix_max_grad(a, segs, g).tobytes()


class TestSegments:
    """Segmented scans restart at every boundary and match per-segment runs."""

    LENS = [3, 1, 4, 2]
    SEGS = Segments(10, LENS)

    def rows(self, seed, cols=3):
        return np.random.default_rng(seed).normal(size=(sum(self.LENS), cols))

    def per_segment(self, a):
        ends = np.cumsum(self.LENS)
        return [a[e - n:e] for n, e in zip(self.LENS, ends)]

    def test_cumsum_restarts_per_segment(self):
        a = self.rows(40)
        want = np.concatenate([np.cumsum(part, axis=0) for part in self.per_segment(a)])
        np.testing.assert_array_equal(cumsum(Tensor(a), self.SEGS).data, want)

    def test_prefix_max_restarts_per_segment(self):
        a = self.rows(41)
        want = np.concatenate([shifted_prefix_max(Tensor(part), Segments(len(part))).data
                               for part in self.per_segment(a)])
        np.testing.assert_array_equal(shifted_prefix_max(Tensor(a), self.SEGS).data, want)

    def test_one_segment_is_the_default(self):
        a = self.rows(42)
        n = a.shape[0]
        np.testing.assert_array_equal(cumsum(Tensor(a), Segments(n, [n])).data,
                                      cumsum(Tensor(a), Segments(n)).data)
        np.testing.assert_array_equal(shifted_prefix_max(Tensor(a), Segments(n, [n])).data,
                                      shifted_prefix_max(Tensor(a), Segments(n)).data)

    def test_segment_sum_against_loop(self):
        a = self.rows(43)
        want = [part.sum() for part in self.per_segment(a)]
        np.testing.assert_allclose(segment_sum(Tensor(a), self.SEGS).data, want,
                                   rtol=0, atol=1e-12)

    def test_empty_segment_sums_to_zero(self):
        out = segment_sum(Tensor([1.0, 2.0, 3.0]), Segments(3, [0, 2, 0, 1, 0])).data
        np.testing.assert_array_equal(out, [0.0, 3.0, 0.0, 3.0, 0.0])

    def test_lengths_must_tile_rows(self):
        with pytest.raises(ShapeError):
            Segments(5, [2, 2])
        with pytest.raises(ShapeError):
            Segments(2, [3, -1])
        with pytest.raises(ShapeError):
            Segments(2, [])
        with pytest.raises(ShapeError):
            Segments(2, [[2]])
        with pytest.raises(ShapeError):
            segment_sum(Tensor(np.ones(3)), Segments(2, [1, 1]))
        with pytest.raises(ShapeError):
            cumsum(Tensor(np.ones((4, 2))), Segments(3, [1, 2]))
        x = Tensor(np.ones((3, 4)))
        with pytest.raises(ShapeError):
            causal_attention(x, x, x, Segments(2, [1, 1]), 2)
        with pytest.raises(ShapeError):
            causal_attention(x, x, x, Segments(3), 3)

    def test_layout_exposes_rows(self):
        segs = Segments(7, [3, 0, 4])
        np.testing.assert_array_equal(segs.seg, [0, 0, 0, 2, 2, 2, 2])
        np.testing.assert_array_equal(segs.pos, [0, 1, 2, 0, 1, 2, 3])
        np.testing.assert_array_equal(segs.starts, [0, 3, 3])
        np.testing.assert_array_equal(segs.last[[0, 2]], [2, 6])
        assert (segs.n, segs.count, segs.width) == (7, 3, 4)


class TestLayoutCheck:
    """An op handed a layout for another row count refuses it, whether the
    layout has fewer or more rows, one segment or several."""

    LAYOUTS = [Segments(4), Segments(6), Segments(4, [1, 3]), Segments(6, [2, 2, 2]),
               Segments(136, [1, 2, 9, 60, 64])]

    @pytest.mark.parametrize("segs", LAYOUTS, ids=lambda s: str(s.lens.tolist()))
    def test_ops_refuse_a_layout_for_other_rows(self, segs):
        x = Tensor(np.ones((5, 4)))
        for op in (lambda: cumsum(x, segs),
                   lambda: shifted_prefix_max(x, segs),
                   lambda: segment_sum(x, segs),
                   lambda: causal_attention(x, x, x, segs, 2)):
            with pytest.raises(ShapeError, match="layout of"):
                op()


def naive_attention(q, k, v, lens, heads):
    """Causal attention of each sequence on its own, by plain numpy loops."""
    n, d = q.shape
    dh = d // heads
    out = np.zeros((n, d))
    for start, length in zip(np.cumsum(lens) - lens, lens):
        for h in range(heads):
            cols = slice(h * dh, (h + 1) * dh)
            for i in range(length):
                keys = slice(start, start + i + 1)
                scores = k[keys, cols] @ q[start + i, cols] / np.sqrt(dh)
                e = np.exp(scores - scores.max())
                out[start + i, cols] = (e / e.sum()) @ v[keys, cols]
    return out


class TestGroups:
    """Segments.groups partitions the segments into length-sorted blocks, and
    causal_attention over them is the per-sequence attention."""

    MIXED = [9, 97, 40, 12, 60, 33, 21, 88, 9, 15, 70, 44, 50, 13, 27, 95]

    @staticmethod
    def cost(sizes, cuts):
        return sum((b - a) * sizes[b - 1] ** 2 + numerics.BLOCK_COST
                   for a, b in zip(cuts, cuts[1:]))

    @pytest.mark.parametrize("seed", range(6))
    def test_blocks_partition_the_segments_by_length(self, seed):
        rng = np.random.default_rng(seed)
        lens = rng.integers(0, 98, size=int(rng.integers(2, 33))).tolist()
        segs = Segments(sum(lens), lens)
        rows = []
        for block_rows, sub in segs.groups:
            block = np.arange(segs.n)[block_rows]
            # each row keeps its position, in a segment of its own length
            np.testing.assert_array_equal(segs.pos[block], sub.pos)
            np.testing.assert_array_equal(segs.lens[segs.seg[block]], sub.lens[sub.seg])
            rows.extend(block.tolist())
        assert sorted(rows) == list(range(segs.n))
        members = [sub.lens.tolist() for _, sub in segs.groups]
        assert sorted(x for m in members for x in m) == sorted(lens)
        assert all(max(a) <= min(b) for a, b in zip(members, members[1:]))

    def test_equal_lengths_and_a_lone_segment_are_one_block(self):
        for segs in (Segments(7), Segments(12, [4, 4, 4]), Segments(97 * 32, [97] * 32)):
            assert len(segs.groups) == 1
            rows, sub = segs.groups[0]
            assert rows == slice(None) and sub is segs

    def test_mixed_lengths_split_and_are_worked_out_once(self):
        segs = Segments(sum(self.MIXED), self.MIXED)
        assert len(segs.groups) >= 2
        assert segs.groups is segs.groups

    @pytest.mark.parametrize("seed", range(40))
    def test_partition_has_least_cost(self, seed):
        rng = np.random.default_rng(seed)
        sizes = sorted(rng.integers(0, 100, size=int(rng.integers(1, 9))).tolist())
        k = len(sizes)
        least = min(self.cost(sizes, [0, *inner, k]) for r in range(k)
                    for inner in itertools.combinations(range(1, k), r))
        assert self.cost(sizes, numerics._length_cuts(sizes)) == least

    def test_one_block_shortcut_agrees_with_the_search(self):
        # groups skips the search when one block costs less than any split
        # could; on either side of that bound its blocks are the search's
        rng = np.random.default_rng(67)
        shortcut = 0
        for _ in range(200):
            count = int(rng.integers(1, 40))
            top = int(rng.integers(1, 100))
            lo = top - int(rng.integers(0, top + 1))
            lens = rng.integers(lo, top + 1, size=count)
            lens[rng.random(count) < 0.1] = 0
            lens = lens.tolist()
            sizes = sorted(lens)
            empty = sizes.count(0)
            cuts = [0, *(empty + c for c in numerics._length_cuts(sizes[empty:])[1:])]
            want = [sizes] if len(cuts) <= 2 else [sizes[a:b] for a, b in zip(cuts, cuts[1:])]
            segs = Segments(sum(lens), lens)
            got = [sorted(sub.lens.tolist()) for _, sub in segs.groups]
            assert got == want, lens
            if count * max(lens) ** 2 < sum(x * x for x in lens) + numerics.BLOCK_COST:
                shortcut += 1
                assert len(want) == 1 and segs.groups[0][1] is segs
        assert 40 <= shortcut <= 160

    @pytest.mark.parametrize("heads", [1, 2])
    def test_attention_over_blocks_is_per_sequence_attention(self, heads):
        rng = np.random.default_rng(61 + heads)
        segs = Segments(sum(self.MIXED), self.MIXED)
        q, k, v = (rng.normal(size=(segs.n, 8)) for _ in range(3))
        got = causal_attention(Tensor(q), Tensor(k), Tensor(v), segs, heads).data
        np.testing.assert_allclose(got, naive_attention(q, k, v, self.MIXED, heads),
                                   rtol=0, atol=1e-12)

    def test_segments_without_rows_join_a_block(self):
        # on their own, the two empty segments would be cheaper as a block
        # of width 0 than padded to 90
        lens = [0, 97, 90, 0]
        segs = Segments(187, lens)
        assert all(sub.width > 0 for _, sub in segs.groups)
        rng = np.random.default_rng(64)
        q, k, v = (rng.normal(size=(187, 4)) for _ in range(3))
        got = causal_attention(Tensor(q), Tensor(k), Tensor(v), segs, 2).data
        np.testing.assert_allclose(got, naive_attention(q, k, v, lens, 2), rtol=0, atol=1e-12)

    def test_masked_and_padding_weights_are_exactly_zero_in_every_block(self):
        # one-hot values make each output row the row's attention weights;
        # future rows, rows of other sequences and padding get exactly zero
        lens = [1, 2, 9, 60, 64, 5]
        segs = Segments(sum(lens), lens)
        assert len(segs.groups) >= 2
        n = segs.n
        rng = np.random.default_rng(62)
        q, k = Tensor(rng.normal(size=(n, n)) * 5.0), Tensor(rng.normal(size=(n, n)) * 5.0)
        weights = causal_attention(q, k, Tensor(np.eye(n)), segs, 1).data
        visible = (segs.seg[:, None] == segs.seg[None, :]) \
            & (segs.pos[None, :] <= segs.pos[:, None])
        assert np.all(weights[~visible] == 0.0)
        assert np.all(weights[visible] > 0.0)
        np.testing.assert_allclose(weights.sum(axis=1), 1.0, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("heads", [1, 2])
    def test_gradient_across_blocks_matches_central_differences(self, heads, monkeypatch):
        # a free block cost gives every distinct length its own block
        monkeypatch.setattr(numerics, "BLOCK_COST", 0)
        lens = [1, 2, 9, 30, 31]
        segs = Segments(73, lens)
        assert len(segs.groups) == 5
        weights = Tensor(np.random.default_rng(63).normal(size=(73, 4)))
        for seed in (101, 202):
            store = make_store({"q": (73, 4), "k": (73, 4), "v": (73, 4)}, seed)
            report = finite_difference_check(
                lambda s: sum_all(mul(causal_attention(s["q"], s["k"], s["v"],
                                                       Segments(73, lens), heads), weights)),
                store)
            assert report.max_rel_err < 1e-6, (heads, seed, report.max_rel_err)


class TestErrorContracts:
    def test_matmul_shape_error_names_both_shapes(self):
        with pytest.raises(ShapeError) as err:
            matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 2))))
        assert "(2, 3)" in str(err.value) and "(4, 2)" in str(err.value)

    def test_matmul_rejects_rank_1_operands(self):
        with pytest.raises(ShapeError, match="ranks"):
            matmul(Tensor(np.ones((2, 3))), Tensor(np.ones(3)))

    def test_add_shape_error(self):
        with pytest.raises(ShapeError):
            add(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 2))))

    def test_log_domain_error(self):
        with pytest.raises(NumericError, match="log"):
            log(Tensor([1.0, -1.0]))

    def test_div_by_zero(self):
        with pytest.raises(NumericError):
            div(Tensor([1.0]), Tensor([0.0]))

    def test_non_finite_output_names_op(self):
        with pytest.raises(NumericError, match="exp"):
            exp(Tensor([1e308]))

    def test_backward_rejects_non_scalar_loss(self):
        store = ParamStore({"w": [1.0, 2.0]})
        w = store["w"]
        with GradTape() as tape:
            out = mul(w, 2.0)
            with pytest.raises(ShapeError):
                tape.backward(out)

    def test_backward_rejects_foreign_loss(self):
        with GradTape() as tape:
            with pytest.raises(ValueError):
                tape.backward(Tensor(1.0))

    def test_masked_fill_mask_shape(self):
        with pytest.raises(ShapeError):
            masked_fill(Tensor(np.ones((2, 2))), np.ones((3, 2), bool), 0.0)

    def test_take_rows_out_of_range(self):
        with pytest.raises(ShapeError):
            take_rows(Tensor(np.ones((2, 2))), [0, 5])


class TestMaskedGradientFlow:
    def test_no_gradient_through_masked_entries(self):
        store = ParamStore({"w": np.ones((3, 3))})
        w = store["w"]
        mask = np.triu(np.ones((3, 3), bool), 1)
        with GradTape() as tape:
            tape.backward(sum_all(masked_fill(w, mask, -1e30)))
        expected = np.tril(np.ones((3, 3)))
        np.testing.assert_array_equal(store.grad("w"), expected)

    def test_masked_softmax_attention_rows_are_exactly_causal(self):
        rng = np.random.default_rng(9)
        scores = rng.normal(size=(4, 4))
        mask = np.triu(np.ones((4, 4), bool), 1)
        probs = softmax(masked_fill(Tensor(scores), mask, -1e30)).data
        assert (probs[mask] == 0.0).all()
        np.testing.assert_allclose(probs.sum(axis=1), np.ones(4), rtol=0, atol=1e-12)


class TestLayerNorm:
    def test_unit_gain_zero_bias_rows_have_zero_mean_unit_variance(self):
        rng = np.random.default_rng(21)
        x = rng.normal(size=(10, 16))
        out = layer_norm(Tensor(x), Tensor(np.ones(16)), Tensor(np.zeros(16))).data
        assert np.abs(out.mean(axis=1)).max() < 1e-10
        assert np.abs(out.var(axis=1) - 1.0).max() < 1e-6

    @staticmethod
    def mean_based(x, gain, bias, g, eps=1e-8):
        """The ndarray.mean formulation: output and the three gradients."""
        mu = x.mean(axis=1, keepdims=True)
        xc = x - mu
        inv = 1.0 / np.sqrt((xc * xc).mean(axis=1, keepdims=True) + eps)
        xhat = xc * inv
        gxhat = g * gain[None, :]
        gx = inv * (gxhat - gxhat.mean(axis=1, keepdims=True)
                    - xhat * (gxhat * xhat).mean(axis=1, keepdims=True))
        return xhat * gain[None, :] + bias[None, :], gx, (g * xhat).sum(axis=0), g.sum(axis=0)

    def test_bytes_equal_the_mean_based_formula(self):
        rng = np.random.default_rng(22)
        for _ in range(200):
            rows, d = int(rng.integers(1, 40)), int(rng.integers(1, 24))
            x = rng.normal(size=(rows, d)) * rng.uniform(0.01, 100.0)
            gain, bias = rng.normal(size=d), rng.normal(size=d)
            g = rng.normal(size=(rows, d))
            store = ParamStore({"x": x, "gain": gain, "bias": bias})
            with GradTape() as tape:
                out = layer_norm(store["x"], store["gain"], store["bias"])
                tape.backward(sum_all(mul(out, Tensor(g))))
            want = self.mean_based(x, gain, bias, g)
            got = (out.data, store.grad("x"), store.grad("gain"), store.grad("bias"))
            assert [a.tobytes() for a in got] == [b.tobytes() for b in want]


class TestParamStore:
    def test_duplicate_name_rejected(self):
        with pytest.raises(ValueError, match="already present"):
            ParamStore([("w", [1.0]), ("w", [2.0])])

    def test_iteration_sorted_by_name(self):
        store = ParamStore((name, [0.0]) for name in ("zeta", "alpha", "mid"))
        assert store.names() == ["alpha", "mid", "zeta"]

    def test_round_trip_is_bit_exact(self):
        # names, shapes and the encoded flat vector as JSON, the form a
        # checkpoint saves, read back as load_checkpoint builds its store
        store = make_store({"w": (3, 4), "b": (4,), "scalar": ()}, seed=5)
        names, shapes, text = json.loads(json.dumps(
            [store.names(), [t.data.shape for t in store.tensors], encode_vector(store.flat)]))
        again = ParamStore.from_flat(names, shapes, decode_vector(text))
        assert again.names() == store.names()
        assert again.flat.tobytes() == store.flat.tobytes()
        for name, t in store.items():
            assert again[name].data.tobytes() == t.data.tobytes()
            assert again[name].data.shape == t.data.shape
            assert again[name].data.base is again.flat

    def test_from_flat_refuses_a_layout_that_does_not_fit(self):
        flat = np.arange(5.0)
        store = ParamStore.from_flat(["a", "b"], [(2,), (3,)], flat)
        assert store.flat is flat and store["b"].data.base is flat
        for names, shapes, vector in ((["b", "a"], [(2,), (3,)], flat),
                                      (["a", "a"], [(2,), (3,)], flat),
                                      (["a"], [(2,), (3,)], flat),
                                      (["a", "b"], [(2,), (2,)], flat),
                                      (["a", "b"], [(2,), (3,)], np.arange(5))):
            with pytest.raises(ValueError):
                ParamStore.from_flat(names, shapes, vector)

    def test_flat_vector_is_shared_both_ways(self):
        rng = np.random.default_rng(8)
        arrays = {"w": rng.normal(size=(3, 4)), "b": rng.normal(size=4), "scalar": rng.normal()}
        store = ParamStore(arrays)
        flat = store.flat
        assert flat.tobytes() == np.concatenate(
            [arrays[name] for name in sorted(arrays)], axis=None).tobytes()
        for (name, t), at in zip(store.items(), store.slices):
            assert t.data.shape == np.shape(arrays[name]) and t.data.base is flat
            assert flat[at].tobytes() == np.ravel(arrays[name]).tobytes()
        flat[store.slices[2]][5] = 7.25  # "w" is last in name order
        assert store["w"].data[1, 1] == 7.25
        store["b"].data[2] = -3.5
        assert flat[2] == -3.5
        arrays["b"][0] = 99.0  # the store holds a copy
        assert flat[0] != 99.0
        assert store.tensors == tuple(t for _, t in store.items())

    def test_split_gives_one_view_per_parameter(self):
        store = make_store({"w": (2, 3), "b": (4,)}, seed=9)
        vector = np.arange(store.flat.size, dtype=np.float64)
        parts = store.split(vector)
        assert [p.shape for p in parts] == [(4,), (2, 3)]
        assert all(np.shares_memory(p, vector) for p in parts)
        np.testing.assert_array_equal(parts[1], [[4.0, 5.0, 6.0], [7.0, 8.0, 9.0]])

    def test_flat_grad_reads_zeros_for_unreached_parameters(self):
        store = make_store({"u": (2,), "w": (2, 2)}, seed=11)
        with GradTape() as tape:
            tape.backward(sum_all(mul(store["w"], 3.0)))
        np.testing.assert_array_equal(store.flat_grad(), [0.0, 0.0, 3.0, 3.0, 3.0, 3.0])


class TestFiniteDifferenceCheck:
    def test_quadratic_is_exact_to_roundoff(self):
        store = make_store({"w": (4,), "v": (2, 3)}, seed=6)

        def f(s):
            return add(sum_all(mul(s["w"], s["w"])), sum_all(mul(s["v"], s["v"])))

        report = finite_difference_check(f, store)
        assert report.max_rel_err < 1e-8
        assert set(report.per_param) == {"w", "v"}

    def test_passes_through_the_flat_vector_views(self):
        store = make_store({"w": (4,), "v": (2, 3)}, seed=12)
        flat = store.flat

        def f(s):
            return add(sum_all(exp(s["w"])), sum_all(mul(s["v"], s["v"])))

        report = finite_difference_check(f, store)
        assert report.max_rel_err < 1e-7
        assert store.flat is flat and np.shares_memory(store["v"].data, flat)

    def test_empty_store_gives_empty_report(self):
        report = finite_difference_check(lambda s: sum_all(Tensor([1.0, 2.0])), ParamStore())
        assert report.empty
        assert report.max_rel_err == 0.0

    def test_rejects_bad_step(self):
        with pytest.raises(ValueError):
            finite_difference_check(lambda s: sum_all(Tensor([1.0])), ParamStore(), h=0.0)


class TestAttend:
    """attend: every query row over every key row, as cached decoding uses it."""

    @pytest.mark.parametrize("heads", [1, 2])
    def test_one_row_over_its_prefix_is_that_causal_row(self, heads):
        rng = np.random.default_rng(90 + heads)
        q, k, v = (rng.normal(size=(9, 8)) for _ in range(3))
        full = causal_attention(Tensor(q), Tensor(k), Tensor(v), Segments(9), heads).data
        for i in range(9):
            row = attend(Tensor(q[i:i + 1]), Tensor(k[:i + 1]), Tensor(v[:i + 1]), heads).data
            np.testing.assert_allclose(row[0], full[i], rtol=0, atol=1e-12)

    def test_several_queries_see_every_key(self):
        rng = np.random.default_rng(93)
        q, k, v = rng.normal(size=(3, 4)), rng.normal(size=(5, 4)), rng.normal(size=(5, 4))
        got = attend(Tensor(q), Tensor(k), Tensor(v), 2).data
        for i in range(3):
            for h in (slice(0, 2), slice(2, 4)):
                scores = k[:, h] @ q[i, h] / np.sqrt(2)
                e = np.exp(scores - scores.max())
                np.testing.assert_allclose(got[i, h], (e / e.sum()) @ v[:, h],
                                           rtol=0, atol=1e-12)

    def test_shape_errors(self):
        x, y = Tensor(np.ones((1, 4))), Tensor(np.ones((3, 4)))
        with pytest.raises(ShapeError):
            attend(x, y, Tensor(np.ones((2, 4))), 2)
        with pytest.raises(ShapeError):
            attend(Tensor(np.ones((1, 3))), y, y, 1)
        with pytest.raises(ShapeError):
            attend(Tensor(np.ones(4)), y, y, 1)
        with pytest.raises(ShapeError):
            attend(x, y, y, 3)

    def test_non_finite_is_numeric_error(self):
        y = Tensor(np.ones((3, 4)))
        with pytest.raises(NumericError, match="attend"):
            attend(Tensor(np.full((1, 4), np.nan)), y, y, 2)
