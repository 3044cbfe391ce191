"""Tests for the tensor primitives, the gradient tape, and the FD oracle.

The column gathers, transpose, masked softmax and concatenation that the
per-sequence oracle in reference.py rebuilds from the remaining primitives
are checked here as well, since the packed batch path is judged against it.
"""

import json

import numpy as np
import pytest

from actionflow.numerics import (
    FdReport,
    GradTape,
    NumericError,
    ParamStore,
    Segments,
    ShapeError,
    Tensor,
    add,
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


def make_store(shapes, seed):
    store = ParamStore()
    rng = np.random.default_rng(seed)
    for name, shape in shapes.items():
        store.add(name, rng.normal(size=shape))
    return store


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
        out = shifted_prefix_max(Tensor(a)).data
        for j in range(6):
            for c in range(3):
                want = 0.0 if j == 0 else a[:j, c].max()
                assert out[j, c] == want

    def test_cumsum_against_loop(self):
        a = np.arange(12.0).reshape(4, 3)
        out = cumsum(Tensor(a)).data
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
        store = ParamStore()
        w = store.add("w", np.arange(6.0).reshape(2, 3))
        with GradTape() as tape:
            tape.backward(sum_all(w))
        np.testing.assert_array_equal(store.grad("w"), np.ones((2, 3)))

    def test_quadratic_gradient(self):
        store = ParamStore()
        w = store.add("w", [1.0, 2.0])
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
        store = ParamStore()
        w = store.add("w", [1.0, 2.0])
        store.add("unused", [3.0])
        with GradTape() as tape:
            tape.backward(sum_all(w))
        np.testing.assert_array_equal(store.grad("unused"), [0.0])

    def test_gradients_accumulate_until_zeroed(self):
        store = ParamStore()
        w = store.add("w", [1.0, 2.0])
        for _ in range(3):
            with GradTape() as tape:
                tape.backward(sum_all(w))
        np.testing.assert_array_equal(store.grad("w"), [3.0, 3.0])
        store.zero_grads()
        assert store["w"].grad is None
        np.testing.assert_array_equal(store.grad("w"), [0.0, 0.0])

    def test_reflected_sub_matches_numpy(self):
        store = ParamStore()
        x = np.random.default_rng(3).normal(size=(2, 3))
        w = store.add("w", x)
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
        "cumsum": ({"a": (5, 3)}, lambda s: sum_all(mul(cumsum(s["a"]), s["a"]))),
        "prefix_max": ({"a": (6, 3)},
                       lambda s: sum_all(mul(shifted_prefix_max(s["a"]), s["a"]))),
        "prefix_max_1d": ({"a": (7,)},
                          lambda s: sum_all(mul(shifted_prefix_max(s["a"]), s["a"]))),
        "cumsum_segments": ({"a": (6, 3)},
                            lambda s: sum_all(mul(cumsum(s["a"], [2, 1, 3]), s["a"]))),
        "prefix_max_segments": ({"a": (7, 2)},
                                lambda s: sum_all(mul(shifted_prefix_max(s["a"], [3, 1, 3]),
                                                      s["a"]))),
        "segment_sum": ({"a": (5, 3)},
                        lambda s: sum_all(mul(segment_sum(s["a"], [2, 0, 3]),
                                              segment_sum(s["a"], [2, 0, 3])))),
        "segment_sum_1d": ({"a": (5,)},
                           lambda s: sum_all(mul(segment_sum(s["a"], [1, 4]),
                                                 segment_sum(s["a"], [1, 4])))),
        "causal_attention_1head": (
            {"q": (6, 4), "k": (6, 4), "v": (6, 4)},
            lambda s: sum_all(mul(causal_attention(s["q"], s["k"], s["v"], [1, 3, 2], 1),
                                  ATTN_WEIGHTS))),
        "causal_attention_2heads": (
            {"q": (6, 4), "k": (6, 4), "v": (6, 4)},
            lambda s: sum_all(mul(causal_attention(s["q"], s["k"], s["v"], [4, 1, 1], 2),
                                  ATTN_WEIGHTS))),
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
        store = ParamStore()
        w = store.add("w", a)
        with GradTape() as tape:
            tape.backward(sum_all(mul(shifted_prefix_max(w, lens), Tensor(g))))
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


class TestSegments:
    """Segmented scans restart at every boundary and match per-segment runs."""

    LENS = [3, 1, 4, 2]

    def rows(self, seed, cols=3):
        return np.random.default_rng(seed).normal(size=(sum(self.LENS), cols))

    def per_segment(self, a):
        ends = np.cumsum(self.LENS)
        return [a[e - n:e] for n, e in zip(self.LENS, ends)]

    def test_cumsum_restarts_per_segment(self):
        a = self.rows(40)
        want = np.concatenate([np.cumsum(part, axis=0) for part in self.per_segment(a)])
        np.testing.assert_array_equal(cumsum(Tensor(a), self.LENS).data, want)

    def test_prefix_max_restarts_per_segment(self):
        a = self.rows(41)
        want = np.concatenate([shifted_prefix_max(Tensor(part)).data
                               for part in self.per_segment(a)])
        np.testing.assert_array_equal(shifted_prefix_max(Tensor(a), self.LENS).data, want)

    def test_one_segment_is_the_default(self):
        a = self.rows(42)
        np.testing.assert_array_equal(cumsum(Tensor(a), [a.shape[0]]).data,
                                      cumsum(Tensor(a)).data)
        np.testing.assert_array_equal(shifted_prefix_max(Tensor(a), [a.shape[0]]).data,
                                      shifted_prefix_max(Tensor(a)).data)

    def test_segment_sum_against_loop(self):
        a = self.rows(43)
        want = [part.sum() for part in self.per_segment(a)]
        np.testing.assert_allclose(segment_sum(Tensor(a), self.LENS).data, want,
                                   rtol=0, atol=1e-12)

    def test_empty_segment_sums_to_zero(self):
        out = segment_sum(Tensor([1.0, 2.0, 3.0]), [0, 2, 0, 1, 0]).data
        np.testing.assert_array_equal(out, [0.0, 3.0, 0.0, 3.0, 0.0])

    def test_lengths_must_tile_rows(self):
        with pytest.raises(ShapeError):
            Segments(5, [2, 2])
        with pytest.raises(ShapeError):
            Segments(2, [2, 0])
        with pytest.raises(ShapeError):
            segment_sum(Tensor(np.ones(3)), [1, 1])
        with pytest.raises(ShapeError):
            cumsum(Tensor(np.ones((4, 2))), [1, 2])
        x = Tensor(np.ones((3, 4)))
        with pytest.raises(ShapeError):
            causal_attention(x, x, x, [1, 1], 2)
        with pytest.raises(ShapeError):
            causal_attention(x, x, x, [3], 3)


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
        store = ParamStore()
        w = store.add("w", [1.0, 2.0])
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
        store = ParamStore()
        w = store.add("w", np.ones((3, 3)))
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


class TestParamStore:
    def test_duplicate_name_rejected(self):
        store = ParamStore()
        store.add("w", [1.0])
        with pytest.raises(ValueError):
            store.add("w", [2.0])

    def test_iteration_sorted_by_name(self):
        store = ParamStore()
        for name in ("zeta", "alpha", "mid"):
            store.add(name, [0.0])
        assert store.names() == ["alpha", "mid", "zeta"]

    def test_round_trip_is_bit_exact(self):
        store = make_store({"w": (3, 4), "b": (4,), "scalar": ()}, seed=5)
        again = ParamStore.from_dict(json.loads(json.dumps(store.to_dict())))
        assert again.names() == store.names()
        for name, t in store.items():
            assert again[name].data.tobytes() == t.data.tobytes()
            assert again[name].data.shape == t.data.shape

    def test_version_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ParamStore.from_dict({"version": 99, "params": {}})


class TestFiniteDifferenceCheck:
    def test_quadratic_is_exact_to_roundoff(self):
        store = make_store({"w": (4,), "v": (2, 3)}, seed=6)

        def f(s):
            return add(sum_all(mul(s["w"], s["w"])), sum_all(mul(s["v"], s["v"])))

        report = finite_difference_check(f, store)
        assert report.max_rel_err < 1e-8
        assert set(report.per_param) == {"w", "v"}

    def test_empty_store_gives_empty_report(self):
        report = finite_difference_check(lambda s: sum_all(Tensor([1.0, 2.0])), ParamStore())
        assert report.empty
        assert report.max_rel_err == 0.0

    def test_rejects_bad_step(self):
        with pytest.raises(ValueError):
            finite_difference_check(lambda s: sum_all(Tensor([1.0])), ParamStore(), h=0.0)
