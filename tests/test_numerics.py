"""Tests for the tensor primitives, the gradient tape, and the FD oracle."""

import numpy as np
import pytest

from actionflow.numerics import (
    FdReport,
    GradTape,
    NumericError,
    ParamStore,
    ShapeError,
    Tensor,
    add,
    concat,
    cumsum,
    div,
    exp,
    finite_difference_check,
    layer_norm,
    log,
    log_softmax,
    masked_fill,
    matmul,
    mean_all,
    mul,
    pick,
    relu,
    reshape,
    shifted_prefix_max,
    slice_cols,
    softmax,
    softplus,
    sub,
    sum_all,
    take_cols,
    take_rows,
    transpose,
)


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
        "matmul_21": ({"a": (3, 4), "b": (4,)}, lambda s: sum_all(matmul(s["a"], s["b"]))),
        "matmul_12": ({"a": (3,), "b": (3, 2)}, lambda s: sum_all(matmul(s["a"], s["b"]))),
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
        "reshape": ({"a": (3, 4)}, lambda s: sum_all(mul(reshape(s["a"], (2, 6)),
                                                         reshape(s["a"], (2, 6))))),
        "cumsum": ({"a": (5, 3)}, lambda s: sum_all(mul(cumsum(s["a"]), s["a"]))),
        "prefix_max": ({"a": (6, 3)},
                       lambda s: sum_all(mul(shifted_prefix_max(s["a"]), s["a"]))),
        "prefix_max_1d": ({"a": (7,)},
                          lambda s: sum_all(mul(shifted_prefix_max(s["a"]), s["a"]))),
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


class TestErrorContracts:
    def test_matmul_shape_error_names_both_shapes(self):
        with pytest.raises(ShapeError) as err:
            matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 2))))
        assert "(2, 3)" in str(err.value) and "(4, 2)" in str(err.value)

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

    def test_round_trip_is_bit_exact(self, tmp_path):
        store = make_store({"w": (3, 4), "b": (4,), "scalar": ()}, seed=5)
        path = tmp_path / "params.json"
        store.save(path)
        again = ParamStore.load(path)
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
