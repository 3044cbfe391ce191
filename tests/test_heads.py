"""Tests for the mark, goal, and cluster-gated lognormal time heads."""

import math

import numpy as np
import pytest

from actionflow.heads import (
    SIGMA_FLOOR,
    TimeDensity,
    fuse,
    goal_logits,
    init_head_params,
    log_density,
    mark_logits,
    point_time,
    sample_time,
    time_params,
)
from actionflow.numerics import NumericError, ParamStore, Tensor, draw_params, log_softmax

D = 6


def make_store(m=3, n_marks=4, n_goals=2, seed=0):
    specs = init_head_params(D, m, n_marks, n_goals)
    return ParamStore(draw_params(specs, np.random.default_rng(seed)))


def rows(s):
    """History vectors as a [k, D] tensor; one vector becomes one row."""
    return Tensor(np.atleast_2d(s))


def mark_probs(store, s):
    return np.exp(log_softmax(mark_logits(store, rows(s))).data)


def goal_probs(store, s):
    return np.exp(log_softmax(goal_logits(store, rows(s))).data)


def time_row(store, s, cluster):
    """(mu, sigma2) for one history vector gated by one cluster."""
    mu, sigma2 = time_params(store, rows(s), [cluster])
    return float(mu.data[0, 0]), float(sigma2.data[0, 0])


def softmax_oracle(logits):
    e = np.exp(logits - logits.max())
    return e / e.sum()


class TestMarkHead:
    def test_single_mark_vocabulary(self):
        store = make_store(n_marks=1)
        probs = mark_probs(store, np.random.default_rng(1).normal(size=D))
        np.testing.assert_allclose(probs, [[1.0]])

    def test_zero_weights_uniform(self):
        store = make_store(n_marks=4)
        store["mark.w"].data[:] = 0.0
        store["mark.bias"].data[:] = 0.0
        probs = mark_probs(store, np.random.default_rng(2).normal(size=D))
        np.testing.assert_allclose(probs, 0.25)

    def test_scalar_softmax_oracle(self):
        store = make_store(n_marks=3, seed=3)
        s = np.random.default_rng(3).normal(size=D)
        logits = np.array([s @ store["mark.w"].data[:, c] + store["mark.bias"].data[c]
                           for c in range(3)])
        np.testing.assert_allclose(mark_probs(store, s)[0], softmax_oracle(logits),
                                   atol=1e-12)

    def test_normalization_for_arbitrary_inputs(self):
        store = make_store(seed=4)
        rng = np.random.default_rng(4)
        s = rng.normal(size=(200, D)) * rng.uniform(0.1, 50.0, size=(200, 1))
        probs = mark_probs(store, s)
        assert np.abs(probs.sum(axis=1) - 1.0).max() < 1e-9
        assert np.all(probs >= 0.0)

    def test_batch_logits_match_single(self):
        store = make_store(seed=5)
        rng = np.random.default_rng(5)
        s = rng.normal(size=(3, D))
        batch = mark_logits(store, Tensor(s)).data
        for i in range(3):
            single = mark_logits(store, Tensor(s[i:i + 1])).data[0]
            np.testing.assert_allclose(batch[i], single, atol=1e-12)
            oracle = s[i] @ store["mark.w"].data + store["mark.bias"].data
            np.testing.assert_allclose(mark_probs(store, s[i])[0], softmax_oracle(oracle),
                                       atol=1e-12)


class TestGoalHead:
    def test_single_goal(self):
        store = make_store(n_goals=1)
        probs = goal_probs(store, np.random.default_rng(6).normal(size=D))
        np.testing.assert_allclose(probs, [[1.0]])

    def test_zero_weights_uniform(self):
        store = make_store(n_goals=3)
        for name in ("goal.w_hidden", "goal.b_hidden", "goal.w_out", "goal.b_out"):
            store[name].data[:] = 0.0
        probs = goal_probs(store, np.random.default_rng(7).normal(size=D))
        np.testing.assert_allclose(probs, 1.0 / 3.0)

    def test_relu_softmax_oracle(self):
        store = make_store(n_goals=2, seed=8)
        s = np.random.default_rng(8).normal(size=D)
        hidden = np.maximum(s @ store["goal.w_hidden"].data
                            + store["goal.b_hidden"].data, 0.0)
        logits = hidden @ store["goal.w_out"].data + store["goal.b_out"].data
        np.testing.assert_allclose(goal_probs(store, s)[0], softmax_oracle(logits),
                                   atol=1e-12)

    def test_normalization(self):
        store = make_store(seed=9)
        rng = np.random.default_rng(9)
        probs = goal_probs(store, rng.normal(size=(200, D)) * 20.0)
        assert np.abs(probs.sum(axis=1) - 1.0).max() < 1e-9

    def test_batch_logits_match_single(self):
        store = make_store(seed=10)
        rng = np.random.default_rng(10)
        s = rng.normal(size=(4, D))
        batch = goal_logits(store, Tensor(s)).data
        logp = log_softmax(Tensor(batch)).data
        for i in range(4):
            single = goal_logits(store, Tensor(s[i:i + 1])).data[0]
            np.testing.assert_allclose(batch[i], single, atol=1e-12)
            hidden = np.maximum(s[i] @ store["goal.w_hidden"].data
                                + store["goal.b_hidden"].data, 0.0)
            oracle = hidden @ store["goal.w_out"].data + store["goal.b_out"].data
            np.testing.assert_allclose(np.exp(logp[i]), softmax_oracle(oracle), atol=1e-12)


class TestTimeHead:
    def test_m1_identity_gating(self):
        store = make_store(m=1, seed=11)
        s = np.random.default_rng(11).normal(size=D)
        mu, _ = time_row(store, s, 0)
        e = s * store["time.clusters"].data[0]
        expect = e @ store["time.w_mu"].data[:, 0] + store["time.b_mu"].data[0]
        assert mu == pytest.approx(expect, abs=1e-12)

    def test_raw_zero_variance_floor(self):
        store = make_store(seed=12)
        store["time.w_var"].data[:] = 0.0
        store["time.b_var"].data[:] = 0.0
        _, sigma2 = time_row(store, np.random.default_rng(12).normal(size=D), 1)
        assert sigma2 == pytest.approx(math.log(2.0) + SIGMA_FLOOR, abs=1e-12)

    def test_variance_positive_for_extreme_raw(self):
        store = make_store(seed=13)
        rng = np.random.default_rng(13)
        for scale in (1.0, 100.0, 10000.0):
            _, sigma2 = time_row(store, rng.normal(size=D) * scale, 0)
            assert sigma2 >= SIGMA_FLOOR
            assert math.isfinite(sigma2)

    def test_cluster_choice_changes_output(self):
        store = make_store(m=2, seed=14)
        s = np.random.default_rng(14).normal(size=D)
        assert time_row(store, s, 0) != time_row(store, s, 1)
        # but identical embeddings give identical parameters
        store["time.clusters"].data[1] = store["time.clusters"].data[0]
        assert time_row(store, s, 1)[0] == time_row(store, s, 0)[0]

    def test_inactive_cluster_embedding_is_ignored_exactly(self):
        store = make_store(m=3, seed=15)
        s = np.random.default_rng(15).normal(size=(2, D))
        ids = [0, 0]
        mu_a, s2_a = time_params(store, Tensor(s), ids)
        store["time.clusters"].data[2] += 99.0  # never selected
        mu_b, s2_b = time_params(store, Tensor(s), ids)
        np.testing.assert_array_equal(mu_a.data, mu_b.data)
        np.testing.assert_array_equal(s2_a.data, s2_b.data)

    def test_unknown_cluster_rejected(self):
        store = make_store(m=2)
        with pytest.raises(NumericError):
            time_params(store, Tensor(np.zeros((1, D))), [5])
        with pytest.raises(NumericError):
            time_params(store, Tensor(np.zeros((1, D))), [-1])

    def test_batch_matches_single(self):
        store = make_store(m=3, seed=16)
        rng = np.random.default_rng(16)
        s = rng.normal(size=(4, D))
        ids = [2, 0, 1, 2]
        mu, s2 = time_params(store, Tensor(s), ids)
        for i in range(4):
            single_mu, single_s2 = time_row(store, s[i], ids[i])
            assert mu.data[i, 0] == pytest.approx(single_mu, abs=1e-12)
            assert s2.data[i, 0] == pytest.approx(single_s2, abs=1e-12)
            e = s[i] * store["time.clusters"].data[ids[i]]
            raw = e @ store["time.w_var"].data[:, 0] + store["time.b_var"].data[0]
            oracle_mu = e @ store["time.w_mu"].data[:, 0] + store["time.b_mu"].data[0]
            assert mu.data[i, 0] == pytest.approx(oracle_mu, abs=1e-12)
            assert s2.data[i, 0] == pytest.approx(np.logaddexp(0.0, raw) + SIGMA_FLOOR,
                                                  abs=1e-12)


class TestFusion:
    def test_alpha_zero_is_bit_identical_passthrough(self):
        s = Tensor(np.random.default_rng(17).normal(size=(3, D)))
        x = Tensor(np.random.default_rng(18).normal(size=(3, D)))
        assert fuse(s, x, 0.0) is s
        assert fuse(s, None, 0.5) is s

    def test_alpha_shifts_by_scaled_summary(self):
        rng = np.random.default_rng(19)
        s = Tensor(rng.normal(size=(2, D)))
        x = Tensor(rng.normal(size=(2, D)))
        out = fuse(s, x, 0.25)
        np.testing.assert_allclose(out.data, s.data + 0.25 * x.data, atol=1e-15)

    def test_single_vector_heads_with_alpha_zero_match_base(self):
        store = make_store(seed=20)
        rng = np.random.default_rng(20)
        s = rows(rng.normal(size=D))
        x = rows(rng.normal(size=D))
        fused = fuse(s, x, 0.0)
        np.testing.assert_array_equal(mark_logits(store, fused).data,
                                      mark_logits(store, s).data)
        np.testing.assert_array_equal(goal_logits(store, fused).data,
                                      goal_logits(store, s).data)
        for a, b in zip(time_params(store, fused, [0]), time_params(store, s, [0])):
            np.testing.assert_array_equal(a.data, b.data)


class TestLogDensity:
    def test_standard_lognormal_at_one(self):
        td = TimeDensity(mu=0.0, sigma2=1.0)
        assert log_density(td, 1.0) == pytest.approx(-0.5 * math.log(2 * math.pi),
                                                     abs=1e-12)

    def test_nonpositive_gap_rejected(self):
        td = TimeDensity(mu=0.0, sigma2=1.0)
        with pytest.raises(NumericError):
            log_density(td, 0.0)
        with pytest.raises(NumericError):
            log_density(td, -1.0)

    def test_unit_mass_by_quadrature(self):
        from scipy.integrate import quad
        rng = np.random.default_rng(21)
        for _ in range(5):
            td = TimeDensity(mu=float(rng.uniform(-1.0, 2.0)),
                             sigma2=float(rng.uniform(0.05, 1.5)))
            mass, err = quad(lambda d: math.exp(log_density(td, d)),
                             1e-12, np.inf, limit=200)
            assert abs(mass - 1.0) < 1e-6

    def test_mode_by_grid_search(self):
        td = TimeDensity(mu=0.7, sigma2=0.3)
        grid = np.linspace(0.05, 6.0, 20000)
        dens = np.array([log_density(td, d) for d in grid])
        best = grid[np.argmax(dens)]
        assert best == pytest.approx(math.exp(td.mu - td.sigma2), abs=2e-3)

    def test_matches_scipy_lognorm(self):
        from scipy.stats import lognorm
        td = TimeDensity(mu=0.4, sigma2=0.6)
        sd = math.sqrt(td.sigma2)
        for delta in (0.2, 1.0, 3.7):
            expect = lognorm.logpdf(delta, s=sd, scale=math.exp(td.mu))
            assert log_density(td, delta) == pytest.approx(expect, abs=1e-12)


class TestSampling:
    def test_degenerate_variance_returns_median(self):
        td = TimeDensity(mu=1.2, sigma2=1e-12)
        rng = np.random.default_rng(22)
        for _ in range(10):
            assert sample_time(td, rng) == pytest.approx(math.exp(1.2), rel=1e-4)

    def test_empirical_median_within_one_percent(self):
        td = TimeDensity(mu=0.8, sigma2=0.5)
        rng = np.random.default_rng(23)
        draws = np.array([sample_time(td, rng) for _ in range(100000)])
        median = float(np.median(draws))
        assert abs(median - math.exp(0.8)) / math.exp(0.8) < 0.01

    def test_empirical_mean_within_two_percent(self):
        td = TimeDensity(mu=0.8, sigma2=0.5)
        rng = np.random.default_rng(24)
        draws = np.array([sample_time(td, rng) for _ in range(100000)])
        expect = math.exp(0.8 + 0.25)
        assert abs(draws.mean() - expect) / expect < 0.02

    def test_point_time_is_median(self):
        assert point_time(TimeDensity(mu=1.5, sigma2=9.0)) == pytest.approx(
            math.exp(1.5), abs=1e-12)

    def test_samples_always_positive(self):
        td = TimeDensity(mu=-3.0, sigma2=4.0)
        rng = np.random.default_rng(25)
        assert all(sample_time(td, rng) > 0.0 for _ in range(1000))
