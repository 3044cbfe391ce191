"""Tests for the likelihood, discounted goal, margin, and total losses."""

import math

import numpy as np
import pytest

from actionflow.data import Action, ClusterMap, Ctas, DataError, Vocab
from actionflow.heads import TimeDensity, log_density
from actionflow.model import Model, ModelConfig
from actionflow.numerics import (
    GradTape,
    NumericError,
    Tensor,
    finite_difference_check,
)
from actionflow.objectives import (
    LossBreakdown,
    discounted_goal_ce,
    hinge_sum,
    l2_penalty,
    margin_action,
    margin_goal,
    nll,
    total_loss,
)


def make_model(variant="base", seed=0, clusters=2):
    vocab = Vocab(["a", "b", "c"], ["g0", "g1"],
                  goal_marks={0: (0, 1), 1: (1, 2)})
    cm = ClusterMap(m=clusters,
                    mark_to_cluster={i: i % clusters for i in range(vocab.n_marks)})
    cfg = ModelConfig(d=4, heads=2, blocks=1, clusters=clusters, max_len=8,
                      variant=variant)
    return Model.init(cfg, vocab, cm, seed=seed)


def make_seq(marks, times, goal=0, sid="s0"):
    return Ctas(id=sid, goal=goal,
                actions=[Action(m, float(t)) for m, t in zip(marks, times)])


def fwd_of(model, seq):
    return model.forward(seq.marks(), seq.times())


def eos_seq(model, marks, times, goal=0, sid="s0"):
    eos = model.vocab.eos_id
    return make_seq(list(marks) + [eos], list(times) + [times[-1] + 1.0],
                    goal=goal, sid=sid)


class TestNll:
    def test_per_term_accumulation_oracle(self):
        model = make_model(seed=1)
        seq = eos_seq(model, [0, 1, 2], [0.5, 1.2, 3.0], goal=0)
        fwd = fwd_of(model, seq)
        value = float(nll(model, seq, fwd=fwd).data)
        marks = seq.marks()
        gaps = np.diff(seq.times())
        expect = 0.0
        for k in range(len(seq.actions) - 1):
            expect -= fwd.mark_logprob.data[k, marks[k + 1]]
            td = TimeDensity(mu=float(fwd.mu.data[k, 0]),
                             sigma2=float(fwd.sigma2.data[k, 0]))
            expect -= log_density(td, float(gaps[k]))
        assert value == pytest.approx(expect, abs=1e-9)

    def test_single_transition(self):
        model = make_model(seed=2)
        seq = make_seq([0, 1], [0.3, 1.1])
        fwd = fwd_of(model, seq)
        td = TimeDensity(mu=float(fwd.mu.data[0, 0]),
                         sigma2=float(fwd.sigma2.data[0, 0]))
        expect = -(fwd.mark_logprob.data[0, 1] + log_density(td, 0.8))
        assert float(nll(model, seq, fwd=fwd).data) == pytest.approx(expect, abs=1e-12)

    def test_no_transitions_rejected(self):
        model = make_model()
        seq = make_seq([0], [0.5])
        with pytest.raises(ValueError):
            nll(model, seq, fwd=fwd_of(model, seq))

    def test_eos_time_term_flag_drops_only_terminal_gap(self):
        model = make_model(seed=3)
        seq = eos_seq(model, [0, 1], [0.2, 0.9], goal=1)
        fwd = fwd_of(model, seq)
        full = float(nll(model, seq, eos_time_term=True, fwd=fwd).data)
        partial = float(nll(model, seq, eos_time_term=False, fwd=fwd).data)
        k = len(seq.actions) - 2
        td = TimeDensity(mu=float(fwd.mu.data[k, 0]),
                         sigma2=float(fwd.sigma2.data[k, 0]))
        gap = seq.actions[-1].t - seq.actions[-2].t
        assert full - partial == pytest.approx(-log_density(td, gap), abs=1e-9)

    def test_flag_ignored_without_terminal_mark(self):
        model = make_model(seed=4)
        seq = make_seq([0, 1, 2], [0.2, 0.9, 1.7])
        fwd = fwd_of(model, seq)
        a = float(nll(model, seq, eos_time_term=True, fwd=fwd).data)
        b = float(nll(model, seq, eos_time_term=False, fwd=fwd).data)
        assert a == b

    def test_nonpositive_gap_propagates_with_id(self):
        model = make_model()
        seq = make_seq([0, 1], [1.0, 1.0], sid="broken")
        with pytest.raises(NumericError, match="broken"):
            total_loss(model, [seq], gamma=0.9, margin_weight=0.1, l2_coeff=0.0)


class TestDiscountedGoalCe:
    def test_gamma_one_is_plain_ce_sum(self):
        model = make_model(seed=5)
        seq = eos_seq(model, [0, 1, 2], [0.1, 0.9, 2.2], goal=1)
        fwd = fwd_of(model, seq)
        value = float(discounted_goal_ce(model, seq, 1.0, fwd=fwd).data)
        expect = -float(np.sum(fwd.goal_logprob.data[:, seq.goal]))
        assert value == pytest.approx(expect, abs=1e-12)

    def test_gamma_zero_is_exactly_zero(self):
        model = make_model(seed=6)
        seq = make_seq([0, 1], [0.1, 0.9])
        value = discounted_goal_ce(model, seq, 0.0, fwd=fwd_of(model, seq))
        assert float(value.data) == 0.0

    def test_two_step_hand_weighting(self):
        model = make_model(seed=7)
        seq = make_seq([0, 2], [0.4, 1.0], goal=0)
        fwd = fwd_of(model, seq)
        ce = -fwd.goal_logprob.data[:, 0]
        value = float(discounted_goal_ce(model, seq, 0.9, fwd=fwd).data)
        assert value == pytest.approx(0.9 * ce[0] + 0.81 * ce[1], abs=1e-12)

    def test_gamma_outside_unit_interval_rejected(self):
        model = make_model()
        seq = make_seq([0, 1], [0.1, 0.9])
        with pytest.raises(ValueError):
            discounted_goal_ce(model, seq, 1.5, fwd=fwd_of(model, seq))


class TestHingeSum:
    def test_hand_case_drop_of_two_tenths(self):
        # 0.7 then 0.5: the second step pays 0.2; the third (0.2 below best
        # 0.7) pays 0.5
        probs = Tensor(np.array([[0.7], [0.5], [0.2]]))
        assert float(hinge_sum(probs).data) == pytest.approx(0.7, abs=1e-12)

    def test_first_row_never_penalized(self):
        probs = Tensor(np.array([[0.9], [0.95]]))
        assert float(hinge_sum(probs).data) == 0.0

    def test_constant_scores_zero(self):
        probs = Tensor(np.full((5, 2), 0.4))
        assert float(hinge_sum(probs).data) == 0.0

    def test_monotone_columns_exactly_zero(self):
        rng = np.random.default_rng(8)
        for _ in range(300):
            k = int(rng.integers(1, 12))
            cols = int(rng.integers(1, 4))
            probs = np.sort(rng.uniform(size=(k, cols)), axis=0)
            assert float(hinge_sum(Tensor(probs)).data) == 0.0

    def test_matches_nested_loop_oracle(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            k = int(rng.integers(2, 10))
            cols = int(rng.integers(1, 4))
            p = rng.uniform(size=(k, cols))
            expect = 0.0
            for c in range(cols):
                best = 0.0
                for i in range(k):
                    expect += max(0.0, best - p[i, c])
                    best = max(best, p[i, c])
            assert float(hinge_sum(Tensor(p)).data) == pytest.approx(expect, abs=1e-12)


class TestMargins:
    def test_margin_goal_matches_oracle(self):
        model = make_model(seed=10)
        seq = eos_seq(model, [0, 1, 2, 0], [0.2, 0.8, 1.5, 2.1], goal=1)
        fwd = fwd_of(model, seq)
        p = fwd.goal_prob.data[:, seq.goal]
        best, expect = 0.0, 0.0
        for v in p:
            expect += max(0.0, best - v)
            best = max(best, v)
        assert float(margin_goal(model, seq, fwd=fwd).data) == pytest.approx(
            expect, abs=1e-12)

    def test_margin_action_matches_nested_oracle(self):
        model = make_model(seed=11)
        seq = eos_seq(model, [1, 2, 1], [0.2, 0.8, 1.5], goal=1)
        fwd = fwd_of(model, seq)
        expect = 0.0
        for c in model.vocab.marks_for_goal(seq.goal):
            best = 0.0
            for i in range(len(seq.actions)):
                v = fwd.mark_prob.data[i, c]
                expect += max(0.0, best - v)
                best = max(best, v)
        assert float(margin_action(model, seq, fwd=fwd).data) == pytest.approx(
            expect, abs=1e-12)

    def test_margin_action_needs_goal_action_sets(self):
        model = make_model(seed=12)
        model.vocab.goal_marks = None
        seq = make_seq([0, 1], [0.1, 0.9])
        with pytest.raises(DataError):
            margin_action(model, seq, fwd=fwd_of(model, seq))

    def test_margins_nonnegative(self):
        model = make_model(seed=13)
        rng = np.random.default_rng(13)
        for trial in range(10):
            k = int(rng.integers(2, 6))
            marks = rng.integers(0, 3, size=k).tolist()
            times = np.cumsum(rng.uniform(0.2, 1.0, size=k))
            seq = make_seq(marks, times, goal=int(rng.integers(0, 2)))
            fwd = fwd_of(model, seq)
            assert float(margin_goal(model, seq, fwd=fwd).data) >= 0.0
            assert float(margin_action(model, seq, fwd=fwd).data) >= 0.0


class TestL2AndBreakdown:
    def test_l2_equals_sum_of_squares(self):
        model = make_model(seed=14)
        expect = sum(float(np.sum(t.data ** 2)) for _, t in model.store.items())
        assert float(l2_penalty(model.store).data) == pytest.approx(expect, rel=1e-12)

    def test_breakdown_identity_is_exact(self):
        bd = LossBreakdown.build(nll=1.25, goal_ce=0.5, margin_goal=0.125,
                                 margin_action=0.25, l2=4.0,
                                 margin_weight=0.5, l2_coeff=0.25)
        assert bd.total == 1.25 + 0.5 + 0.5 * (0.125 + 0.25) + 0.25 * 4.0

    def test_breakdown_rejects_non_finite(self):
        with pytest.raises(NumericError):
            LossBreakdown.build(nll=math.inf, goal_ce=0.0, margin_goal=0.0,
                                margin_action=0.0, l2=0.0,
                                margin_weight=0.1, l2_coeff=0.0)

    def test_to_dict_round_trips_fields(self):
        bd = LossBreakdown.build(nll=1.0, goal_ce=2.0, margin_goal=0.0,
                                 margin_action=0.0, l2=0.0,
                                 margin_weight=0.1, l2_coeff=0.001)
        d = bd.to_dict()
        assert d["total"] == bd.total and d["nll"] == 1.0 and d["goal_ce"] == 2.0


class TestTotalLoss:
    def batch(self, model):
        return [eos_seq(model, [0, 1], [0.3, 0.9], goal=0, sid="a"),
                eos_seq(model, [2, 1, 0], [0.1, 0.7, 1.6], goal=1, sid="b")]

    def test_batch_mean_plus_l2(self):
        model = make_model(seed=15)
        batch = self.batch(model)
        total, bd = total_loss(model, batch, gamma=0.9, margin_weight=0.1,
                               l2_coeff=0.001)
        per_seq = []
        for seq in batch:
            fwd = fwd_of(model, seq)
            v = (float(nll(model, seq, fwd=fwd).data)
                 + float(discounted_goal_ce(model, seq, 0.9, fwd=fwd).data)
                 + 0.1 * (float(margin_goal(model, seq, fwd=fwd).data)
                          + float(margin_action(model, seq, fwd=fwd).data)))
            per_seq.append(v)
        l2 = float(l2_penalty(model.store).data)
        assert float(total.data) == pytest.approx(np.mean(per_seq) + 0.001 * l2,
                                                  abs=1e-12)
        assert bd.total == pytest.approx(float(total.data), abs=1e-9)

    def test_breakdown_components_are_batch_means(self):
        model = make_model(seed=16)
        batch = self.batch(model)
        _, bd = total_loss(model, batch, gamma=0.9, margin_weight=0.1,
                           l2_coeff=0.001)
        nlls = [float(nll(model, s, fwd=fwd_of(model, s)).data) for s in batch]
        assert bd.nll == pytest.approx(np.mean(nlls), abs=1e-12)

    def test_margin_disabled_reduces_to_core_terms(self):
        model = make_model(seed=17)
        batch = self.batch(model)
        total, bd = total_loss(model, batch, gamma=0.9, margin_weight=0.0,
                               l2_coeff=0.001)
        passes = [(s, fwd_of(model, s)) for s in batch]
        core = np.mean([float(nll(model, s, fwd=fwd).data)
                        + float(discounted_goal_ce(model, s, 0.9, fwd=fwd).data)
                        for s, fwd in passes])
        l2 = float(l2_penalty(model.store).data)
        assert float(total.data) == pytest.approx(core + 0.001 * l2, abs=1e-12)
        assert bd.margin_goal == 0.0 or bd.total == pytest.approx(
            bd.nll + bd.goal_ce + 0.001 * bd.l2, abs=1e-12)

    def test_empty_batch_rejected(self):
        model = make_model()
        with pytest.raises(ValueError):
            total_loss(model, [], gamma=0.9, margin_weight=0.1, l2_coeff=0.0)

    # seeds keep every relu preactivation farther from 0 than the probe
    # step h=1e-5; at a kink the central-difference oracle itself is invalid
    @pytest.mark.parametrize("variant,seed", [("base", 18), ("plus", 21)])
    def test_gradients_match_finite_differences(self, variant, seed):
        model = make_model(variant=variant, seed=seed)
        seq = eos_seq(model, [0, 1, 2, 1], [0.3, 0.9, 1.4, 2.6], goal=0)

        def f(_store):
            total, _ = total_loss(model, [seq], gamma=0.9, margin_weight=0.1,
                                  l2_coeff=0.001)
            return total

        report = finite_difference_check(f, model.store)
        assert report.max_rel_err < 1e-4
        assert not report.empty

    def test_taped_gradients_flow_to_all_head_params(self):
        model = make_model(seed=19)
        seq = eos_seq(model, [0, 1, 2], [0.3, 0.9, 1.8], goal=1)
        model.store.zero_grads()
        with GradTape() as tape:
            total, _ = total_loss(model, [seq], gamma=0.9, margin_weight=0.1,
                                  l2_coeff=0.001)
            tape.backward(total)
        for name in ("mark.w", "goal.w_out", "time.w_mu", "time.w_var",
                     "embed.marks", "pos.table"):
            assert np.any(model.store.grad(name) != 0.0), name
