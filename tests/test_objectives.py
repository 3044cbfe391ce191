"""Tests for the likelihood, discounted goal, margin, and total losses."""

import math

import numpy as np
import pytest

from actionflow.data import Action, ClusterMap, Ctas, DataError, Vocab
from actionflow.heads import TimeDensity, log_density
from actionflow.model import Model, ModelConfig, pack
from actionflow.numerics import (
    GradTape,
    NumericError,
    Segments,
    ShapeError,
    Tensor,
    finite_difference_check,
    mul,
    sum_all,
)
from actionflow.objectives import (
    LossBreakdown,
    discounted_goal_ce,
    hinge_sum,
    l2_penalty,
    margin_action,
    margin_goal,
    nll,
    sequence_terms,
    total_loss,
)

import reference


def make_model(variant="base", seed=0, clusters=2, ffn="summed", max_len=8, blocks=1):
    vocab = Vocab(["a", "b", "c"], ["g0", "g1"],
                  goal_marks=[(0, 1), (1, 2)])
    cm = ClusterMap(m=clusters,
                    assignments=[i % clusters for i in range(vocab.n_marks)])
    cfg = ModelConfig(d=4, heads=2, blocks=blocks, clusters=clusters, max_len=max_len,
                      variant=variant, ffn=ffn)
    return Model.init(cfg, vocab, cm, seed=seed)


def make_seq(marks, times, goal=0, sid="s0"):
    return Ctas(id=sid, goal=goal,
                actions=[Action(m, float(t)) for m, t in zip(marks, times)])


def one(t):
    """The single value of a one-sequence term."""
    assert t.data.shape == (1,)
    return float(t.data[0])


def fwd_of(model, seq):
    return model.forward(seq.marks(), seq.times(), Segments(len(seq.actions)))


def eos_seq(model, marks, times, goal=0, sid="s0"):
    eos = model.vocab.eos_id
    return make_seq(list(marks) + [eos], list(times) + [times[-1] + 1.0],
                    goal=goal, sid=sid)


class TestNll:
    def test_per_term_accumulation_oracle(self):
        model = make_model(seed=1)
        seq = eos_seq(model, [0, 1, 2], [0.5, 1.2, 3.0], goal=0)
        fwd = fwd_of(model, seq)
        value = one(nll(model, [seq], fwd=fwd))
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
        assert one(nll(model, [seq], fwd=fwd)) == pytest.approx(expect, abs=1e-12)

    def test_no_transitions_rejected(self):
        model = make_model()
        seq = make_seq([0], [0.5])
        with pytest.raises(ValueError):
            nll(model, [seq], fwd=fwd_of(model, seq))

    def test_eos_time_term_flag_drops_only_terminal_gap(self):
        model = make_model(seed=3)
        seq = eos_seq(model, [0, 1], [0.2, 0.9], goal=1)
        fwd = fwd_of(model, seq)
        full = one(nll(model, [seq], eos_time_term=True, fwd=fwd))
        partial = one(nll(model, [seq], eos_time_term=False, fwd=fwd))
        k = len(seq.actions) - 2
        td = TimeDensity(mu=float(fwd.mu.data[k, 0]),
                         sigma2=float(fwd.sigma2.data[k, 0]))
        gap = seq.actions[-1].t - seq.actions[-2].t
        assert full - partial == pytest.approx(-log_density(td, gap), abs=1e-9)

    def test_flag_ignored_without_terminal_mark(self):
        model = make_model(seed=4)
        seq = make_seq([0, 1, 2], [0.2, 0.9, 1.7])
        fwd = fwd_of(model, seq)
        a = one(nll(model, [seq], eos_time_term=True, fwd=fwd))
        b = one(nll(model, [seq], eos_time_term=False, fwd=fwd))
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
        value = one(discounted_goal_ce(model, [seq], 1.0, fwd=fwd))
        expect = -float(np.sum(fwd.goal_logprob.data[:, seq.goal]))
        assert value == pytest.approx(expect, abs=1e-12)

    def test_gamma_zero_is_exactly_zero(self):
        model = make_model(seed=6)
        seq = make_seq([0, 1], [0.1, 0.9])
        value = discounted_goal_ce(model, [seq], 0.0, fwd=fwd_of(model, seq))
        assert one(value) == 0.0

    def test_two_step_hand_weighting(self):
        model = make_model(seed=7)
        seq = make_seq([0, 2], [0.4, 1.0], goal=0)
        fwd = fwd_of(model, seq)
        ce = -fwd.goal_logprob.data[:, 0]
        value = one(discounted_goal_ce(model, [seq], 0.9, fwd=fwd))
        assert value == pytest.approx(0.9 * ce[0] + 0.81 * ce[1], abs=1e-12)

    def test_gamma_outside_unit_interval_rejected(self):
        model = make_model()
        seq = make_seq([0, 1], [0.1, 0.9])
        with pytest.raises(ValueError):
            discounted_goal_ce(model, [seq], 1.5, fwd=fwd_of(model, seq))


class TestHingeSum:
    def test_hand_case_drop_of_two_tenths(self):
        # 0.7 then 0.5: the second step pays 0.2; the third (0.2 below best
        # 0.7) pays 0.5
        probs = Tensor(np.array([[0.7], [0.5], [0.2]]))
        assert one(hinge_sum(probs, Segments(probs.shape[0]))) == pytest.approx(0.7, abs=1e-12)

    def test_first_row_never_penalized(self):
        probs = Tensor(np.array([[0.9], [0.95]]))
        assert one(hinge_sum(probs, Segments(probs.shape[0]))) == 0.0

    def test_constant_scores_zero(self):
        probs = Tensor(np.full((5, 2), 0.4))
        assert one(hinge_sum(probs, Segments(probs.shape[0]))) == 0.0

    def test_monotone_columns_exactly_zero(self):
        rng = np.random.default_rng(8)
        for _ in range(300):
            k = int(rng.integers(1, 12))
            cols = int(rng.integers(1, 4))
            probs = np.sort(rng.uniform(size=(k, cols)), axis=0)
            assert one(hinge_sum(Tensor(probs), Segments(k))) == 0.0

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
            assert one(hinge_sum(Tensor(p), Segments(k))) == pytest.approx(expect, abs=1e-12)


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
        assert one(margin_goal(model, [seq], fwd=fwd)) == pytest.approx(
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
        assert one(margin_action(model, [seq], fwd=fwd)) == pytest.approx(
            expect, abs=1e-12)

    def test_margin_action_needs_goal_action_sets(self):
        model = make_model(seed=12)
        model.vocab.goal_marks = None
        seq = make_seq([0, 1], [0.1, 0.9])
        with pytest.raises(DataError):
            margin_action(model, [seq], fwd=fwd_of(model, seq))

    def test_margins_nonnegative(self):
        model = make_model(seed=13)
        rng = np.random.default_rng(13)
        for trial in range(10):
            k = int(rng.integers(2, 6))
            marks = rng.integers(0, 3, size=k).tolist()
            times = np.cumsum(rng.uniform(0.2, 1.0, size=k))
            seq = make_seq(marks, times, goal=int(rng.integers(0, 2)))
            fwd = fwd_of(model, seq)
            assert one(margin_goal(model, [seq], fwd=fwd)) >= 0.0
            assert one(margin_action(model, [seq], fwd=fwd)) >= 0.0


class TestL2AndBreakdown:
    def test_l2_equals_sum_of_squares(self):
        model = make_model(seed=14)
        expect = sum(float(np.sum(t.data ** 2)) for _, t in model.store.items())
        assert float(l2_penalty(model.store).data) == pytest.approx(expect, rel=1e-12)

    def test_l2_is_one_record_matching_the_per_parameter_chain(self):
        # the op chain the single record replaced: mul, sum_all and add per
        # parameter, in name order; value and gradients must agree bit for bit
        model = make_model(variant="plus", seed=15)
        with GradTape() as tape:
            l2 = l2_penalty(model.store)
            assert len(tape) == 1
        assert float(l2.data) == float(chain_l2(model.store).data)
        got = gradients(model, lambda: mul(l2_penalty(model.store), 0.37))
        want = gradients(model, lambda: mul(chain_l2(model.store), 0.37))
        for name in want:
            np.testing.assert_array_equal(got[name], want[name], err_msg=name)

    def test_l2_guard_names_the_op(self):
        model = make_model(seed=16)
        model.store["mark.w"].data[0, 0] = 1e200
        with pytest.raises(NumericError, match="l2_penalty"):
            l2_penalty(model.store)

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
            v = (one(nll(model, [seq], fwd=fwd))
                 + one(discounted_goal_ce(model, [seq], 0.9, fwd=fwd))
                 + 0.1 * (one(margin_goal(model, [seq], fwd=fwd))
                          + one(margin_action(model, [seq], fwd=fwd))))
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
        nlls = [one(nll(model, [s], fwd=fwd_of(model, s))) for s in batch]
        assert bd.nll == pytest.approx(np.mean(nlls), abs=1e-12)

    def test_margin_disabled_reduces_to_core_terms(self):
        model = make_model(seed=17)
        batch = self.batch(model)
        total, bd = total_loss(model, batch, gamma=0.9, margin_weight=0.0,
                               l2_coeff=0.001)
        passes = [(s, fwd_of(model, s)) for s in batch]
        core = np.mean([one(nll(model, [s], fwd=fwd))
                        + one(discounted_goal_ce(model, [s], 0.9, fwd=fwd))
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


def random_batch(model, rng, lens, with_eos=True):
    """Sequences of the given lengths; every other one ends in the terminal mark."""
    batch = []
    for i, n in enumerate(lens):
        times = np.cumsum(rng.uniform(0.2, 1.5, size=n))
        marks = rng.integers(0, 3, size=n).tolist()
        if with_eos and i % 2 == 0:
            marks[-1] = model.vocab.eos_id
        batch.append(make_seq(marks, times, goal=int(rng.integers(0, 2)), sid=f"s{i}"))
    return batch


def chain_l2(store):
    acc = None
    for _, t in store.items():
        sq = sum_all(mul(t, t))
        acc = sq if acc is None else acc + sq
    return acc


def gradients(model, build):
    model.store.zero_grads()
    with GradTape() as tape:
        tape.backward(build())
    grads = {name: model.store.grad(name).copy() for name in model.store.names()}
    model.store.zero_grads()
    return grads


LOSS = dict(gamma=0.9, margin_weight=0.1, l2_coeff=0.001)


class TestPackedMatchesReference:
    """The packed batch path against the per-sequence oracle in reference.py."""

    @staticmethod
    def check(model, batch, eos_time_term=True):
        """Every term, the total and every gradient match the oracle to 1e-12."""
        terms = sequence_terms(model, batch, gamma=0.9, eos_time_term=eos_time_term)
        total, bd = total_loss(model, batch, eos_time_term=eos_time_term, **LOSS)
        ref_total, ref_terms = reference.total_loss(model, batch,
                                                    eos_time_term=eos_time_term, **LOSS)
        for i, ref in enumerate(ref_terms):
            for name, value in ref.items():
                assert terms[name].data[i] == pytest.approx(value, abs=1e-12), (i, name)
        assert float(total.data) == pytest.approx(float(ref_total.data), abs=1e-12)
        assert bd.nll == pytest.approx(np.mean([r["nll"] for r in ref_terms]), abs=1e-12)
        got = gradients(model, lambda: total_loss(
            model, batch, eos_time_term=eos_time_term, **LOSS)[0])
        want = gradients(model, lambda: reference.total_loss(
            model, batch, eos_time_term=eos_time_term, **LOSS)[0])
        for name in want:
            np.testing.assert_allclose(got[name], want[name], rtol=0, atol=1e-12,
                                       err_msg=name)

    @pytest.mark.parametrize("eos_time_term", [True, False])
    @pytest.mark.parametrize("ffn", ["summed", "standard"])
    @pytest.mark.parametrize("variant", ["base", "plus"])
    def test_terms_total_and_gradients(self, variant, ffn, eos_time_term):
        model = make_model(variant=variant, seed=31, ffn=ffn, max_len=12, blocks=2)
        batch = random_batch(model, np.random.default_rng(32), [2, 9, 5, 13, 3, 2])
        self.check(model, batch, eos_time_term)

    @pytest.mark.parametrize("ffn", ["summed", "standard"])
    @pytest.mark.parametrize("variant", ["base", "plus"])
    def test_mixed_lengths_across_attention_blocks(self, variant, ffn):
        # lengths 9 to 97, as in a train_mixed batch: attention runs in
        # several length-grouped blocks
        model = make_model(variant=variant, seed=37, ffn=ffn, max_len=100, blocks=2)
        rng = np.random.default_rng(38)
        batch = random_batch(model, rng, [9, 97, *rng.integers(9, 98, size=6).tolist()])
        assert len(pack(batch)[2].groups) >= 2
        self.check(model, batch)


class TestPadding:
    """A short sequence packed with a much longer one sees none of it."""

    def test_rows_terms_and_gradients_match_alone(self):
        model = make_model(variant="plus", seed=33, max_len=40, blocks=2)
        rng = np.random.default_rng(34)
        short, long = random_batch(model, rng, [3, 37])
        fwd_alone = fwd_of(model, short)
        fwd_packed = model.forward(np.concatenate([short.marks(), long.marks()]),
                                   np.concatenate([short.times(), long.times()]),
                                   Segments(40, [3, 37]))
        for name in ("mark_logprob", "goal_logprob", "mu", "sigma2"):
            np.testing.assert_allclose(getattr(fwd_packed, name).data[:3],
                                       getattr(fwd_alone, name).data, rtol=0, atol=1e-12)
        alone = sequence_terms(model, [short], gamma=0.9)
        packed = sequence_terms(model, [short, long], gamma=0.9)
        for name in alone:
            assert packed[name].data[0] == pytest.approx(one(alone[name]), abs=1e-12)

        def first_total(batch):
            t = sequence_terms(model, batch, gamma=0.9)
            per_seq = t["nll"] + t["goal_ce"] + t["margin_goal"] + t["margin_action"]
            pick_first = np.zeros(len(batch))
            pick_first[0] = 1.0
            return sum_all(mul(per_seq, Tensor(pick_first)))

        got = gradients(model, lambda: first_total([short, long]))
        want = gradients(model, lambda: first_total([short]))
        for name in want:
            np.testing.assert_allclose(got[name], want[name], rtol=0, atol=1e-12,
                                       err_msg=name)


class TestForwardLayout:
    def test_pack_lays_out_each_sequence(self):
        model = make_model(seed=41, max_len=12)
        batch = random_batch(model, np.random.default_rng(42), [2, 5, 3])
        marks, times, segs = pack(batch)
        np.testing.assert_array_equal(segs.lens, [2, 5, 3])
        np.testing.assert_array_equal(marks[segs.last], [s.actions[-1].mark for s in batch])
        fwd = model.forward(marks, times, segs)
        assert fwd.segs is segs
        for seq, a, b in zip(batch, segs.starts, segs.last + 1):
            np.testing.assert_array_equal(fwd.marks[a:b], seq.marks())
            np.testing.assert_allclose(fwd.mu.data[a:b], fwd_of(model, seq).mu.data,
                                       rtol=0, atol=1e-12)

    def test_forward_refuses_a_layout_for_other_rows(self):
        model = make_model(seed=43, max_len=12)
        marks, times = [0, 1, 2, 0], [0.5, 1.0, 1.5, 2.5]
        for segs in (Segments(3), Segments(5), Segments(5, [1, 4]), Segments(3, [2, 1])):
            with pytest.raises(ShapeError):
                model.forward(marks, times, segs)


class TestTapeGrowth:
    def test_batch_of_32_adds_at_most_a_constant(self):
        # one packed pass per batch: the tape must not grow with the batch
        model = make_model(seed=35, max_len=12)
        rng = np.random.default_rng(36)
        records = {}
        for size in (1, 32):
            batch = random_batch(model, rng, rng.integers(2, 10, size=size))
            with GradTape() as tape:
                total_loss(model, batch, **LOSS)
                records[size] = len(tape)
        assert records[32] - records[1] <= 4, records

    def test_length_grouped_attention_adds_no_record(self):
        # attention stays one record per encoder block however many length
        # groups it runs
        model = make_model(seed=39, max_len=100, blocks=2)
        rng = np.random.default_rng(40)
        records, blocks = {}, {}
        for name, lens in (("equal", [20] * 8), ("mixed", [9, 97, 12, 60, 33, 88, 15, 44])):
            batch = random_batch(model, rng, lens)
            blocks[name] = len(pack(batch)[2].groups)
            with GradTape() as tape:
                total_loss(model, batch, **LOSS)
                records[name] = len(tape)
        assert blocks["equal"] == 1 and blocks["mixed"] >= 2, blocks
        assert records["mixed"] == records["equal"], records


class TestDivergentBatch:
    def test_non_finite_op_names_the_sequence(self):
        # times near 1e200 overflow the attention scores of that sequence only
        model = make_model(seed=37, max_len=12)
        rng = np.random.default_rng(38)
        batch = random_batch(model, rng, [4, 6, 3])
        batch.insert(1, make_seq([0, 1, 2], [1e200, 2e200, 3e200], sid="huge"))
        with pytest.raises(NumericError, match="huge"):
            total_loss(model, batch, **LOSS)

    def test_bad_gap_names_the_sequence(self):
        model = make_model(seed=39, max_len=12)
        batch = random_batch(model, np.random.default_rng(40), [4, 6, 3])
        batch.append(make_seq([0, 1, 2], [0.5, 0.5, 1.0], sid="tied"))
        with pytest.raises(NumericError, match="tied"):
            total_loss(model, batch, **LOSS)
