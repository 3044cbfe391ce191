"""Tests for goal-conditioned generation and its stopping behavior."""

import itertools

import numpy as np
import pytest

import reference
from actionflow.data import ClusterMap, DataError, Vocab
from actionflow.encoder import CapacityError, DecodeCache
from actionflow.generation import (
    MODES,
    TERMINATION_REASONS,
    GenRequest,
    core_actions,
    generate,
)
from actionflow.model import Model, ModelConfig
from actionflow.numerics import NumericError, Segments


def make_model(seed=0, max_len=8, **arch):
    vocab = Vocab(["a", "b", "c"], ["g0", "g1"],
                  goal_marks=[(0, 1), (1, 2)])
    cm = ClusterMap(m=2, assignments=[i % 2 for i in range(vocab.n_marks)])
    cfg = ModelConfig(**{"d": 4, "heads": 2, "blocks": 1, "clusters": 2, "max_len": max_len,
                         **arch})
    return Model.init(cfg, vocab, cm, seed=seed)


# variant x feed-forward form x blocks x heads
ARCHS = [dict(variant=v, ffn=f, blocks=b, heads=h)
         for v, f, b, h in itertools.product(("base", "plus"), ("summed", "standard"),
                                             (1, 2), (1, 2))]


def arch_id(arch):
    return "{variant}-{ffn}-{blocks}b-{heads}h".format(**arch)


def force_mark(model, mark, strength=50.0):
    """Pin the mark head to one output regardless of the input."""
    bias = model.store["mark.bias"]
    bias.data[:] = -strength
    bias.data[mark] = strength
    model.store["mark.w"].data[:] = 0.0


def force_goal(model, goal, strength=50.0):
    bias = model.store["goal.b_out"]
    bias.data[:] = -strength
    bias.data[goal] = strength
    model.store["goal.w_out"].data[:] = 0.0


class TestRequestValidation:
    def test_goal_out_of_range(self):
        model = make_model()
        with pytest.raises(DataError, match="goal id"):
            GenRequest(goal=2, first_mark=0).validate(model)

    def test_negative_goal(self):
        model = make_model()
        with pytest.raises(DataError, match="goal id"):
            GenRequest(goal=-1, first_mark=0).validate(model)

    def test_terminal_first_mark_rejected(self):
        model = make_model()
        with pytest.raises(DataError, match="first mark"):
            GenRequest(goal=0, first_mark=model.vocab.eos_id).validate(model)

    def test_negative_first_time_rejected(self):
        model = make_model()
        for first_t in (-0.5, float("nan"), float("inf")):
            with pytest.raises(DataError, match="first time"):
                GenRequest(goal=0, first_mark=0, first_t=first_t).validate(model)

    def test_short_max_len_rejected(self):
        model = make_model()
        with pytest.raises(DataError, match="max_len"):
            GenRequest(goal=0, first_mark=0, max_len=1).validate(model)

    def test_max_len_beyond_capacity(self):
        model = make_model(max_len=8)
        with pytest.raises(CapacityError, match="capacity"):
            GenRequest(goal=0, first_mark=0, max_len=9).validate(model)

    def test_unknown_mode_rejected(self):
        model = make_model()
        with pytest.raises(DataError, match="mode"):
            GenRequest(goal=0, first_mark=0, mode="beam").validate(model)

    def test_valid_request_passes(self):
        model = make_model()
        for mode in MODES:
            GenRequest(goal=1, first_mark=2, max_len=8, mode=mode).validate(model)


class TestTerminationReasons:
    def test_goal_mismatch_drops_candidate(self):
        model = make_model(seed=1)
        force_goal(model, 1)
        force_mark(model, 0)  # never the terminal mark
        seq, reason = generate(model, GenRequest(goal=0, first_mark=2, first_t=0.25))
        assert reason == "goal_mismatch"
        assert seq.marks().tolist() == [2, model.vocab.eos_id]
        assert seq.actions[0].t == 0.25
        # the terminal action inherits the discarded candidate's time
        assert seq.actions[1].t > 0.25

    def test_eos_sampled(self):
        model = make_model(seed=2)
        force_mark(model, model.vocab.eos_id)
        seq, reason = generate(model, GenRequest(goal=0, first_mark=0, mode="greedy"))
        assert reason == "eos_sampled"
        assert seq.marks().tolist() == [0, model.vocab.eos_id]

    def test_max_len_cap(self):
        model = make_model(seed=3)
        force_mark(model, 0)
        force_goal(model, 0)
        req = GenRequest(goal=0, first_mark=0, max_len=4, mode="greedy")
        seq, reason = generate(model, req)
        assert reason == "max_len"
        assert len(core_actions(seq, model.vocab.eos_id)) == 4
        assert len(seq.actions) == 5

    def test_default_cap_is_model_capacity(self):
        model = make_model(seed=4, max_len=6)
        force_mark(model, 1)
        force_goal(model, 1)
        seq, reason = generate(model, GenRequest(goal=1, first_mark=1, mode="greedy"))
        assert reason == "max_len"
        assert len(core_actions(seq, model.vocab.eos_id)) == 6

    def test_reason_vocabulary(self):
        assert set(TERMINATION_REASONS) == {"goal_mismatch", "eos_sampled", "max_len"}


class TestSequenceInvariants:
    def test_random_models_always_terminate_validly(self):
        for trial in range(20):
            model = make_model(seed=trial)
            req = GenRequest(goal=trial % 2, first_mark=trial % 3,
                             first_t=0.1 * trial, seed=trial)
            seq, reason = generate(model, req)
            assert reason in TERMINATION_REASONS
            seq.validate()
            marks = seq.marks()
            assert marks[-1] == model.vocab.eos_id
            assert all(0 <= m <= model.vocab.eos_id for m in marks)
            times = seq.times()
            assert np.all(np.diff(times) > 0.0)
            assert len(core_actions(seq, model.vocab.eos_id)) <= model.config.max_len
            assert len(seq.actions) <= model.config.max_len + 1
            assert seq.goal == req.goal
            assert seq.actions[0].mark == req.first_mark
            assert seq.actions[0].t == req.first_t

    def test_requested_id_is_used(self):
        model = make_model(seed=5)
        seq, _ = generate(model, GenRequest(goal=0, first_mark=0), seq_id="sample-7")
        assert seq.id == "sample-7"

    def test_single_terminal_mark(self):
        for trial in range(10):
            model = make_model(seed=100 + trial)
            seq, _ = generate(model, GenRequest(goal=0, first_mark=0, seed=trial))
            assert seq.marks().tolist().count(model.vocab.eos_id) == 1


class TestDeterminism:
    def test_same_seed_reproduces(self):
        model = make_model(seed=6)
        req = GenRequest(goal=0, first_mark=1, seed=42)
        a, reason_a = generate(model, req)
        b, reason_b = generate(model, req)
        assert reason_a == reason_b
        assert a.marks().tolist() == b.marks().tolist()
        assert a.times().tobytes() == b.times().tobytes()

    def test_seeds_reach_different_outcomes(self):
        model = make_model(seed=6)
        outcomes = set()
        for seed in range(8):
            seq, _ = generate(model, GenRequest(goal=0, first_mark=1, seed=seed))
            outcomes.add(tuple(seq.marks()))
        assert len(outcomes) > 1

    def test_explicit_rng_overrides_seed(self):
        model = make_model(seed=6)
        a, _ = generate(model, GenRequest(goal=0, first_mark=1, seed=0),
                        rng=np.random.default_rng(9))
        b, _ = generate(model, GenRequest(goal=0, first_mark=1, seed=777),
                        rng=np.random.default_rng(9))
        assert a.marks().tolist() == b.marks().tolist()
        assert a.times().tobytes() == b.times().tobytes()

    def test_greedy_is_repeatable(self):
        model = make_model(seed=7)
        req = GenRequest(goal=1, first_mark=0, mode="greedy")
        a, _ = generate(model, req)
        b, _ = generate(model, req)
        assert a.marks().tolist() == b.marks().tolist()
        assert a.times().tobytes() == b.times().tobytes()

    def test_greedy_never_consumes_rng(self):
        model = make_model(seed=7)
        rng = np.random.default_rng(123)
        fresh = np.random.default_rng(123)
        generate(model, GenRequest(goal=1, first_mark=0, mode="greedy"), rng=rng)
        assert rng.random() == fresh.random()


class TestCoreActions:
    def test_strips_single_terminal(self):
        model = make_model(seed=8)
        seq, _ = generate(model, GenRequest(goal=0, first_mark=0))
        core = core_actions(seq, model.vocab.eos_id)
        assert len(core) == len(seq.actions) - 1
        assert all(a.mark != model.vocab.eos_id for a in core)

    def test_leaves_untailed_sequences_alone(self):
        model = make_model(seed=8)
        seq, _ = generate(model, GenRequest(goal=0, first_mark=0))
        trimmed = core_actions(seq, model.vocab.eos_id)
        again = core_actions(
            type(seq)(id=seq.id, goal=seq.goal, actions=trimmed),
            model.vocab.eos_id)
        assert again == trimmed


PREDICTIONS = ("mark_logprob", "mark_prob", "goal_logprob", "goal_prob", "mu", "sigma2")


def random_prefix(rng, model, n):
    """n actions over every mark id, the terminal one included, with some
    repeated times."""
    marks = rng.integers(0, model.vocab.n_marks, size=n)
    gaps = rng.uniform(0.05, 2.0, size=n) * (rng.random(n) > 0.2)
    return marks, np.cumsum(gaps)


class TestCachedStep:
    """Model.step encodes one appended action against the DecodeCache; its
    one row must be the last row of Model.forward on the whole prefix."""

    @pytest.mark.parametrize("arch", ARCHS, ids=arch_id)
    def test_every_step_is_the_last_forward_row(self, arch):
        max_len = 10
        for seed in range(2):
            model = make_model(seed=seed, max_len=max_len, **arch)
            marks, times = random_prefix(np.random.default_rng(seed), model, max_len)
            cache = DecodeCache(model.config, max_len)
            for n in range(1, max_len + 1):
                pred = model.step(cache, int(marks[n - 1]), float(times[n - 1]))
                fwd = model.forward(marks[:n], times[:n], Segments(n))
                for name in PREDICTIONS:
                    got, want = getattr(pred, name).data, getattr(fwd, name).data
                    assert got.shape == (1, want.shape[1]), name
                    np.testing.assert_allclose(got[0], want[-1], rtol=0, atol=1e-12,
                                               err_msg=f"{name} at prefix {n}")

    @staticmethod
    def run_both(model, marks, times, capacity):
        """The exception types that stepping through the actions and one
        forward pass over all of them raise (None for no error)."""
        def outcome(call):
            try:
                call()
            except (DataError, CapacityError, NumericError) as e:
                return type(e)
            return None

        def steps():
            cache = DecodeCache(model.config, capacity)
            for mark, t in zip(marks, times):
                model.step(cache, mark, t)

        return outcome(steps), outcome(lambda: model.forward(marks, times, Segments(len(marks))))

    @pytest.mark.parametrize("marks,times,error", [
        ([0, 1, 2], [0.0, 1.0, 0.5], DataError),  # time goes backwards
        ([0], [-0.5], DataError),                  # before time zero
        ([0, 5], [0.0, 1.0], DataError),           # mark outside the vocabulary
        ([0, -1], [0.0, 1.0], DataError),
    ], ids=["backwards", "negative_first", "mark_too_large", "mark_negative"])
    def test_keeps_the_data_checks(self, marks, times, error):
        model = make_model(seed=4)
        assert self.run_both(model, marks, times, capacity=8) == (error, error)

    def test_mark_without_cluster(self):
        vocab = Vocab(["a", "b", "c"], ["g0", "g1"], goal_marks=[(0, 1), (1, 2)])
        clusters = ClusterMap(m=2, assignments=[0, 1, 0, 1])
        model = Model.init(ModelConfig(d=4, heads=2, blocks=1, clusters=2, max_len=6),
                           vocab, clusters, seed=0)
        # a model refuses a short table when built; swapped in afterwards,
        # the table's own range check stops both paths
        model.clusters = ClusterMap(m=2, assignments=[0, 1])
        assert self.run_both(model, [0, 2], [0.0, 1.0], 6) == (DataError, DataError)

    def test_non_finite_is_numeric_error(self):
        model = make_model(seed=5)
        model.store["block0.attn.wq"].data[0, 0] = np.nan
        assert self.run_both(model, [0, 1], [0.0, 1.0], 8) == (NumericError, NumericError)

    def test_overflowing_time_is_numeric_error(self):
        model = make_model(seed=5)
        assert self.run_both(model, [0, 1], [0.0, 1e308], 8) == (NumericError, NumericError)

    def test_capacity(self):
        model = make_model(seed=6, max_len=4)  # a 5-row positional table
        marks, times = [0] * 6, np.arange(6.0)
        # a cache holds as many actions as it was made for
        assert self.run_both(model, marks[:3], times[:3], 2)[0] is CapacityError
        assert self.run_both(model, marks[:5], times[:5], 5) == (None, None)
        # beyond the positional table, a larger cache still refuses the action
        assert self.run_both(model, marks, times, 6) == (CapacityError, CapacityError)


def assert_same_generation(got, want):
    (seq, reason), (ref_seq, ref_reason) = got, want
    assert reason == ref_reason
    assert seq.id == ref_seq.id and seq.goal == ref_seq.goal
    assert seq.marks().tolist() == ref_seq.marks().tolist()
    np.testing.assert_allclose(seq.times(), ref_seq.times(), rtol=0, atol=1e-12)


class TestMatchesReencodingOracle:
    """generate equals the loop that re-encodes the whole prefix each step."""

    @pytest.mark.parametrize("arch", ARCHS, ids=arch_id)
    @pytest.mark.parametrize("mode", MODES)
    def test_random_models(self, arch, mode):
        reasons = set()
        for trial in range(12):
            model = make_model(seed=trial, max_len=12, **arch)
            if trial % 3 == 0:  # no mismatch, no terminal mark: runs to the cap
                force_goal(model, trial % 2)
                model.store["mark.bias"].data[model.vocab.eos_id] = -50.0
            req = GenRequest(goal=trial % 2, first_mark=trial % 3, first_t=0.3 * trial,
                             seed=trial, mode=mode)
            got = generate(model, req, seq_id=f"g{trial}")
            assert_same_generation(got, reference.generate(model, req, seq_id=f"g{trial}"))
            reasons.add(got[1])
        assert "max_len" in reasons

    def test_explicit_rng(self):
        model = make_model(seed=9, variant="plus", blocks=2)
        req = GenRequest(goal=0, first_mark=1, max_len=6)
        for seed in range(8):
            assert_same_generation(
                generate(model, req, rng=np.random.default_rng([seed, 1])),
                reference.generate(model, req, rng=np.random.default_rng([seed, 1])))
