"""Tests for goal-conditioned generation and its stopping behavior."""

import numpy as np
import pytest

from actionflow.data import ClusterMap, DataError, Vocab
from actionflow.encoder import CapacityError
from actionflow.generation import (
    MODES,
    TERMINATION_REASONS,
    GenRequest,
    core_actions,
    generate,
)
from actionflow.model import Model, ModelConfig


def make_model(seed=0, max_len=8):
    vocab = Vocab(["a", "b", "c"], ["g0", "g1"],
                  goal_marks={0: (0, 1), 1: (1, 2)})
    cm = ClusterMap(m=2, mark_to_cluster={i: i % 2 for i in range(vocab.n_marks)})
    cfg = ModelConfig(d=4, heads=2, blocks=1, clusters=2, max_len=max_len)
    return Model.init(cfg, vocab, cm, seed=seed)


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
