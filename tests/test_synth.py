"""Tests for the ground-truth synthetic corpus generator."""

import numpy as np
import pytest

from actionflow.data import EOS_NAME, write_record
from actionflow.synth import (
    GoalTemplate,
    SynthSpec,
    SynthSpecError,
    build_vocab,
    generate,
)


def two_goal_spec(count=50, seed=0, swap_prob=0.0, sigma=0.3):
    return SynthSpec(
        goals=[
            GoalTemplate(name="brew", template=["grind", "boil", "pour"],
                         mu=[0.0, 1.0, 0.5], sigma=[sigma] * 3,
                         swap_pairs=[(0, 1)]),
            GoalTemplate(name="bake", template=["mix", "proof", "oven"],
                         mu=[1.0, 0.0, 1.0], sigma=[sigma] * 3,
                         swap_pairs=[(1, 2)]),
        ],
        count=count, seed=seed, swap_prob=swap_prob,
    )


class TestSpecValidation:
    def test_valid_spec_passes(self):
        two_goal_spec().validate()

    def test_empty_template_rejected(self):
        spec = SynthSpec(goals=[GoalTemplate("g", [], [], [])], count=1)
        with pytest.raises(SynthSpecError):
            spec.validate()

    def test_mismatched_parameter_lengths_rejected(self):
        spec = SynthSpec(goals=[GoalTemplate("g", ["a", "b"], [0.0], [1.0, 1.0])],
                         count=1)
        with pytest.raises(SynthSpecError):
            spec.validate()

    def test_nonpositive_sigma_rejected(self):
        spec = SynthSpec(goals=[GoalTemplate("g", ["a"], [0.0], [0.0])], count=1)
        with pytest.raises(SynthSpecError):
            spec.validate()

    def test_swap_pair_out_of_range_rejected(self):
        spec = SynthSpec(goals=[GoalTemplate("g", ["a", "b"], [0.0, 0.0],
                                             [1.0, 1.0], swap_pairs=[(0, 2)])],
                         count=1)
        with pytest.raises(SynthSpecError):
            spec.validate()

    def test_swap_prob_bounds(self):
        spec = two_goal_spec()
        spec.swap_prob = 1.5
        with pytest.raises(SynthSpecError):
            spec.validate()

    def test_duplicate_goal_names_rejected(self):
        g = GoalTemplate("g", ["a"], [0.0], [1.0])
        with pytest.raises(SynthSpecError):
            SynthSpec(goals=[g, g], count=1).validate()

    def test_dict_round_trip(self):
        spec = two_goal_spec(count=7, seed=3, swap_prob=0.2)
        clone = SynthSpec.from_dict(write_record(spec))
        assert write_record(clone) == write_record(spec)

    def test_unknown_field_rejected(self):
        payload = write_record(two_goal_spec())
        payload["bogus"] = 1
        with pytest.raises(SynthSpecError, match="bogus"):
            SynthSpec.from_dict(payload)

    @pytest.mark.parametrize("where,value", [
        ("count", 2.5), ("seed", "7"), ("swap_pair", [0.5, 1]), ("mu", "0.0"),
    ])
    def test_ill_typed_value_rejected(self, where, value):
        payload = write_record(two_goal_spec())
        if where == "swap_pair":
            payload["goals"][0]["swap_pairs"] = [value]
        elif where == "mu":
            payload["goals"][0]["mu"][1] = value
        else:
            payload[where] = value
        with pytest.raises(SynthSpecError, match="must be"):
            SynthSpec.from_dict(payload)

    def test_negative_seed_names_the_key(self):
        payload = write_record(two_goal_spec())
        payload["seed"] = -1
        with pytest.raises(SynthSpecError, match="seed must be non-negative, got -1"):
            SynthSpec.from_dict(payload)

    def test_missing_goal_field_rejected(self):
        payload = write_record(two_goal_spec())
        del payload["goals"][1]["sigma"]
        with pytest.raises(SynthSpecError, match="sigma"):
            SynthSpec.from_dict(payload)

    def test_unsupported_version_rejected(self):
        payload = write_record(two_goal_spec())
        payload["version"] = 99
        with pytest.raises(SynthSpecError):
            SynthSpec.from_dict(payload)


class TestVocabConstruction:
    def test_first_appearance_order(self):
        vocab = build_vocab(two_goal_spec())
        assert vocab.mark_names == ["grind", "boil", "pour", "mix", "proof", "oven"]
        assert vocab.goal_names == ["brew", "bake"]

    def test_shared_marks_not_duplicated(self):
        spec = SynthSpec(goals=[
            GoalTemplate("g0", ["a", "b"], [0.0, 0.0], [1.0, 1.0]),
            GoalTemplate("g1", ["b", "c"], [0.0, 0.0], [1.0, 1.0]),
        ], count=1)
        vocab = build_vocab(spec)
        assert vocab.mark_names == ["a", "b", "c"]


class TestGenerate:
    def test_counts_and_validity(self):
        corpus, vocab = generate(two_goal_spec(count=30, seed=1))
        assert len(corpus) == 30
        for s in corpus:
            s.validate()
            assert 0 <= s.goal < vocab.n_goals
            assert all(a.mark < vocab.eos_id for a in s.actions)
            assert EOS_NAME not in [vocab.mark_name(a.mark) for a in s.actions]

    def test_deterministic_per_seed(self):
        a, _ = generate(two_goal_spec(count=25, seed=9, swap_prob=0.4))
        b, _ = generate(two_goal_spec(count=25, seed=9, swap_prob=0.4))
        assert [(s.id, s.goal, [(x.mark, x.t) for x in s.actions]) for s in a] == \
               [(s.id, s.goal, [(x.mark, x.t) for x in s.actions]) for s in b]
        c, _ = generate(two_goal_spec(count=25, seed=10, swap_prob=0.4))
        assert any(s.actions[0].t != t.actions[0].t for s, t in zip(a, c))

    def test_zero_swap_prob_fixes_mark_order(self):
        corpus, vocab = generate(two_goal_spec(count=60, seed=2, swap_prob=0.0))
        orders = {}
        for s in corpus:
            orders.setdefault(s.goal, set()).add(
                tuple(vocab.mark_name(a.mark) for a in s.actions))
        assert orders[0] == {("grind", "boil", "pour")}
        assert orders[1] == {("mix", "proof", "oven")}

    def test_swap_prob_one_always_swaps(self):
        corpus, vocab = generate(two_goal_spec(count=60, seed=2, swap_prob=1.0))
        for s in corpus:
            names = tuple(vocab.mark_name(a.mark) for a in s.actions)
            if s.goal == 0:
                assert names == ("boil", "grind", "pour")
            else:
                assert names == ("mix", "oven", "proof")

    def test_goal_recoverable_from_mark_multiset(self):
        # disjoint templates: the emitted multiset decides the goal exactly
        corpus, vocab = generate(two_goal_spec(count=200, seed=4, swap_prob=0.5))
        goal_sets = {0: {"grind", "boil", "pour"}, 1: {"mix", "proof", "oven"}}
        for s in corpus:
            observed = {vocab.mark_name(a.mark) for a in s.actions}
            assert observed == goal_sets[s.goal]

    def test_tiny_sigma_recovers_exp_mu(self):
        spec = SynthSpec(
            goals=[GoalTemplate("g", ["a", "b", "c"], [0.0, 1.0, 0.5],
                                [1e-6, 1e-6, 1e-6])],
            count=50, seed=5)
        corpus, _ = generate(spec)
        for s in corpus:
            gaps = np.diff(s.times())
            np.testing.assert_allclose(gaps, [np.e ** 0.0, np.e ** 1.0], rtol=1e-3)

    def test_median_gap_matches_exp_mu_monte_carlo(self):
        # lognormal median is exp(mu); 10k draws pin it within 2 percent
        mu0, mu1 = 0.4, 1.3
        spec = SynthSpec(
            goals=[GoalTemplate("g", ["a", "b", "c"], [mu0, mu1, 0.0],
                                [0.5, 0.5, 0.5])],
            count=10000, seed=6)
        corpus, _ = generate(spec)
        first = np.array([s.actions[1].t - s.actions[0].t for s in corpus])
        second = np.array([s.actions[2].t - s.actions[1].t for s in corpus])
        assert abs(np.median(first) - np.exp(mu0)) / np.exp(mu0) < 0.02
        assert abs(np.median(second) - np.exp(mu1)) / np.exp(mu1) < 0.02

    def test_swap_moves_parameters_with_marks(self):
        # with always-on swaps and tiny sigma, the position-0 gap must carry
        # the swapped-in mark's duration parameter
        spec = SynthSpec(
            goals=[GoalTemplate("g", ["a", "b", "c"], [0.0, 2.0, 0.0],
                                [1e-6] * 3, swap_pairs=[(0, 1)])],
            count=20, seed=7, swap_prob=1.0)
        corpus, vocab = generate(spec)
        for s in corpus:
            assert vocab.mark_name(s.actions[0].mark) == "b"
            gap0 = s.actions[1].t - s.actions[0].t
            np.testing.assert_allclose(gap0, np.exp(2.0), rtol=1e-3)

    def test_start_offset_positive_and_goals_roughly_uniform(self):
        corpus, _ = generate(two_goal_spec(count=400, seed=8))
        assert all(0.0 < s.actions[0].t < 0.25 + 1e-9 for s in corpus)
        share = np.mean([s.goal for s in corpus])
        assert 0.4 < share < 0.6
