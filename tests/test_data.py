"""Tests for corpus I/O, splitting, terminal augmentation, clustering,
and the random-deletion transform."""

import itertools
import json
import logging
from dataclasses import dataclass, field

import numpy as np
import pytest

from actionflow.data import (
    EOS_NAME,
    Action,
    ClusterMap,
    Ctas,
    DataError,
    ParseError,
    Vocab,
    append_eos,
    append_eos_corpus,
    build_clusters,
    delete_random,
    load_corpus,
    median_gap,
    observed_marks_by_goal,
    read_record,
    remap_corpus,
    split_by_goal,
    write_corpus,
)


def seq(idx, goal, marks, times):
    return Ctas(id=f"s{idx}", goal=goal,
                actions=[Action(m, float(t)) for m, t in zip(marks, times)])


def random_corpus(rng, n, n_marks=5, n_goals=2, min_len=2, max_len=8):
    corpus = []
    for i in range(n):
        k = int(rng.integers(min_len, max_len + 1))
        marks = rng.integers(0, n_marks, size=k).tolist()
        times = np.cumsum(rng.uniform(0.1, 2.0, size=k))
        corpus.append(seq(i, int(rng.integers(0, n_goals)), marks, times))
    return corpus


def write_jsonl(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for r in records:
            fh.write(json.dumps(r) + "\n")


VALID_RECORDS = [
    {"id": "a", "goal": "make_tea", "actions": [
        {"mark": "boil", "t": 0.5}, {"mark": "pour", "t": 2.0}]},
    {"id": "b", "goal": "make_coffee", "actions": [
        {"mark": "grind", "t": 0.0}, {"mark": "boil", "t": 1.0},
        {"mark": "pour", "t": 1.5}]},
]


@dataclass
class Inner:
    name: str
    weights: list[float] = field(default_factory=list)

    def validate(self):
        if len(self.weights) > 2:
            raise ValueError("too many weights")


@dataclass
class Outer:
    count: int
    rate: float = 0.5
    flag: bool = False
    label: str | None = None
    pairs: list[list[int]] = field(default_factory=list)
    inner: Inner = field(default_factory=lambda: Inner("x"))


@dataclass
class Unsupported:
    table: dict = field(default_factory=dict)


class TestReadRecord:
    def test_reads_every_annotation_kind(self):
        rec = read_record(Outer, {"count": 3, "rate": 2, "flag": True, "label": None,
                                  "pairs": [[0, 1]], "inner": {"name": "a", "weights": [1.5]}},
                          "outer")
        assert rec == Outer(3, 2, True, None, [[0, 1]], Inner("a", [1.5]))
        # an int where a float is wanted stays an int, so echoes round-trip
        assert type(rec.rate) is int

    @pytest.mark.parametrize("payload,message", [
        ({"count": 2.5}, "outer key 'count' must be int, got float"),
        ({"count": True}, "outer key 'count' must be int, got bool"),
        ({"count": 1, "rate": "0.5"}, "outer key 'rate' must be float, got str"),
        ({"count": 1, "rate": False}, "outer key 'rate' must be float, got bool"),
        ({"count": 1, "flag": 1}, "outer key 'flag' must be bool, got int"),
        ({"count": 1, "label": 7}, "outer key 'label' must be str, got int"),
        ({"count": 1, "pairs": [[0.5, 1]]}, r"outer key 'pairs'\[0\]\[0\] must be int"),
        ({"count": 1, "pairs": {}}, "outer key 'pairs' must be list, got dict"),
        ({"count": 1, "inner": {"name": 3}}, "outer key 'inner' key 'name' must be str"),
        ({"count": 1, "inner": {"name": "a", "weights": [1, 2, 3]}}, "too many weights"),
        ({"count": 1, "bogus": 0}, "unknown outer key 'bogus'"),
        ({"rate": 0.5}, "outer is missing key 'count'"),
        ([1], "outer must be a JSON object, got list"),
    ])
    def test_rejections_name_the_key(self, payload, message):
        with pytest.raises(ValueError, match=message):
            read_record(Outer, payload, "outer")

    def test_version_key(self):
        assert read_record(Outer, {"count": 1, "version": 2}, "outer", version=2).count == 1
        with pytest.raises(ValueError, match="unsupported outer version 3"):
            read_record(Outer, {"count": 1, "version": 3}, "outer", version=2)
        with pytest.raises(ValueError, match="unknown outer key 'version'"):
            read_record(Outer, {"count": 1, "version": 2}, "outer")

    def test_unsupported_annotation_raises(self):
        with pytest.raises(TypeError, match="no reader"):
            read_record(Unsupported, {"table": {}}, "unsupported")


class TestSequenceInvariants:
    def test_non_increasing_times_rejected(self):
        s = seq(0, 0, [0, 1], [1.0, 1.0])
        with pytest.raises(DataError, match="s0") as err:
            s.validate()
        assert "1" in str(err.value)  # offending index named

    def test_empty_action_list_rejected(self):
        with pytest.raises(DataError):
            Ctas(id="x", goal=0, actions=[]).validate()

    def test_negative_goal_rejected(self):
        with pytest.raises(DataError):
            seq(0, -1, [0], [0.0]).validate()

    def test_marks_and_times_are_arrays(self):
        s = seq(0, 0, [3, 1], [0.0, 2.0])
        assert s.marks().tolist() == [3, 1]
        assert s.times().tolist() == [0.0, 2.0]


class TestLoadCorpus:
    def test_two_line_file(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, VALID_RECORDS)
        corpus, vocab = load_corpus(path)
        assert len(corpus) == 2
        assert vocab.mark_names == ["boil", "pour", "grind"]
        assert vocab.goal_names == ["make_tea", "make_coffee"]
        assert vocab.n_marks == 4  # three raw marks plus the terminal
        assert vocab.eos_id == 3

    def test_first_appearance_interning_is_stable(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, VALID_RECORDS)
        corpus, vocab = load_corpus(path)
        assert corpus[0].actions[0].mark == vocab.mark_id("boil") == 0
        assert corpus[1].actions[0].mark == vocab.mark_id("grind") == 2

    def test_equal_times_rejected_with_id(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [{"id": "bad", "goal": "g", "actions": [
            {"mark": "a", "t": 1.0}, {"mark": "b", "t": 1.0}]}])
        with pytest.raises(DataError, match="bad"):
            load_corpus(path)

    def test_unknown_field_names_line_number(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [VALID_RECORDS[0],
                           {"id": "x", "goal": "g", "actions": [], "extra": 1}])
        with pytest.raises(ParseError, match="line 2"):
            load_corpus(path)

    def test_malformed_json_names_line_number(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"id": "a", "goal": "g", "actions": [{"mark": "m", "t": 0}]}\n{oops\n')
        with pytest.raises(ParseError, match="line 2"):
            load_corpus(path)

    def test_duplicate_id_rejected(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [VALID_RECORDS[0], VALID_RECORDS[0]])
        with pytest.raises(DataError, match="duplicate"):
            load_corpus(path)

    def test_reserved_terminal_name_rejected(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [{"id": "a", "goal": "g", "actions": [
            {"mark": EOS_NAME, "t": 0.0}]}])
        with pytest.raises(ParseError, match="line 1"):
            load_corpus(path)

    def test_boolean_time_rejected(self, tmp_path):
        # bool is an int subclass in Python; the schema must not accept it
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [{"id": "a", "goal": "g", "actions": [
            {"mark": "m", "t": True}]}])
        with pytest.raises(ParseError):
            load_corpus(path)

    def test_round_trip_preserves_structure(self, tmp_path):
        rng = np.random.default_rng(11)
        corpus = random_corpus(rng, 20)
        vocab = Vocab([f"m{i}" for i in range(5)], ["g0", "g1"])
        out = tmp_path / "out.jsonl"
        write_corpus(corpus, vocab, out)
        loaded, loaded_vocab = load_corpus(out)
        assert len(loaded) == len(corpus)
        for a, b in zip(corpus, loaded):
            assert a.id == b.id
            assert vocab.goal_names[a.goal] == loaded_vocab.goal_names[b.goal]
            assert [vocab.mark_name(x.mark) for x in a.actions] == \
                   [loaded_vocab.mark_name(x.mark) for x in b.actions]
            np.testing.assert_array_equal(a.times(), b.times())

    def test_write_rejects_terminal_marks(self, tmp_path):
        vocab = Vocab(["m0"], ["g0"])
        s = seq(0, 0, [0], [0.0])
        s = append_eos(s, 1.0, vocab.eos_id)
        with pytest.raises(DataError, match="terminal"):
            write_corpus([s], vocab, tmp_path / "x.jsonl")


class TestVocab:
    def test_reserved_name_cannot_be_raw_mark(self):
        with pytest.raises(DataError):
            Vocab(["a", EOS_NAME], ["g"])

    def test_duplicate_names_rejected(self):
        with pytest.raises(DataError):
            Vocab(["a", "a"], ["g"])
        with pytest.raises(DataError):
            Vocab(["a"], ["g", "g"])

    def test_unknown_lookups_raise(self):
        vocab = Vocab(["a"], ["g"])
        with pytest.raises(DataError):
            vocab.mark_id("zzz")
        with pytest.raises(DataError):
            vocab.goal_id("zzz")

    def test_terminal_name_resolves_to_eos_id(self):
        vocab = Vocab(["a", "b"], ["g"])
        assert vocab.mark_id(EOS_NAME) == vocab.eos_id == 2
        assert vocab.mark_name(vocab.eos_id) == EOS_NAME

    def test_dict_round_trip(self):
        vocab = Vocab(["a", "b"], ["g0", "g1"], goal_marks={0: (0,), 1: (0, 1)})
        clone = Vocab.from_dict(vocab.to_dict())
        assert clone.mark_names == vocab.mark_names
        assert clone.goal_names == vocab.goal_names
        assert clone.goal_marks == vocab.goal_marks

    def test_marks_for_goal_requires_built_sets(self):
        vocab = Vocab(["a"], ["g"])
        with pytest.raises(DataError):
            vocab.marks_for_goal(0)


class TestSplitByGoal:
    def test_single_goal_80_20(self):
        corpus = [seq(i, 0, [0, 1], [0.0, 1.0]) for i in range(10)]
        train, test = split_by_goal(corpus, 0.8, seed=0)
        assert len(train) == 8
        assert len(test) == 2

    def test_two_goals_five_each(self):
        corpus = [seq(i, i % 2, [0, 1], [0.0, 1.0]) for i in range(10)]
        train, test = split_by_goal(corpus, 0.8, seed=0)
        assert len(train) == 8 and len(test) == 2
        for side, per_goal in ((train, 4), (test, 1)):
            for g in (0, 1):
                assert sum(1 for s in side if s.goal == g) == per_goal

    def test_fraction_one_rejected(self):
        corpus = [seq(i, 0, [0], [0.0]) for i in range(4)]
        with pytest.raises(DataError):
            split_by_goal(corpus, 1.0, seed=0)
        with pytest.raises(DataError):
            split_by_goal(corpus, 0.0, seed=0)

    def test_singleton_goal_rejected_with_goal_listed(self):
        corpus = [seq(0, 0, [0], [0.0]), seq(1, 0, [0], [0.0]),
                  seq(2, 7, [0], [0.0])]
        with pytest.raises(DataError, match="7"):
            split_by_goal(corpus, 0.8, seed=0)

    def test_partition_property(self):
        rng = np.random.default_rng(3)
        for trial in range(20):
            corpus = random_corpus(rng, int(rng.integers(4, 40)), n_goals=3)
            counts = {}
            for s in corpus:
                counts[s.goal] = counts.get(s.goal, 0) + 1
            if min(counts.values(), default=0) < 2 or len(counts) < 3:
                continue
            train, test = split_by_goal(corpus, 0.8, seed=trial)
            ids = sorted(s.id for s in train) + sorted(s.id for s in test)
            assert sorted(ids) == sorted(s.id for s in corpus)
            assert not set(s.id for s in train) & set(s.id for s in test)
            for g, n in counts.items():
                n_train = sum(1 for s in train if s.goal == g)
                n_test = n - n_train
                assert n_test >= 1
                assert abs(n_train - 0.8 * n) <= 1.0

    def test_deterministic_and_order_preserving(self):
        corpus = [seq(i, i % 2, [0, 1], [0.0, 1.0]) for i in range(20)]
        a_train, a_test = split_by_goal(corpus, 0.8, seed=5)
        b_train, b_test = split_by_goal(corpus, 0.8, seed=5)
        assert [s.id for s in a_train] == [s.id for s in b_train]
        assert [s.id for s in a_test] == [s.id for s in b_test]
        # outputs keep the original corpus order within each side
        positions = {s.id: i for i, s in enumerate(corpus)}
        assert [positions[s.id] for s in a_train] == sorted(positions[s.id] for s in a_train)


class TestAppendEos:
    def test_single_action_gap_one(self):
        s = seq(0, 0, [0], [1.0])
        out = append_eos(s, 1.0, eos_id=5)
        assert [(a.mark, a.t) for a in out.actions] == [(0, 1.0), (5, 2.0)]
        assert len(s.actions) == 1  # input untouched

    def test_zero_gap_rejected(self):
        with pytest.raises(DataError):
            append_eos(seq(0, 0, [0], [1.0]), 0.0, eos_id=5)

    def test_double_termination_rejected(self):
        s = append_eos(seq(0, 0, [0], [1.0]), 1.0, eos_id=5)
        with pytest.raises(DataError, match="already"):
            append_eos(s, 1.0, eos_id=5)

    def test_corpus_wide_every_sequence_terminated(self):
        rng = np.random.default_rng(5)
        corpus = random_corpus(rng, 30)
        out = append_eos_corpus(corpus, 0.5, eos_id=5)
        assert all(s.actions[-1].mark == 5 for s in out)
        assert all(len(a.actions) == len(b.actions) + 1
                   for a, b in zip(out, corpus))
        for s in out:
            s.validate()


class TestClusters:
    def make_corpus_with_means(self, means, reps=4):
        # mark i always followed (gap means[i]) by a closing mark len(means)
        corpus = []
        idx = 0
        for i, mu in enumerate(means):
            for _ in range(reps):
                corpus.append(seq(idx, 0, [i, len(means)], [0.0, mu]))
                idx += 1
        return corpus

    def test_m1_all_in_cluster_zero(self):
        corpus = self.make_corpus_with_means([1.0, 2.0, 3.0])
        cm = build_clusters(corpus, 1, seed=0)
        assert set(cm.mark_to_cluster.values()) == {0}

    def test_singleton_clusters_when_m_equals_marks(self):
        corpus = self.make_corpus_with_means([1.0, 5.0, 25.0])
        cm = build_clusters(corpus, 4, seed=0)
        labels = cm.clusters_of(range(4))
        assert sorted(labels) == [0, 1, 2, 3]

    def test_two_well_separated_pairs(self):
        # exhaustive 1-D partition oracle: {1.0, 1.1} vs {9.0, 9.2} is the
        # unique 2-cluster split minimizing within-cluster squared error
        means = [1.0, 1.1, 9.0, 9.2]
        corpus = self.make_corpus_with_means(means)
        cm = build_clusters(corpus, 2, seed=0)
        c0, c1, c2, c3 = cm.clusters_of([0, 1, 2, 3])
        assert c0 == c1
        assert c2 == c3
        assert c0 != c2

    def test_partition_oracle_matches_kmeans_on_random_means(self):
        best = None
        means = [1.0, 1.1, 9.0, 9.2]
        values = np.array(means)
        for size in range(1, 4):
            for combo in itertools.combinations(range(4), size):
                left = values[list(combo)]
                right = np.delete(values, list(combo))
                sse = np.sum((left - left.mean()) ** 2) + np.sum((right - right.mean()) ** 2)
                if best is None or sse < best[0]:
                    best = (sse, set(combo))
        assert best[1] in ({0, 1}, {2, 3})

    def test_mean_is_gap_to_next_action(self):
        corpus = [seq(0, 0, [0, 1, 0, 1], [0.0, 2.0, 3.0, 7.0])]
        cm = build_clusters(corpus, 1, seed=0)
        assert cm.mark_means[0] == pytest.approx((2.0 + 4.0) / 2.0)
        assert cm.mark_means[1] == pytest.approx(1.0)

    def test_final_occurrence_contributes_nothing(self):
        corpus = [seq(0, 0, [0, 1], [0.0, 1.0]),
                  seq(1, 0, [1, 0], [0.0, 3.0])]
        cm = build_clusters(corpus, 1, seed=0)
        assert cm.mark_means[0] == pytest.approx(1.0)
        assert cm.mark_means[1] == pytest.approx(3.0)

    def test_no_follower_mark_gets_global_mean(self, caplog):
        # mark 1 only ever appears last
        corpus = [seq(0, 0, [0, 1], [0.0, 2.0]),
                  seq(1, 0, [0, 1], [0.0, 4.0])]
        with caplog.at_level(logging.WARNING, logger="actionflow.data"):
            cm = build_clusters(corpus, 1, seed=0)
        assert cm.mark_means[1] == pytest.approx(3.0)
        assert any("no observed follower" in r.message for r in caplog.records)

    def test_m_above_distinct_marks_rejected(self):
        corpus = self.make_corpus_with_means([1.0, 2.0])
        with pytest.raises(DataError):
            build_clusters(corpus, 4, seed=0)
        with pytest.raises(DataError):
            build_clusters(corpus, 0, seed=0)

    def test_m_above_distinct_mean_gaps_rejected(self):
        # marks 0 and 1 share a mean gap, and mark 2 falls back to the global
        # mean, which is the same 2.0
        corpus = self.make_corpus_with_means([2.0, 2.0])
        build_clusters(corpus, 1, seed=0)
        with pytest.raises(DataError, match=r"cluster count 2 outside \[1, 1\]: 3 marks"):
            build_clusters(corpus, 2, seed=0)

    def test_deterministic_under_seed(self):
        rng = np.random.default_rng(9)
        corpus = random_corpus(rng, 40, n_marks=6)
        a = build_clusters(corpus, 3, seed=4)
        b = build_clusters(corpus, 3, seed=4)
        assert a.mark_to_cluster == b.mark_to_cluster
        assert a.mark_means == b.mark_means

    def test_terminal_inherits_most_frequent_marks_cluster(self):
        # mark 0 occurs 8 times, mark 1 and 2 occur 4 each
        corpus = [seq(i, 0, [0, 1, 0, 2], [0.0, 1.0, 2.0, 10.0]) for i in range(4)]
        cm = build_clusters(corpus, 2, seed=0, eos_id=3)
        terminal, mark0 = cm.clusters_of([3, 0])
        assert terminal == mark0

    def test_terminal_tie_breaks_to_lowest_id(self):
        corpus = [seq(0, 0, [1, 0], [0.0, 1.0]),
                  seq(1, 0, [0, 1], [0.0, 8.0])]
        cm = build_clusters(corpus, 2, seed=0, eos_id=2)
        terminal, mark0 = cm.clusters_of([2, 0])
        assert terminal == mark0

    def test_dict_round_trip(self):
        cm = ClusterMap(m=2, mark_to_cluster={0: 0, 1: 1, 2: 1},
                        mark_means={0: 1.0, 1: 2.0, 2: 2.5})
        clone = ClusterMap.from_dict(cm.to_dict())
        assert clone.m == cm.m
        assert clone.mark_to_cluster == cm.mark_to_cluster
        assert clone.mark_means == cm.mark_means

    def test_unassigned_mark_raises(self):
        cm = ClusterMap(m=1, mark_to_cluster={0: 0})
        with pytest.raises(DataError, match="mark id 3 has no duration cluster"):
            cm.clusters_of([3])

    def test_clusters_of_matches_cluster_of(self):
        cm = ClusterMap(m=3, mark_to_cluster={0: 2, 1: 0, 3: 1, 4: 2})
        marks = np.array([4, 0, 0, 3, 1, 4])
        np.testing.assert_array_equal(cm.clusters_of(marks),
                                      [cm.mark_to_cluster[int(m)] for m in marks])
        assert cm.clusters_of(marks).dtype == np.intp

    @pytest.mark.parametrize("bad", [2, 5, 17, -1])
    def test_clusters_of_names_an_unassigned_mark(self, bad):
        cm = ClusterMap(m=3, mark_to_cluster={0: 2, 1: 0, 3: 1, 4: 2})
        with pytest.raises(DataError, match=f"mark id {bad} has no duration cluster"):
            cm.clusters_of([0, 1, bad, 3])


class TestDeleteRandom:
    def test_fraction_zero_is_identity(self):
        rng = np.random.default_rng(2)
        corpus = random_corpus(rng, 10)
        out = delete_random(corpus, 0.0, seed=0)
        assert [(s.id, [(a.mark, a.t) for a in s.actions]) for s in out] == \
               [(s.id, [(a.mark, a.t) for a in s.actions]) for s in corpus]

    def test_ten_actions_forty_percent(self):
        marks = list(range(10))
        corpus = [seq(0, 0, marks, np.arange(10, dtype=float))]
        out = delete_random(corpus, 0.4, seed=1)
        assert len(out[0].actions) == 6
        assert out[0].actions[0].mark == 0  # first action always survives

    def test_output_is_subsequence(self):
        rng = np.random.default_rng(8)
        for trial in range(30):
            corpus = random_corpus(rng, 5, min_len=3, max_len=12)
            out = delete_random(corpus, 0.5, seed=trial)
            for orig, thin in zip(corpus, out):
                pairs = [(a.mark, a.t) for a in orig.actions]
                kept = [(a.mark, a.t) for a in thin.actions]
                it = iter(pairs)
                assert all(p in it for p in kept)
                thin.validate()

    def test_short_sequences_dropped_with_warning(self, caplog):
        corpus = [seq(0, 0, [0, 1], [0.0, 1.0]),
                  seq(1, 0, [0, 1, 2, 3], [0.0, 1.0, 2.0, 3.0])]
        with caplog.at_level(logging.WARNING, logger="actionflow.data"):
            out = delete_random(corpus, 0.5, seed=0)
        assert [s.id for s in out] == ["s1"]
        assert any("dropped" in r.message for r in caplog.records)

    def test_fraction_bounds(self):
        corpus = [seq(0, 0, [0, 1], [0.0, 1.0])]
        with pytest.raises(DataError):
            delete_random(corpus, 1.0, seed=0)
        with pytest.raises(DataError):
            delete_random(corpus, -0.1, seed=0)

    def test_deterministic_under_seed(self):
        rng = np.random.default_rng(4)
        corpus = random_corpus(rng, 20, min_len=4, max_len=10)
        a = delete_random(corpus, 0.4, seed=7)
        b = delete_random(corpus, 0.4, seed=7)
        assert [[x.t for x in s.actions] for s in a] == \
               [[x.t for x in s.actions] for s in b]


class TestMiscDerivations:
    def test_median_gap(self):
        corpus = [seq(0, 0, [0, 1, 2], [0.0, 1.0, 3.0]),
                  seq(1, 0, [0, 1], [0.0, 5.0])]
        assert median_gap(corpus) == pytest.approx(2.0)

    def test_median_gap_needs_transitions(self):
        with pytest.raises(DataError):
            median_gap([seq(0, 0, [0], [0.0])])

    def test_observed_marks_by_goal(self):
        corpus = [seq(0, 0, [0, 1], [0.0, 1.0]),
                  seq(1, 1, [2, 2], [0.0, 1.0]),
                  seq(2, 0, [3], [0.0])]
        sets = observed_marks_by_goal(corpus)
        assert sets == {0: (0, 1, 3), 1: (2,)}

    def test_remap_corpus_by_name(self):
        src = Vocab(["a", "b"], ["g0", "g1"])
        dst = Vocab(["b", "a"], ["g1", "g0"])
        corpus = [seq(0, 0, [0, 1], [0.0, 1.0])]
        out = remap_corpus(corpus, src, dst)
        assert out[0].goal == dst.goal_id("g0") == 1
        assert [a.mark for a in out[0].actions] == [dst.mark_id("a"), dst.mark_id("b")]
        assert [a.t for a in out[0].actions] == [0.0, 1.0]

    def test_remap_unknown_name_raises(self):
        src = Vocab(["a"], ["g"])
        dst = Vocab(["b"], ["g"])
        with pytest.raises(DataError):
            remap_corpus([seq(0, 0, [0], [0.0])], src, dst)
