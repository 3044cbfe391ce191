"""Tests for corpus I/O, splitting, terminal augmentation, clustering,
and the random-deletion transform."""

import json
import logging
import tracemalloc
from dataclasses import dataclass, field

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from actionflow import data
from actionflow.data import (
    EOS_NAME,
    Action,
    ClusterMap,
    Ctas,
    DataError,
    DurationMeans,
    ParseError,
    Vocab,
    append_eos,
    append_eos_corpus,
    build_clusters,
    duration_means,
    decode_vector,
    delete_random,
    encode_vector,
    load_corpus,
    median_gap,
    observed_marks_by_goal,
    read_record,
    remap_corpus,
    split_by_goal,
    write_corpus,
    write_record,
)
from actionflow.model import ModelConfig
from actionflow.training import TrainConfig, prepare


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
    label: str | None = None
    pairs: list[list[int]] = field(default_factory=list)
    inner: Inner = field(default_factory=lambda: Inner("x"))


@dataclass
class Unsupported:
    table: dict = field(default_factory=dict)


@dataclass
class IdKeyed:
    table: dict[int, int] = field(default_factory=dict)


@dataclass
class Saved:
    """A record with tables indexed by id, a float vector and tuples, one
    field saved under another key."""

    table: list[float] = field(metadata={"key": "by_id"})
    nested: list[tuple[int, ...]] = field(default_factory=list)
    vector: np.ndarray | None = None


@dataclass
class VersionedOuter(Outer):
    VERSION = 2


@dataclass
class VersionedSaved(Saved):
    VERSION = 2


class TestReadRecord:
    def test_reads_every_annotation_kind(self):
        rec = read_record(Outer, {"count": 3, "rate": 2, "label": None,
                                  "pairs": [[0, 1]], "inner": {"name": "a", "weights": [1.5]}},
                          "outer")
        assert rec == Outer(3, 2, None, [[0, 1]], Inner("a", [1.5]))
        # an int where a float is wanted stays an int, so echoes round-trip,
        # up to the largest a float64 holds
        assert type(rec.rate) is int
        largest = int(np.finfo(np.float64).max)
        assert read_record(Outer, {"count": 1, "rate": largest}, "outer").rate == largest

    @pytest.mark.parametrize("payload,message", [
        ({"count": 2.5}, "outer key 'count' must be int, got float"),
        ({"count": True}, "outer key 'count' must be int, got bool"),
        ({"count": 1, "rate": "0.5"}, "outer key 'rate' must be float, got str"),
        ({"count": 1, "rate": False}, "outer key 'rate' must be float, got bool"),
        ({"count": 1, "label": False}, "outer key 'label' must be str, got bool"),
        ({"count": 1, "label": 7}, "outer key 'label' must be str, got int"),
        ({"count": 1, "pairs": [[0.5, 1]]}, r"outer key 'pairs'\[0\]\[0\] must be int"),
        ({"count": 1, "pairs": {}}, "outer key 'pairs' must be list, got dict"),
        ({"count": 1, "inner": {"name": 3}}, "outer key 'inner' key 'name' must be str"),
        ({"count": 1, "inner": {"name": "a", "weights": [1, 2, 3]}}, "too many weights"),
        ({"count": 1, "bogus": 0}, "unknown outer key 'bogus'"),
        ({"rate": 0.5}, "outer is missing key 'count'"),
        ([1], "outer must be a JSON object, got list"),
        ({"count": 1, "pairs": [[1, True]]}, r"outer key 'pairs'\[0\]\[1\] must be int, got bool"),
        ({"count": 1, "rate": 10**400}, "outer key 'rate' is an integer too large for a float"),
        ({"count": 1, "rate": -2**1024}, "outer key 'rate' is an integer too large for a float"),
    ])
    def test_rejections_name_the_key(self, payload, message):
        with pytest.raises(ValueError, match=message):
            read_record(Outer, payload, "outer")

    def test_version_key(self):
        assert read_record(VersionedOuter, {"count": 1, "version": 2}, "outer").count == 1
        with pytest.raises(ValueError, match="unsupported outer version 3"):
            read_record(VersionedOuter, {"count": 1, "version": 3}, "outer")
        # a class without a VERSION has no version key
        with pytest.raises(ValueError, match="unknown outer key 'version'"):
            read_record(Outer, {"count": 1, "version": 2}, "outer")

    def test_write_record_orders_ids_and_lists_tuples(self):
        rec = Saved(table=[0.5, 1], nested=[(), (4, 5)], vector=np.array([0.5]))
        payload = write_record(rec)
        assert json.dumps(payload) == json.dumps(
            {"by_id": [0.5, 1], "nested": [[], [4, 5]],
             "vector": encode_vector(np.array([0.5]))})
        assert write_record(VersionedOuter(1)) == {"version": 2, **write_record(Outer(1))}
        assert list(write_record(VersionedOuter(1))) == [
            "version", "count", "rate", "label", "pairs", "inner"]

    def test_reads_ids_vectors_and_saved_keys(self):
        rec = read_record(Saved, {"by_id": [1.5, 2], "nested": [[], [4, 5]],
                                  "vector": encode_vector(np.array([0.5, -1.0]))}, "saved")
        assert rec.table == [1.5, 2] and rec.nested == [(), (4, 5)]
        assert rec.vector.dtype == np.float64 and rec.vector.tolist() == [0.5, -1.0]
        with pytest.raises(ValueError, match="unknown saved key 'table'"):
            read_record(Saved, {"table": []}, "saved")

    @pytest.mark.parametrize("key", ["01", "-1", "+1", "1.0", " 1", "a", "", "\u0661"])
    def test_malformed_id_key_rejected(self, key):
        # an id is a JSON integer: its decimal spelling as a string is refused
        with pytest.raises(ValueError, match=r"saved key 'nested'\[0\]\[0\] must be int, got str"):
            read_record(Saved, {"by_id": [], "nested": [[key]]}, "saved")

    @pytest.mark.parametrize("payload,message", [
        ({"by_id": ["1.5"]}, r"saved key 'by_id'\[0\] must be float, got str"),
        ({"by_id": [], "nested": ["ab"]}, r"saved key 'nested'\[0\] must be tuple"),
        ({"by_id": [], "nested": [[1, 2.5]]}, r"saved key 'nested'\[0\]\[1\] must be int"),
        ({"by_id": [], "vector": [0.5]}, "saved key 'vector' must be a base64 string, got list"),
        ({"by_id": [], "vector": 0.5}, "must be a base64 string, got float"),
        # without the '*' this is valid base64 for one float64
        ({"by_id": [], "vector": "AAAA*AAAAAAA="}, "saved key 'vector' is not valid base64"),
        ({"by_id": [], "vector": "AAAAAAAAAAA"}, "is not valid base64: Incorrect padding"),
        ({"by_id": [], "vector": "AAAAAAAA\u00e9AAA"}, "is not valid base64"),
        ({"by_id": [], "vector": "AAAAAAAAAAAAAAAA"}, "holds 12 bytes, not a whole number"),
        ({"by_id": [], "vector": encode_vector(np.array([0.5, np.nan]))},
         "saved key 'vector' holds a non-finite"),
        ({"by_id": [], "vector": encode_vector(np.array([-np.inf]))}, "holds a non-finite value"),
        ({"by_id": [10**400]}, r"saved key 'by_id'\[0\] is an integer too large"),
    ])
    def test_id_object_and_vector_rejections(self, payload, message):
        with pytest.raises(ValueError, match=message):
            read_record(Saved, payload, "saved")

    def test_vector_is_checked_in_one_call(self, monkeypatch):
        calls = []
        check = data._check
        monkeypatch.setattr(data, "_check", lambda *a: calls.append(a[0]) or check(*a))
        read_record(Saved, {"by_id": [], "vector": encode_vector(np.full(1000, 0.25))}, "saved")
        assert calls == [list[float], np.ndarray | None, np.ndarray]

    def test_required_version_is_an_int_checked_first(self):
        assert read_record(VersionedSaved, {"version": 2, "by_id": [1.5]}, "saved",
                           require_version=True).table == [1.5]
        with pytest.raises(ValueError, match="saved is missing key 'version'"):
            read_record(VersionedSaved, {"by_id": []}, "saved", require_version=True)
        # left out, the version is only refused when required
        assert read_record(VersionedSaved, {"by_id": []}, "saved").table == []
        for bad in (2.0, True, "2"):
            with pytest.raises(ValueError, match="saved key 'version' must be int"):
                read_record(VersionedSaved, {"version": bad, "by_id": []}, "saved")
        # the version is refused before any other key is read
        with pytest.raises(ValueError, match="unsupported saved version 1"):
            read_record(VersionedSaved, {"by_id": ["x"], "version": 1}, "saved")

    def test_unsupported_annotation_raises(self):
        # a JSON object keyed by ids is not a saved form: such a table is a list
        for cls in (Unsupported, IdKeyed):
            with pytest.raises(TypeError, match="no reader"):
                read_record(cls, {"table": {}}, "unsupported")
            with pytest.raises(TypeError, match="no writer"):
                write_record(cls())


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
        vocab = Vocab(["a", "b"], ["g0", "g1"], goal_marks=[(0,), (0, 1)])
        clone = read_record(Vocab, write_record(vocab), "vocab")
        assert clone.mark_names == vocab.mark_names
        assert clone.goal_names == vocab.goal_names
        assert clone.goal_marks == vocab.goal_marks

    @pytest.mark.parametrize("goal_marks,message", [
        ([[0], [0], [0]], r"goal_marks needs one entry per goal \(2\), got 3"),
        ([[0], [2]], r"goal_marks entry 1: \[2\] lies outside 2 raw marks"),
        ([[-1], [0]], r"goal_marks entry 0: \[-1\] lies outside"),
        ([[0]], r"goal_marks needs one entry per goal \(2\), got 1"),
    ], ids=["goal_marks0", "goal_marks1", "goal_marks2", "one_goal_short"])
    def test_loaded_goal_marks_must_lie_inside_the_vocabulary(self, goal_marks, message):
        # two goals and two raw marks: a third goal, mark 2 (the terminal)
        # and -1 lie outside, and the second goal needs a set
        payload = {"marks": ["a", "b"], "goals": ["g0", "g1"], "goal_marks": goal_marks}
        with pytest.raises(DataError, match=message):
            read_record(Vocab, payload, "vocab")

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


def splits(n, m):
    """Every split of n items into m non-empty clusters, once each: the
    labellings in which each cluster first appears after the ones before it."""
    def grow(labels, used):
        if len(labels) == n:
            if used == m:
                yield labels
            return
        for c in range(min(used + 1, m)):
            yield from grow(labels + [c], max(used, c + 1))
    return grow([], 0)


def within_cluster_error(values, labels):
    """Sum of squared distances to the cluster means, each cluster taken
    relative to one of its values so that gaps near 1e6 keep their spread."""
    total = 0.0
    for c in set(labels):
        v = np.array([x for x, label in zip(values, labels) if label == c])
        v -= v[0]
        total += float(((v - v.mean()) ** 2).sum())
    return total


class TestClusters:
    def make_corpus_with_means(self, means, reps=4):
        # mark i always followed (gap means[i]) by a closing mark len(means);
        # the terminal mark is len(means) + 1
        corpus = []
        idx = 0
        for i, mu in enumerate(means):
            for _ in range(reps):
                corpus.append(seq(idx, 0, [i, len(means)], [0.0, mu]))
                idx += 1
        return corpus

    def test_m1_all_in_cluster_zero(self):
        corpus = self.make_corpus_with_means([1.0, 2.0, 3.0])
        cm = build_clusters(duration_means(corpus, 4), 1)
        assert cm.assignments == [0] * 5

    def test_singleton_clusters_when_m_equals_marks(self):
        corpus = self.make_corpus_with_means([1.0, 5.0, 25.0])
        cm = build_clusters(duration_means(corpus, 4), 4)
        labels = cm.clusters_of(range(4))
        assert sorted(labels) == [0, 1, 2, 3]

    def test_two_well_separated_pairs(self):
        # exhaustive 1-D partition oracle: {1.0, 1.1} vs {9.0, 9.2} is the
        # unique 2-cluster split minimizing within-cluster squared error
        means = [1.0, 1.1, 9.0, 9.2]
        corpus = self.make_corpus_with_means(means)
        cm = build_clusters(duration_means(corpus, 5), 2)
        c0, c1, c2, c3 = cm.clusters_of([0, 1, 2, 3])
        assert c0 == c1
        assert c2 == c3
        assert c0 != c2

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(drawn=st.data())
    def test_partition_oracle_matches_kmeans_on_random_means(self, drawn):
        # up to 7 marks drawn from a pool of gaps, so that marks can tie; the
        # gaps near 1e6 differ in their last digits
        gap = st.one_of(st.floats(1e-3, 1e3), st.floats(1e6 - 1e-3, 1e6 + 1e-3))
        pool = drawn.draw(st.lists(gap, min_size=1, max_size=7))
        means = drawn.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=7))
        counts = drawn.draw(st.lists(st.integers(1, 3), min_size=len(means),
                                    max_size=len(means)))
        durations = DurationMeans(counts, means, [])
        for m in range(1, durations.distinct + 1):
            labels = build_clusters(durations, m).assignments
            terminal, labels = labels[-1], labels[:-1]
            best = min(within_cluster_error(means, split)
                       for split in splits(len(means), m))
            assert within_cluster_error(means, labels) <= best * (1 + 1e-9)
            order = sorted(range(len(means)), key=lambda mk: means[mk])
            assert [labels[mk] for mk in order] == sorted(labels)
            assert set(labels) == set(range(m))
            assert all(labels[i] == labels[j] for i in range(len(means))
                       for j in range(len(means)) if means[i] == means[j])
            assert terminal == labels[max(range(len(means)),
                                          key=lambda mk: (counts[mk], -mk))]

    def test_means_match_the_per_action_loop(self):
        # the loop duration_means replaced; numpy sums in another order, so
        # the means agree to rounding and everything else exactly
        rng = np.random.default_rng(3)
        for trial in range(20):
            corpus = random_corpus(rng, int(rng.integers(1, 12)), n_marks=6, min_len=1)
            if all(len(s) == 1 for s in corpus):
                continue
            gaps = {}
            counts = [0] * 7
            for s in corpus:
                for a, b in zip(s.actions, s.actions[1:] + [None]):
                    counts[a.mark] += 1
                    if b is not None:
                        gaps.setdefault(a.mark, []).append(b.t - a.t)
            pooled = np.mean([g for mk in sorted(gaps) for g in gaps[mk]])
            got = duration_means(corpus, 7)
            assert got.counts == counts
            assert got.unfollowed == [mk for mk in range(7) if mk not in gaps]
            want = [np.mean(gaps[mk]) if mk in gaps else pooled for mk in range(7)]
            np.testing.assert_allclose(got.means, want, rtol=1e-13)
            all_gaps = [g for s in corpus for g in np.diff(s.times()).tolist()]
            assert median_gap(corpus) == float(np.median(all_gaps))

    def test_huge_gaps_fill_every_cluster(self):
        # squares of gaps near 1e200 overflow unless the gaps are scaled first
        durations = DurationMeans([1] * 4, [1e200, 2e200, 5e200, 5.5e200], [])
        assert build_clusters(durations, 3).assignments == [0, 1, 2, 2, 0]

    @pytest.mark.parametrize("block", [2, 3, 5])
    def test_blocks_of_start_rows_find_the_same_runs(self, monkeypatch, block):
        # integer gaps make equal-error splits, so ties must go to the first
        # start across blocks as they do within one
        rng = np.random.default_rng(block)
        for _ in range(30):
            values = np.unique(rng.integers(0, 20, size=int(rng.integers(1, 12)))) + 1.0
            weights = rng.integers(1, 4, size=values.size).astype(float)
            for m in range(1, values.size + 1):
                want = data._optimal_runs(values, weights, m)
                with monkeypatch.context() as patch:
                    patch.setattr(data, "RUN_BLOCK", block)
                    got = data._optimal_runs(values, weights, m)
                np.testing.assert_array_equal(got, want, err_msg=f"{values} {weights} {m}")

    def test_memory_grows_with_the_distinct_gaps_not_their_square(self):
        # one 2,000 x 2,000 float64 table of run errors alone takes 32 MB
        means = np.random.default_rng(4).uniform(0.1, 100.0, size=2000).tolist()
        tracemalloc.start()
        try:
            cm = build_clusters(DurationMeans([1] * 2000, means, []), 8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sorted(set(cm.assignments)) == list(range(8))
        assert peak < 32e6

    def test_mean_is_gap_to_next_action(self):
        corpus = [seq(0, 0, [0, 1, 0, 1], [0.0, 2.0, 3.0, 7.0])]
        _, means, _ = data.duration_means(corpus, 2)
        assert means[0] == pytest.approx((2.0 + 4.0) / 2.0)
        assert means[1] == pytest.approx(1.0)

    def test_final_occurrence_contributes_nothing(self):
        corpus = [seq(0, 0, [0, 1], [0.0, 1.0]),
                  seq(1, 0, [1, 0], [0.0, 3.0])]
        counts, means, unfollowed = data.duration_means(corpus, 2)
        assert counts == [2, 2] and unfollowed == []
        assert means[0] == pytest.approx(1.0)
        assert means[1] == pytest.approx(3.0)

    def test_no_follower_mark_gets_global_mean(self, caplog):
        # mark 1 only ever appears last
        corpus = [seq(0, 0, [0, 1], [0.0, 2.0]),
                  seq(1, 0, [0, 1], [0.0, 4.0])]
        _, means, unfollowed = data.duration_means(corpus, 2)
        assert unfollowed == [1]
        assert means[1] == pytest.approx(3.0)
        with caplog.at_level(logging.INFO, logger="actionflow.data"):
            build_clusters(duration_means(corpus, 2), 1)
        # every template's last mark has no follower: a notice, not a warning
        assert [(r.levelno, r.message) for r in caplog.records
                if "no observed follower" in r.message] == [
            (logging.INFO, "mark id 1 has no observed follower; using global mean 3")]

    def test_absent_mark_gets_global_mean(self):
        # mark 2 never occurs, so, like mark 1, which is never followed, it
        # takes the global mean gap 5 and shares mark 1's cluster
        corpus = [seq(0, 0, [0, 1], [0.0, 2.0]), seq(1, 0, [0, 1], [0.0, 4.0]),
                  seq(2, 0, [3, 0], [0.0, 9.0])]
        counts, means, unfollowed = data.duration_means(corpus, 4)
        assert counts == [3, 2, 0, 1] and unfollowed == [1, 2]
        assert means == pytest.approx([3.0, 5.0, 5.0, 9.0])
        cm = build_clusters(duration_means(corpus, 4), 3)
        c0, c1, c2, c3, terminal = cm.assignments
        assert c2 == c1 and terminal == c0 and len({c0, c1, c3}) == 3

    def test_m_above_distinct_marks_rejected(self):
        corpus = self.make_corpus_with_means([1.0, 2.0])
        with pytest.raises(DataError):
            build_clusters(duration_means(corpus, 3), 4)
        with pytest.raises(DataError):
            build_clusters(duration_means(corpus, 3), 0)

    def test_m_above_distinct_mean_gaps_rejected(self):
        # marks 0 and 1 share a mean gap, and mark 2 falls back to the global
        # mean, which is the same 2.0
        corpus = self.make_corpus_with_means([2.0, 2.0])
        build_clusters(duration_means(corpus, 3), 1)
        with pytest.raises(DataError, match=r"cluster count 2 outside \[1, 1\]: 3 marks"):
            build_clusters(duration_means(corpus, 3), 2)

    def test_deterministic_under_seed(self):
        # the clustering draws nothing: the train seed does not move it
        rng = np.random.default_rng(9)
        corpus = random_corpus(rng, 40, n_marks=6)
        vocab = Vocab([f"m{i}" for i in range(6)], ["g0", "g1"])
        a, b = (prepare(corpus, vocab, ModelConfig(d=8, heads=2, blocks=1, clusters=3),
                        TrainConfig(seed=seed), do_split=False).clusters
                for seed in (0, 5))
        assert a == b
        assert set(a.assignments) == {0, 1, 2}

    def test_terminal_inherits_most_frequent_marks_cluster(self):
        # mark 0 occurs 8 times, mark 1 and 2 occur 4 each
        corpus = [seq(i, 0, [0, 1, 0, 2], [0.0, 1.0, 2.0, 10.0]) for i in range(4)]
        cm = build_clusters(duration_means(corpus, 3), 2)
        terminal, mark0 = cm.clusters_of([3, 0])
        assert terminal == mark0

    def test_terminal_tie_breaks_to_lowest_id(self):
        corpus = [seq(0, 0, [1, 0], [0.0, 1.0]),
                  seq(1, 0, [0, 1], [0.0, 8.0])]
        cm = build_clusters(duration_means(corpus, 2), 2)
        terminal, mark0 = cm.clusters_of([2, 0])
        assert terminal == mark0

    def test_dict_round_trip(self):
        cm = ClusterMap(m=2, assignments=[0, 1, 1])
        payload = write_record(cm)
        assert payload == {"m": 2, "assignments": [0, 1, 1]}
        clone = read_record(ClusterMap, payload, "clusters")
        assert clone == cm
        np.testing.assert_array_equal(clone.clusters_of([2, 0, 1]), [1, 0, 1])

    @pytest.mark.parametrize("cluster", [2, -1])
    def test_loaded_cluster_ids_must_lie_below_m(self, cluster):
        payload = {"m": 2, "assignments": [0, cluster]}
        with pytest.raises(DataError, match=rf"mark id 1 is assigned cluster {cluster}"):
            read_record(ClusterMap, payload, "clusters")

    def test_unassigned_mark_raises(self):
        cm = ClusterMap(m=1, assignments=[0])
        with pytest.raises(DataError, match="mark id 3 has no duration cluster"):
            cm.clusters_of([3])

    def test_clusters_of_matches_cluster_of(self):
        cm = ClusterMap(m=3, assignments=[2, 0, 1, 1, 2])
        marks = np.array([4, 0, 0, 3, 1, 4])
        np.testing.assert_array_equal(cm.clusters_of(marks),
                                      [cm.assignments[int(m)] for m in marks])
        assert cm.clusters_of(marks).dtype == np.intp

    @pytest.mark.parametrize("bad", [2, 5, 17, -1])
    def test_clusters_of_names_an_unassigned_mark(self, bad):
        cm = ClusterMap(m=3, assignments=[2, 0])
        with pytest.raises(DataError, match=f"mark id {bad} has no duration cluster"):
            cm.clusters_of([0, 1, bad, 0])


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
        # goal 2 has no sequence, so no marks
        assert observed_marks_by_goal(corpus, 3) == [(0, 1, 3), (2,), ()]

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
