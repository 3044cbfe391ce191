"""Tests for evaluation metrics, report serialization, and the sweep."""

import csv
import json
import math

import numpy as np
import pytest

from actionflow import evaluation
from actionflow.data import Action, ClusterMap, Ctas, Vocab, write_corpus
from actionflow.evaluation import (
    DEFAULT_PREFIXES,
    REPORT_VERSION,
    EvalReport,
    full_report,
    generation_eval,
    goal_eval,
    majority_mark_baseline,
    next_action_eval,
    sensitivity_sweep,
    sweep_point,
    teacher_forced,
    write_sweep_csv,
)
from actionflow.model import Model, ModelConfig
from actionflow.numerics import Segments
from actionflow.synth import GoalTemplate, SynthSpec, generate as synth_generate


def make_model(seed=0, max_len=16):
    vocab = Vocab(["a", "b", "c"], ["g0", "g1"],
                  goal_marks=[(0, 1), (1, 2)])
    cm = ClusterMap(m=2, assignments=[i % 2 for i in range(vocab.n_marks)])
    cfg = ModelConfig(d=4, heads=2, blocks=1, clusters=2, max_len=max_len)
    return Model.init(cfg, vocab, cm, seed=seed)


def make_seq(marks, times, goal=0, sid="s0"):
    return Ctas(id=sid, goal=goal,
                actions=[Action(m, float(t)) for m, t in zip(marks, times)])


def small_corpus(n=5, seed=0, length=4):
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        marks = rng.integers(0, 3, size=length)
        times = np.cumsum(rng.uniform(0.2, 1.5, size=length))
        out.append(make_seq(marks, times, goal=int(rng.integers(0, 2)), sid=f"s{i}"))
    return out


@pytest.fixture
def forward_calls(monkeypatch):
    """Row counts of every Model.forward call made while the test runs."""
    calls = []
    original = Model.forward

    def counted(self, marks, times, segs):
        calls.append(len(marks))
        return original(self, marks, times, segs)

    monkeypatch.setattr(Model, "forward", counted)
    return calls


def force_mark(model, mark, strength=50.0):
    bias = model.store["mark.bias"]
    bias.data[:] = -strength
    bias.data[mark] = strength
    model.store["mark.w"].data[:] = 0.0


def force_goal(model, goal, strength=50.0):
    bias = model.store["goal.b_out"]
    bias.data[:] = -strength
    bias.data[goal] = strength
    model.store["goal.w_out"].data[:] = 0.0


def force_mu(model, value):
    model.store["time.w_mu"].data[:] = 0.0
    model.store["time.b_mu"].data[:] = value


class TestNextActionEval:
    def test_matches_forward_pass_oracle(self):
        model = make_model(seed=1)
        corpus = small_corpus(n=4, seed=2)
        result = next_action_eval(teacher_forced(model, corpus))
        correct = 0
        transitions = 0
        err = 0.0
        for seq in corpus:
            fwd = model.forward(seq.marks(), seq.times(), Segments(len(seq.actions)))
            preds = np.argmax(fwd.mark_prob.data[:-1], axis=1)
            correct += int(np.sum(preds == seq.marks()[1:]))
            t = seq.times()
            err += float(np.sum(np.abs(t[:-1] + np.exp(fwd.mu.data[:-1, 0]) - t[1:])))
            transitions += len(seq.actions) - 1
        assert result["transitions"] == transitions
        assert result["apa"] == pytest.approx(correct / transitions, abs=0.0)
        assert result["mae"] == pytest.approx(err / transitions, rel=1e-12)

    def test_rigged_model_hand_values(self):
        model = make_model(seed=0)
        force_mark(model, 1)
        force_mu(model, 0.0)  # predicted gap is always e^0 = 1
        corpus = [make_seq([0, 1, 0], [0.0, 1.0, 3.0], sid="x")]
        result = next_action_eval(teacher_forced(model, corpus))
        assert result["apa"] == 0.5
        assert result["mae"] == pytest.approx((0.0 + 1.0) / 2, abs=1e-12)

    def test_summaries_recompute_from_records(self):
        model = make_model(seed=3)
        corpus = small_corpus(n=6, seed=4)
        result = next_action_eval(teacher_forced(model, corpus))
        recs = result["per_sequence"]
        total = sum(r["transitions"] for r in recs)
        assert result["apa"] == sum(r["correct"] for r in recs) / total
        assert result["mae"] == pytest.approx(
            sum(r["abs_err_sum"] for r in recs) / total, rel=1e-12)

    def test_order_invariance_and_id_sorting(self):
        model = make_model(seed=5)
        corpus = small_corpus(n=6, seed=6)
        forward = next_action_eval(teacher_forced(model, corpus))
        backward = next_action_eval(teacher_forced(model, list(reversed(corpus))))
        assert forward == backward
        ids = [r["id"] for r in forward["per_sequence"]]
        assert ids == sorted(ids)

    def test_single_action_sequence_rejected(self):
        model = make_model()
        with pytest.raises(ValueError, match="transitions"):
            next_action_eval(teacher_forced(model, [make_seq([0], [1.0])]))


class TestMajorityBaseline:
    def test_counts_transition_targets_only(self):
        train = [make_seq([0, 1, 1], [0, 1, 2], sid="a"),
                 make_seq([2, 1, 0], [0, 1, 2], sid="b")]
        test = [make_seq([0, 1], [0, 1], sid="c"),
                make_seq([1, 0], [0, 1], sid="d")]
        # targets are 1,1,1,0 so the majority target is mark 1
        assert majority_mark_baseline(train, test) == 0.5

    def test_tie_breaks_to_lowest_mark_id(self):
        train = [make_seq([0, 1], [0, 1], sid="a"),
                 make_seq([1, 0], [0, 1], sid="b")]
        test = [make_seq([1, 0], [0, 1], sid="c")]
        assert majority_mark_baseline(train, test) == 1.0

    def test_no_transitions_rejected(self):
        with pytest.raises(ValueError, match="transitions"):
            majority_mark_baseline([make_seq([0], [1.0])], [])


class TestGoalEval:
    def test_rigged_model_hand_accuracy(self):
        model = make_model(seed=0)
        force_goal(model, 1)
        corpus = [make_seq([0, 1, 2], [0, 1, 2], goal=g, sid=f"s{i}")
                  for i, g in enumerate([1, 1, 1, 0])]
        result = goal_eval(teacher_forced(model, corpus))
        assert result["gpa_at"] == {"0.3": 0.75, "0.6": 0.75, "1": 0.75}

    def test_fraction_keys_are_compact(self):
        model = make_model(seed=1)
        corpus = small_corpus(n=3, seed=1)
        result = goal_eval(teacher_forced(model, corpus),
                           prefix_fractions=(0.25, 0.5, 1.0))
        assert set(result["gpa_at"]) == {"0.25", "0.5", "1"}

    def test_close_fractions_keep_distinct_keys(self):
        model = make_model(seed=1)
        corpus = small_corpus(n=3, seed=1)
        result = goal_eval(teacher_forced(model, corpus),
                           prefix_fractions=(0.1234567, 0.1234568, 0.3))
        keys = ["0.1234567", "0.1234568", "0.3"]
        assert list(result["gpa_at"]) == keys
        assert all(list(r["predicted"]) == keys for r in result["per_sequence"])

    def test_repeated_fraction_counts_once(self):
        model = make_model(seed=0)
        force_goal(model, 1)
        corpus = [make_seq([0, 1, 2], [0, 1, 2], goal=g, sid=f"s{i}")
                  for i, g in enumerate([1, 1, 1, 0])]
        result = goal_eval(teacher_forced(model, corpus), prefix_fractions=(0.5, 1.0, 0.5))
        assert list(result["gpa_at"].items()) == [("0.5", 0.75), ("1", 0.75)]
        assert list(result["per_sequence"][0]["predicted"]) == ["0.5", "1"]

    def test_invalid_fractions_rejected(self):
        model = make_model()
        corpus = small_corpus(n=2)
        for bad in (0.0, -0.2, 1.5, math.nan, math.inf):
            with pytest.raises(ValueError, match="fraction"):
                goal_eval(teacher_forced(model, corpus), prefix_fractions=(bad,))

    def test_summary_recomputes_from_records(self):
        model = make_model(seed=2)
        corpus = small_corpus(n=8, seed=3)
        result = goal_eval(teacher_forced(model, corpus))
        for key, value in result["gpa_at"].items():
            hits = sum(1 for r in result["per_sequence"]
                       if r["predicted"][key] == r["goal"])
            assert value == hits / len(corpus)

    def test_full_prefix_uses_last_position(self):
        model = make_model(seed=4)
        seq = small_corpus(n=1, seed=5)[0]
        result = goal_eval(teacher_forced(model, [seq]), prefix_fractions=(1.0,))
        fwd = model.forward(seq.marks(), seq.times(), Segments(len(seq.actions)))
        expect = int(np.argmax(fwd.goal_prob.data[-1]))
        assert result["per_sequence"][0]["predicted"]["1"] == expect

    def test_tiny_fraction_still_feeds_one_action(self):
        model = make_model(seed=4)
        seq = small_corpus(n=1, seed=6)[0]
        result = goal_eval(teacher_forced(model, [seq]), prefix_fractions=(0.01,))
        fwd = model.forward(seq.marks(), seq.times(), Segments(len(seq.actions)))
        expect = int(np.argmax(fwd.goal_prob.data[0]))
        assert result["per_sequence"][0]["predicted"]["0.01"] == expect


class TestGenerationEval:
    def test_immediate_stop_counts_misses(self):
        model = make_model(seed=0)
        force_mark(model, model.vocab.eos_id)
        corpus = small_corpus(n=4, seed=7, length=3)
        result = generation_eval(model, corpus, seed=0)
        # every generation is just the copied first action plus the terminal
        assert result["apa"] == pytest.approx(4 / 12)
        assert result["mae"] == 0.0
        assert result["cl"] == 0.0
        assert result["reasons"] == {"goal_mismatch": 0, "eos_sampled": 4,
                                     "max_len": 0}

    def test_exact_length_and_marks(self):
        model = make_model(seed=1)
        force_mark(model, 0)
        force_goal(model, 0)
        corpus = [make_seq([2, 0, 0, 0], [0.0, 1.0, 2.0, 3.0], goal=0, sid="t0")]
        result = generation_eval(model, corpus, seed=0, max_len=4)
        assert result["cl"] == 1.0
        assert result["apa"] == 1.0
        assert result["reasons"]["max_len"] == 1

    def test_deterministic_and_order_invariant(self):
        model = make_model(seed=2)
        corpus = small_corpus(n=5, seed=8)
        a = generation_eval(model, corpus, seed=3)
        b = generation_eval(model, corpus, seed=3)
        c = generation_eval(model, list(reversed(corpus)), seed=3)
        assert a == b == c

    def test_seed_changes_outcomes(self):
        model = make_model(seed=2)
        corpus = small_corpus(n=6, seed=9)
        a = generation_eval(model, corpus, seed=0)
        b = generation_eval(model, corpus, seed=1)
        assert a != b

    def test_summaries_recompute_from_records(self):
        model = make_model(seed=3)
        corpus = small_corpus(n=6, seed=10)
        result = generation_eval(model, corpus, seed=0)
        recs = result["per_sequence"]
        truth_positions = sum(r["truth_len"] for r in recs)
        compared = sum(r["compared"] for r in recs)
        assert result["apa"] == sum(r["matched"] for r in recs) / truth_positions
        if compared:
            assert result["mae"] == pytest.approx(
                sum(r["abs_err_sum"] for r in recs) / compared, rel=1e-12)
        assert result["cl"] == sum(
            1 for r in recs if r["gen_len"] == r["truth_len"]) / len(recs)


class TestEvalReport:
    def build(self, with_generation=True):
        model = make_model(seed=4)
        corpus = small_corpus(n=4, seed=11)
        report = full_report(model, corpus, seed=5,
                             config_echo={"note": "unit"},
                             with_generation=with_generation)
        return model, corpus, report

    def test_summary_fields_match_components(self):
        model, corpus, report = self.build()
        passes = teacher_forced(model, corpus)
        nxt = next_action_eval(passes)
        gpa = goal_eval(passes)["gpa_at"]
        gen = generation_eval(model, corpus, seed=5)
        assert report.apa == nxt["apa"]
        assert report.mae == nxt["mae"]
        assert report.transitions == nxt["transitions"]
        assert report.gpa_at == gpa
        assert report.cl == gen["cl"]
        assert report.generation["reasons"] == gen["reasons"]

    def test_json_bytes_stable_and_versioned(self):
        _, _, report = self.build()
        first = report.json_bytes()
        second = report.json_bytes()
        assert first == second
        assert first.endswith(b"\n")
        payload = json.loads(first)
        assert payload["version"] == REPORT_VERSION
        assert payload["config"] == {"note": "unit"}

    def test_save_round_trip(self, tmp_path):
        _, _, report = self.build()
        path = tmp_path / "report.json"
        report.save(path)
        assert path.read_bytes() == report.json_bytes()

    def test_generation_can_be_skipped(self):
        _, _, report = self.build(with_generation=False)
        assert report.cl is None
        assert report.generation is None
        assert "generation" not in report.per_sequence

    def test_empty_corpus_rejected(self):
        model = make_model()
        with pytest.raises(ValueError, match="empty"):
            full_report(model, [])

    def test_one_forward_pass_per_sequence(self, forward_calls):
        model = make_model(seed=4)
        corpus = small_corpus(n=5, seed=11)
        full_report(model, corpus, with_generation=False)
        # one packed pass holds every sequence's rows exactly once
        assert forward_calls == [sum(len(seq) for seq in corpus)]


class TestSweep:
    def corpus_file(self, tmp_path, count=20):
        spec = SynthSpec(
            goals=[
                GoalTemplate(name="g0", template=["a", "b", "c"],
                             mu=[0.0, 0.5, 1.0], sigma=[0.3, 0.3, 0.3]),
                GoalTemplate(name="g1", template=["d", "e", "f"],
                             mu=[1.0, 0.0, 0.5], sigma=[0.3, 0.3, 0.3]),
            ],
            count=count, seed=12)
        corpus, vocab = synth_generate(spec)
        path = tmp_path / "corpus.jsonl"
        write_corpus(corpus, vocab, path)
        return str(path)

    def base_dicts(self):
        model = {"d": 4, "heads": 2, "blocks": 1, "clusters": 2}
        train = {"epochs": 1, "seed": 0, "batch_size": 8}
        return model, train

    def test_single_point(self, tmp_path):
        path = self.corpus_file(tmp_path)
        model, train = self.base_dicts()
        rows, keys = sensitivity_sweep(path, model, train, {"gamma": [0.5]})
        assert keys == ["gamma"]
        assert len(rows) == 1
        row = rows[0]
        assert row["status"] == "ok"
        assert row["gamma"] == 0.5
        assert 0.0 <= row["apa"] <= 1.0
        assert row["mae"] >= 0.0
        for key in ("gpa_0.3", "gpa_0.6", "gpa_1"):
            assert 0.0 <= row[key] <= 1.0

    def test_grid_product_order(self, tmp_path):
        path = self.corpus_file(tmp_path)
        model, train = self.base_dicts()
        rows, keys = sensitivity_sweep(
            path, model, train, {"gamma": [0.2, 0.8], "lr": [0.01]})
        assert keys == ["gamma", "lr"]
        assert [(r["gamma"], r["lr"]) for r in rows] == [(0.2, 0.01), (0.8, 0.01)]

    def test_parallel_matches_serial(self, tmp_path):
        path = self.corpus_file(tmp_path, count=12)
        model, train = self.base_dicts()
        grid = {"gamma": [0.3, 0.9]}
        serial, _ = sensitivity_sweep(path, model, train, grid, workers=1)
        parallel, _ = sensitivity_sweep(path, model, train, grid, workers=2)
        assert serial == parallel

    def test_error_points_are_captured(self, tmp_path, caplog):
        path = self.corpus_file(tmp_path)
        model, train = self.base_dicts()
        with caplog.at_level("WARNING", logger="actionflow.evaluation"):
            rows, _ = sensitivity_sweep(path, model, train, {"d": [3, 4]})
        # d=3 is not divisible by the head count, so that point fails
        assert rows[0]["status"] == "error"
        assert rows[0]["apa"] == ""
        assert rows[0]["error"] != ""
        assert rows[1]["status"] == "ok"
        assert any("sweep point" in r.message for r in caplog.records)

    def test_unknown_key_rejected(self, tmp_path):
        path = self.corpus_file(tmp_path)
        model, train = self.base_dicts()
        with pytest.raises(ValueError, match="sweep key"):
            sensitivity_sweep(path, model, train, {"nope": [1]})

    def test_grid_shape_validation(self, tmp_path):
        path = self.corpus_file(tmp_path)
        model, train = self.base_dicts()
        with pytest.raises(ValueError, match="empty"):
            sensitivity_sweep(path, model, train, {})
        with pytest.raises(ValueError, match="non-empty list"):
            sensitivity_sweep(path, model, train, {"gamma": []})
        with pytest.raises(ValueError, match="non-empty list"):
            sensitivity_sweep(path, model, train, {"gamma": 0.5})

    def test_csv_layout(self, tmp_path):
        path = self.corpus_file(tmp_path)
        model, train = self.base_dicts()
        rows, keys = sensitivity_sweep(path, model, train, {"gamma": [0.5]})
        out = tmp_path / "sweep.csv"
        write_sweep_csv(rows, keys, out)
        with open(out, newline="") as fh:
            parsed = list(csv.reader(fh))
        assert parsed[0] == ["gamma", "status", "apa", "mae",
                            "gpa_0.3", "gpa_0.6", "gpa_1", "error"]
        assert len(parsed) == 2
        assert parsed[1][0] == "0.5"
        assert parsed[1][1] == "ok"

    def test_sweep_point_scores_with_one_forward_pass_per_sequence(
            self, tmp_path, monkeypatch, forward_calls):
        path = self.corpus_file(tmp_path)
        model, train = self.base_dicts()
        held_out = []
        run_training = evaluation.run_training

        def train_then_count_scoring(*args, **kwargs):
            result = run_training(*args, **kwargs)
            held_out.extend(result[1].test_raw)
            forward_calls.clear()
            return result

        monkeypatch.setattr(evaluation, "run_training", train_then_count_scoring)
        row = sweep_point(path, model, train, {})
        assert row["status"] == "ok"
        assert held_out
        assert forward_calls == [sum(len(seq) for seq in held_out)]

    def test_sweep_point_applies_overrides(self, tmp_path):
        path = self.corpus_file(tmp_path)
        model, train = self.base_dicts()
        row = sweep_point(path, model, train, {"epochs": 2, "clusters": 3})
        assert row["status"] == "ok"
        assert row["epochs"] == 2
        assert row["clusters"] == 3
