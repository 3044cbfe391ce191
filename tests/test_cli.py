"""End-to-end and error-path tests for the command line interface."""

import base64
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from actionflow import cli, evaluation
from actionflow.cli import RunConfig, main
from actionflow.data import (decode_vector, encode_vector, load_corpus, read_record,
                             split_by_goal)
from actionflow.training import CHECKPOINT_VERSION, TrainingDiverged

SPEC = {
    "count": 30,
    "seed": 5,
    "swap_prob": 0.0,
    "goals": [
        {"name": "brew", "template": ["grind", "boil", "pour"],
         "mu": [0.0, 0.5, 1.0], "sigma": [0.3, 0.3, 0.3]},
        {"name": "bake", "template": ["mix", "proof", "oven"],
         "mu": [1.0, 0.0, 0.5], "sigma": [0.3, 0.3, 0.3]},
    ],
}

CONFIG = {
    "model": {"d": 4, "heads": 2, "blocks": 1, "clusters": 2},
    "train": {"epochs": 2, "seed": 0, "batch_size": 8},
}


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One synth + train pipeline shared by the read-only CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    spec = root / "spec.json"
    spec.write_text(json.dumps(SPEC))
    config = root / "config.json"
    config.write_text(json.dumps(CONFIG))
    corpus = root / "corpus.jsonl"
    assert main(["synth", "--spec", str(spec), "--out", str(corpus)]) == 0
    run = root / "run"
    assert main(["train", "--data", str(corpus), "--config", str(config),
                 "--out", str(run)]) == 0
    return {"root": root, "spec": spec, "config": config,
            "corpus": corpus, "run": run}


class TestSynth:
    def test_writes_corpus(self, workspace, capsys, tmp_path):
        out = tmp_path / "again.jsonl"
        assert main(["synth", "--spec", str(workspace["spec"]),
                     "--out", str(out)]) == 0
        assert "wrote 30 sequences" in capsys.readouterr().out
        lines = out.read_text().splitlines()
        assert len(lines) == 30
        record = json.loads(lines[0])
        assert set(record) == {"id", "goal", "actions"}

    def test_missing_spec_is_data_error(self, capsys, tmp_path):
        assert main(["synth", "--spec", str(tmp_path / "none.json"),
                     "--out", str(tmp_path / "o.jsonl")]) == 1
        assert capsys.readouterr().err.startswith("E_DATA:")

    def test_malformed_spec_is_parse_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        assert main(["synth", "--spec", str(bad),
                     "--out", str(tmp_path / "o.jsonl")]) == 1
        assert capsys.readouterr().err.startswith("E_PARSE:")

    def test_negative_seed_is_config_error_naming_the_key(self, capsys, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({**SPEC, "seed": -1}))
        out = tmp_path / "o.jsonl"
        assert main(["synth", "--spec", str(spec), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("E_CONFIG: seed must be non-negative")
        assert not out.exists()

    def test_invalid_spec_is_config_error(self, capsys, tmp_path):
        payload = json.loads(json.dumps(SPEC))
        payload["goals"][0]["sigma"] = [-1.0, 0.3, 0.3]
        bad = tmp_path / "neg.json"
        bad.write_text(json.dumps(payload))
        assert main(["synth", "--spec", str(bad),
                     "--out", str(tmp_path / "o.jsonl")]) == 1
        assert capsys.readouterr().err.startswith("E_CONFIG:")


class TestTrain:
    def test_outputs(self, workspace):
        run = workspace["run"]
        for name in ("final.json", "best.json", "train_log.jsonl", "test.jsonl"):
            assert (run / name).exists()
        log_lines = (run / "train_log.jsonl").read_text().splitlines()
        assert [json.loads(l)["epoch"] for l in log_lines] == [1, 2]
        held = (run / "test.jsonl").read_text().splitlines()
        assert 0 < len(held) < 30

    def test_no_split_keeps_everything(self, workspace, tmp_path, capsys):
        out = tmp_path / "full"
        assert main(["train", "--data", str(workspace["corpus"]),
                     "--config", str(workspace["config"]),
                     "--out", str(out), "--no-split", "--epochs", "1"]) == 0
        assert not (out / "test.jsonl").exists()
        assert "trained 1 epochs on 30 sequences" in capsys.readouterr().out

    def test_epoch_override(self, workspace, tmp_path):
        out = tmp_path / "one"
        assert main(["train", "--data", str(workspace["corpus"]),
                     "--config", str(workspace["config"]),
                     "--out", str(out), "--epochs", "1"]) == 0
        log_lines = (out / "train_log.jsonl").read_text().splitlines()
        assert len(log_lines) == 1

    @pytest.mark.parametrize("payload,key", [
        ({"model": {"ffn": "summed"}}, "ffn"),
        ({"train": {"eos_time_term": True}}, "eos_time_term"),
    ], ids=["ffn", "eos_time_term"])
    def test_removed_switch_is_config_error(self, workspace, capsys, tmp_path, payload, key):
        bad = tmp_path / "cfg.json"
        bad.write_text(json.dumps(payload))
        out = tmp_path / "x"
        assert main(["train", "--data", str(workspace["corpus"]),
                     "--config", str(bad), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("E_CONFIG:") and f"key {key!r}" in err
        assert not out.exists()

    def test_unknown_config_section(self, workspace, capsys, tmp_path):
        bad = tmp_path / "cfg.json"
        bad.write_text(json.dumps({"model": {}, "bogus": {}}))
        assert main(["train", "--data", str(workspace["corpus"]),
                     "--config", str(bad), "--out", str(tmp_path / "x")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("E_CONFIG:") and "bogus" in err

    @pytest.mark.parametrize("payload", [
        {"model": 5},
        {"train": {"epochs": "x"}},
        {"model": {"d": "8"}},
        [],
        {"model": {"d": 8.0}},
        {"train": {"batch_size": 2.5}},
        {"train": {"epochs": True}},
        {"data": {"train_fraction": "0.8"}},
        {"train": {"lr": float("nan")}},
    ], ids=["model_not_object", "epochs_string", "width_string", "config_not_object",
            "width_float", "batch_size_float", "epochs_bool", "fraction_string", "lr_nan"])
    def test_ill_typed_config_is_config_error(self, workspace, capsys, tmp_path, payload):
        bad = tmp_path / "cfg.json"
        bad.write_text(json.dumps(payload))
        out = tmp_path / "x"
        assert main(["train", "--data", str(workspace["corpus"]),
                     "--config", str(bad), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("E_CONFIG:")
        assert not out.exists()

    @pytest.mark.parametrize("payload", [
        {"data": {"train_fraction": 1.5}},
        {"data": {"train_fraction": 0.0}},
        {"train": {"seed": -1}},
    ], ids=["fraction_above_one", "fraction_zero", "seed_negative"])
    def test_out_of_range_config_is_config_error(self, workspace, capsys, tmp_path,
                                                 payload):
        bad = tmp_path / "cfg.json"
        bad.write_text(json.dumps(payload))
        out = tmp_path / "x"
        assert main(["train", "--data", str(workspace["corpus"]),
                     "--config", str(bad), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("E_CONFIG:")
        assert not out.exists()

    @pytest.mark.parametrize("flags", [["--epochs", "0"]], ids=["epochs_zero"])
    def test_bad_override_writes_nothing(self, workspace, capsys, tmp_path, flags):
        out = tmp_path / "f1"
        assert main(["train", "--data", str(workspace["corpus"]),
                     "--out", str(out), *flags]) == 1
        assert capsys.readouterr().err.startswith("E_CONFIG:")
        assert not out.exists()

    @pytest.mark.parametrize("seed", ["-1", "-7"])
    def test_negative_seed_is_usage_error(self, workspace, capsys, tmp_path, seed):
        # a missing corpus would exit 1, so exit 2 shows the seed is checked first
        out = tmp_path / "f1"
        assert main(["train", "--data", str(tmp_path / "none.jsonl"),
                     "--config", str(workspace["config"]), "--out", str(out),
                     "--seed", seed]) == 2
        assert capsys.readouterr().err.startswith("E_USAGE: --seed must be non-negative")
        assert not out.exists()

    def test_readme_run_config_parses(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = re.search(r"\*\*Run config\*\*.*?```json\n(.*?)```", readme, re.S).group(1)
        cfg = read_record(RunConfig, json.loads(block), "run config")
        assert cfg.data.corpus == "corpus.jsonl"
        assert cfg.train.margin_weight == 0.1

    def test_missing_corpus(self, capsys, tmp_path):
        assert main(["train", "--data", str(tmp_path / "none.jsonl"),
                     "--out", str(tmp_path / "x")]) == 1
        assert capsys.readouterr().err.startswith("E_DATA:")

    def test_corrupt_corpus_is_parse_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n")
        assert main(["train", "--data", str(bad),
                     "--out", str(tmp_path / "x")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("E_PARSE:") and "line 1" in err

    def test_divergence_maps_to_numeric_error(self, workspace, capsys,
                                              tmp_path, monkeypatch):
        def explode(*args, **kwargs):
            raise TrainingDiverged("epoch 1: loss total is not finite")

        monkeypatch.setattr(cli, "train", explode)
        assert main(["train", "--data", str(workspace["corpus"]),
                     "--config", str(workspace["config"]),
                     "--out", str(tmp_path / "x")]) == 1
        assert capsys.readouterr().err.startswith("E_NUMERIC:")


class TestEval:
    def test_report_and_summary_line(self, workspace, capsys, tmp_path):
        report = tmp_path / "report.json"
        assert main(["eval", "--ckpt", str(workspace["run"]),
                     "--data", str(workspace["run"] / "test.jsonl"),
                     "--report", str(report)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("apa=") and "cl=" in out
        payload = json.loads(report.read_text())
        assert payload["version"] == 1
        assert set(payload["gpa_at"]) == {"0.3", "0.6", "1"}
        assert payload["config"]["model"]["d"] == 4

    def test_repeat_runs_are_byte_identical(self, workspace, tmp_path):
        args = ["eval", "--ckpt", str(workspace["run"]),
                "--data", str(workspace["run"] / "test.jsonl"), "--seed", "3"]
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert main(args + ["--report", str(a)]) == 0
        assert main(args + ["--report", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_skip_generation(self, workspace, tmp_path, capsys):
        report = tmp_path / "r.json"
        assert main(["eval", "--ckpt", str(workspace["run"]),
                     "--data", str(workspace["run"] / "test.jsonl"),
                     "--report", str(report), "--skip-generation"]) == 0
        assert "cl=skipped" in capsys.readouterr().out
        payload = json.loads(report.read_text())
        assert payload["cl"] is None and payload["generation"] is None

    def test_custom_prefixes(self, workspace, tmp_path):
        report = tmp_path / "r.json"
        assert main(["eval", "--ckpt", str(workspace["run"]),
                     "--data", str(workspace["run"] / "test.jsonl"),
                     "--report", str(report), "--prefixes", "0.5,1.0"]) == 0
        payload = json.loads(report.read_text())
        assert set(payload["gpa_at"]) == {"0.5", "1"}

    def test_repeated_prefix_counts_once(self, workspace, capsys, tmp_path):
        args = ["eval", "--ckpt", str(workspace["run"]),
                "--data", str(workspace["run"] / "test.jsonl"), "--skip-generation"]
        once, twice = tmp_path / "once.json", tmp_path / "twice.json"
        assert main(args + ["--report", str(once), "--prefixes", "0.5"]) == 0
        assert main(args + ["--report", str(twice), "--prefixes", "0.5,0.5"]) == 0
        assert json.loads(once.read_text())["gpa_at"]["0.5"] > 0.0
        assert twice.read_bytes() == once.read_bytes()
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].replace("once", "twice") == lines[1]

    def test_bad_prefixes_is_usage_error(self, workspace, capsys, tmp_path):
        assert main(["eval", "--ckpt", str(workspace["run"]),
                     "--data", str(workspace["run"] / "test.jsonl"),
                     "--report", str(tmp_path / "r.json"),
                     "--prefixes", "abc"]) == 2
        assert capsys.readouterr().err.startswith("E_USAGE:")

    def test_close_prefixes_print_two_entries(self, workspace, capsys, tmp_path):
        report = tmp_path / "r.json"
        assert main(["eval", "--ckpt", str(workspace["run"]),
                     "--data", str(workspace["run"] / "test.jsonl"),
                     "--report", str(report), "--skip-generation",
                     "--prefixes", "0.1234567,0.1234568"]) == 0
        assert set(json.loads(report.read_text())["gpa_at"]) == {"0.1234567", "0.1234568"}
        out = capsys.readouterr().out
        assert "gpa@0.1234567=" in out and "gpa@0.1234568=" in out

    @pytest.mark.parametrize("prefixes", ["1.5", "0", "-0.3", "0.5,nan", "inf"])
    def test_out_of_range_prefixes_is_usage_error(self, workspace, capsys, tmp_path, prefixes):
        # refused before the checkpoint is looked at: this one does not exist
        assert main(["eval", "--ckpt", str(tmp_path / "nowhere"),
                     "--data", str(workspace["run"] / "test.jsonl"),
                     "--report", str(tmp_path / "r.json"), "--prefixes", prefixes]) == 2
        assert capsys.readouterr().err.startswith("E_USAGE:")
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("flags", [[], ["--skip-generation"]], ids=["full", "skip_gen"])
    def test_sequence_without_transition_is_data_error(self, workspace, capsys, tmp_path,
                                                       monkeypatch, flags):
        def no_forward_pass(*args):
            raise AssertionError("the model ran before the data were checked")

        monkeypatch.setattr("actionflow.evaluation.teacher_forced", no_forward_pass)
        lines = (workspace["run"] / "test.jsonl").read_text().splitlines()
        record = json.loads(lines[0])
        record.update(id="t1", actions=record["actions"][:1])
        data = tmp_path / "test.jsonl"
        data.write_text("\n".join([*lines, json.dumps(record)]) + "\n")
        report = tmp_path / "r.json"
        assert main(["eval", "--ckpt", str(workspace["run"]), "--data", str(data),
                     "--report", str(report), *flags]) == 1
        assert capsys.readouterr().err.startswith(
            "E_DATA: sequence 't1' has no transitions to evaluate")
        assert not report.exists()

    @pytest.mark.parametrize("seed", ["-1", "-7"])
    def test_negative_seed_is_usage_error(self, workspace, capsys, tmp_path, seed):
        # a missing checkpoint would exit 1, so exit 2 shows the seed is checked first
        report = tmp_path / "r.json"
        assert main(["eval", "--ckpt", str(tmp_path / "nothing"),
                     "--data", str(workspace["run"] / "test.jsonl"),
                     "--report", str(report), "--seed", seed]) == 2
        assert capsys.readouterr().err.startswith("E_USAGE: --seed must be non-negative")
        assert not report.exists()

    def test_missing_checkpoint(self, workspace, capsys, tmp_path):
        assert main(["eval", "--ckpt", str(tmp_path / "nowhere"),
                     "--data", str(workspace["run"] / "test.jsonl"),
                     "--report", str(tmp_path / "r.json")]) == 1
        assert capsys.readouterr().err.startswith("E_NO_CKPT:")

    def test_empty_checkpoint_dir(self, workspace, capsys, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["eval", "--ckpt", str(empty),
                     "--data", str(workspace["run"] / "test.jsonl"),
                     "--report", str(tmp_path / "r.json")]) == 1
        assert capsys.readouterr().err.startswith("E_NO_CKPT:")


def value_span(payload, name):
    """The slice of a checkpoint's flat vectors that holds one parameter."""
    sizes = [math.prod(shape) for shape in payload["shapes"]]
    at = payload["names"].index(name)
    start = sum(sizes[:at])
    return slice(start, start + sizes[at])


# edits of the three vectors, made on their decoded values, which are then
# saved back encoded
VECTOR_KINDS = ("optimizer_missing_name", "optimizer_extra_name", "params_wrong_length",
                "params_non_finite_nan", "params_non_finite_inf", "optimizer_wrong_length",
                "optimizer_v_negative")

# ill-typed or out-of-range fields: each kind edits one value of a good file;
# "HUGE" is written out as the JSON number 1e400
FIELD_EDITS = {
    "optimizer_step_negative": (("optimizer", "step"), -1),
    "optimizer_step_string": (("optimizer", "step"), "7"),
    "optimizer_step_float": (("optimizer", "step"), 2.9),
    "optimizer_step_huge": (("optimizer", "step"), "HUGE"),
    # a vector must be a base64 string: a non-string, characters outside the
    # base64 alphabet and non-ASCII characters are refused
    "params_bool": (("params",), True),
    "params_string": (("params",), "0.5"),
    "params_not_ascii": (("params",), "AAAAAAAA\u00e9AAA"),
    "epoch_string": (("epoch",), "2"),
    "epoch_negative": (("epoch",), -1),
    "epoch_huge": (("epoch",), "HUGE"),
    "best_total_string": (("best_total",), "low"),
    "best_total_nan": (("best_total",), math.nan),
    "unknown_key": (("bogus",), 1),
    "goal_marks_string": (("vocab", "goal_marks", 0), "ab"),
    "cluster_id_string": (("clusters", "assignments", 0), "1"),
    "cluster_out_of_range": (("clusters", "assignments", 0), 99),
    # parameters this wide would need terabytes if they were built
    "model_config_huge_width": (("model_config", "d"), 10**12),
}


def edit_field(kind, payload):
    """Apply one FIELD_EDITS entry, or delete a field for the *_missing kinds."""
    if kind == "epoch_missing":
        del payload["epoch"]
    elif kind == "version_missing":
        del payload["version"]
    else:
        path, value = FIELD_EDITS[kind]
        for key in path[:-1]:
            payload = payload[key]
        payload[path[-1]] = value


def edit_vectors(kind, payload):
    """Apply one VECTOR_KINDS edit to the decoded vectors and save them back."""
    names, shapes, optimizer = payload["names"], payload["shapes"], payload["optimizer"]
    vectors = params, m, v = [decode_vector(payload["params"]).tolist(),
                              decode_vector(optimizer["m"]).tolist(),
                              decode_vector(optimizer["v"]).tolist()]
    if kind == "optimizer_missing_name":
        # a consistent file for a model without the first parameter
        span = value_span(payload, names[0])
        del names[0], shapes[0]
        for vector in vectors:
            del vector[span]
    elif kind == "optimizer_extra_name":
        # a consistent file for a model with one more parameter
        names.append("zz.bogus")
        shapes.append([1])
        for vector in vectors:
            vector.append(0.0)
    elif kind == "params_wrong_length":
        params.pop()
    elif kind == "params_non_finite_nan":
        params[value_span(payload, "mark.w").start] = math.nan
    elif kind == "params_non_finite_inf":
        params[value_span(payload, "mark.w").start] = -math.inf
    elif kind == "optimizer_wrong_length":
        m.append(0.0)
    elif kind == "optimizer_v_negative":
        v[0] = -1.0
    payload["params"], optimizer["m"], optimizer["v"] = (
        encode_vector(np.array(vector, dtype=np.float64)) for vector in vectors)


def write_unreadable_checkpoint(kind, workspace, tmp_path):
    """A final.json under tmp_path that load_checkpoint cannot turn into a model."""
    good = (workspace["run"] / "final.json").read_text()
    if kind == "truncated":
        text = good[:len(good) // 2]
    elif kind == "not_an_object":
        text = "[1, 2, 3]"
    elif kind == "missing_fields":
        text = json.dumps({"version": CHECKPOINT_VERSION})
    else:
        payload = json.loads(good)
        if kind == "ill_typed_field":
            payload["params"] = {}  # an object where a string belongs
        elif kind in VECTOR_KINDS:
            edit_vectors(kind, payload)
        elif kind == "param_missing":
            at = payload["names"].index("mark.w")
            del payload["names"][at], payload["shapes"][at]
        elif kind == "param_reshaped":
            payload["shapes"][payload["names"].index("mark.w")] = [1, 1]
        elif kind == "params_bad_padding":
            payload["params"] = payload["params"][:-1]
        elif kind == "params_partial_value":  # four bytes short of the last value
            raw = base64.b64decode(payload["params"])
            payload["params"] = base64.b64encode(raw[:-4]).decode("ascii")
        elif kind == "version_2":  # the per-name layout this file replaced
            payload["version"] = 2
        elif kind == "version_3":  # the same layout with JSON float lists
            payload["version"] = 3
            optimizer = payload["optimizer"]
            payload["params"], optimizer["m"], optimizer["v"] = (
                decode_vector(text).tolist()
                for text in (payload["params"], optimizer["m"], optimizer["v"]))
        elif kind == "version_4":  # version 5 with the per-mark mean gaps as well
            payload["version"] = 4
            payload["clusters"]["means"] = {"0": 0.5}
        elif kind == "version_5":  # this layout with the per-id tables keyed by decimal ids
            payload["version"] = 5
            for record, key in ((payload["vocab"], "goal_marks"),
                                (payload["clusters"], "assignments")):
                record[key] = {str(i): entry for i, entry in enumerate(record[key])}
        elif kind == "version_6":  # this layout with the two switches of model and train config
            payload["version"] = 6
            payload["model_config"].update(version=1, ffn="summed")
            payload["train_config"]["eos_time_term"] = True
        elif kind == "assignment_key_out_of_range":  # a cluster for a mark id past the vocabulary
            payload["clusters"]["assignments"].append(0)
        elif kind == "assignments_short":
            payload["clusters"]["assignments"].pop()
        elif kind == "goal_marks_short":
            payload["vocab"]["goal_marks"].pop()
        else:
            edit_field(kind, payload)
        text = json.dumps(payload).replace('"HUGE"', "1e400")
    ckpt = tmp_path / "final.json"
    ckpt.write_text(text)
    return ckpt


OLD_VERSIONS = {"version_2": 2, "version_3": 3, "version_4": 4, "version_5": 5,
                "version_6": 6}


def assert_no_ckpt_error(err, kind):
    """E_NO_CKPT, naming the version of a file in an older format."""
    assert err.startswith("E_NO_CKPT:")
    if kind in OLD_VERSIONS:
        assert f"unsupported checkpoint version {OLD_VERSIONS[kind]}" in err


class TestUnreadableCheckpoint:
    KINDS = ("truncated", "not_an_object", "missing_fields", "ill_typed_field",
             "param_missing", "param_reshaped", *VECTOR_KINDS, "params_bad_padding",
             "params_partial_value", *OLD_VERSIONS, *FIELD_EDITS,
             "assignment_key_out_of_range", "assignments_short", "goal_marks_short",
             "epoch_missing", "version_missing")

    @pytest.mark.parametrize("kind", KINDS)
    def test_eval(self, workspace, capsys, tmp_path, kind):
        ckpt = write_unreadable_checkpoint(kind, workspace, tmp_path)
        assert main(["eval", "--ckpt", str(ckpt),
                     "--data", str(workspace["run"] / "test.jsonl"),
                     "--report", str(tmp_path / "r.json")]) == 1
        assert_no_ckpt_error(capsys.readouterr().err, kind)
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("kind", KINDS)
    def test_generate(self, workspace, capsys, tmp_path, kind):
        write_unreadable_checkpoint(kind, workspace, tmp_path)
        assert main(["generate", "--ckpt", str(tmp_path), "--goal", "brew",
                     "--first-mark", "grind", "--out", str(tmp_path / "g.jsonl")]) == 1
        assert_no_ckpt_error(capsys.readouterr().err, kind)
        assert sorted(os.listdir(tmp_path)) == ["final.json"]

    def test_version_1_checkpoint_refused(self, workspace, capsys, tmp_path):
        payload = json.loads((workspace["run"] / "final.json").read_text())
        payload["version"] = 1
        payload["train_config"]["apply_margin"] = True
        (tmp_path / "final.json").write_text(json.dumps(payload))
        assert main(["eval", "--ckpt", str(tmp_path),
                     "--data", str(workspace["run"] / "test.jsonl"),
                     "--report", str(tmp_path / "r.json")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("E_NO_CKPT:") and "unsupported checkpoint version 1" in err


HUGE = 10**400  # written out as a 401-digit JSON integer, which no float64 holds

# input kind -> (where the integer goes, the exit code, what the message names)
HUGE_CASES = {
    "synth_mu": ("spec", "E_CONFIG", "'mu'[0] is an integer too large"),
    "train_lr": ("config", "E_CONFIG", "'lr' is an integer too large"),
    "train_margin_weight": ("config", "E_CONFIG", "'margin_weight' is an integer too large"),
    "model_alpha_mark": ("config", "E_CONFIG", "'alpha_mark' is an integer too large"),
    "best_total": ("checkpoint", "E_NO_CKPT", "'best_total' is an integer too large"),
    "corpus_time": ("corpus", "E_DATA", "time at index 1 is too large for a float"),
}


@pytest.mark.parametrize("kind", HUGE_CASES)
def test_integer_beyond_any_float_is_refused_and_writes_nothing(workspace, capsys, tmp_path,
                                                                 kind):
    where, code, message = HUGE_CASES[kind]
    given = tmp_path / "given"
    given.mkdir()
    out = tmp_path / "out"
    config = workspace["config"]
    corpus = workspace["corpus"]
    if where == "spec":
        spec = json.loads(json.dumps(SPEC))
        spec["goals"][0]["mu"][0] = HUGE
        (given / "spec.json").write_text(json.dumps(spec))
        args = ["synth", "--spec", str(given / "spec.json"), "--out", str(out)]
    elif where == "checkpoint":
        payload = json.loads((workspace["run"] / "final.json").read_text())
        payload["best_total"] = HUGE
        (given / "final.json").write_text(json.dumps(payload))
        args = ["eval", "--ckpt", str(given), "--data", str(workspace["run"] / "test.jsonl"),
                "--report", str(out)]
    else:
        if where == "config":
            section, key = kind.split("_", 1)
            payload = {**CONFIG, section: {**CONFIG[section], key: HUGE}}
            config = given / "config.json"
            config.write_text(json.dumps(payload))
        else:
            records = [json.loads(line) for line in corpus.read_text().splitlines()]
            records[0]["actions"][1]["t"] = HUGE
            corpus = given / "corpus.jsonl"
            corpus.write_text("".join(json.dumps(r) + "\n" for r in records))
        args = ["train", "--data", str(corpus), "--config", str(config), "--out", str(out)]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"{code}: ") and message in err and err.count("\n") == 1
    assert not out.exists()
    assert len(os.listdir(given)) == 1  # only the input this test wrote


class TestGenerate:
    def test_writes_sequences_and_reasons(self, workspace, capsys, tmp_path):
        out = tmp_path / "gen.jsonl"
        assert main(["generate", "--ckpt", str(workspace["run"]),
                     "--goal", "brew", "--first-mark", "grind",
                     "--count", "3", "--out", str(out)]) == 0
        assert "wrote 3 sequences" in capsys.readouterr().out
        lines = out.read_text().splitlines()
        assert len(lines) == 3
        ids = [json.loads(l)["id"] for l in lines]
        assert ids == ["gen000000", "gen000001", "gen000002"]
        sidecar = json.loads((tmp_path / "gen.jsonl.reasons.json").read_text())
        assert sidecar["version"] == 1
        assert set(sidecar["reasons"]) == set(ids)
        for reason in sidecar["reasons"].values():
            assert reason in ("goal_mismatch", "eos_sampled", "max_len")

    def test_seeded_runs_are_byte_identical(self, workspace, tmp_path):
        args = ["generate", "--ckpt", str(workspace["run"]),
                "--goal", "bake", "--first-mark", "mix",
                "--count", "4", "--seed", "9"]
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "a.jsonl.reasons.json").read_bytes() == \
            (tmp_path / "b.jsonl.reasons.json").read_bytes()

    def test_unknown_goal_name(self, workspace, capsys, tmp_path):
        assert main(["generate", "--ckpt", str(workspace["run"]),
                     "--goal", "nonsense", "--first-mark", "grind",
                     "--out", str(tmp_path / "g.jsonl")]) == 1
        assert capsys.readouterr().err.startswith("E_DATA:")

    def test_greedy_flag(self, workspace, tmp_path):
        args = ["generate", "--ckpt", str(workspace["run"]),
                "--goal", "brew", "--first-mark", "grind", "--greedy",
                "--count", "2"]
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        assert main(args + ["--seed", "1", "--out", str(a)]) == 0
        assert main(args + ["--seed", "2", "--out", str(b)]) == 0
        # greedy ignores the rng, so different seeds give the same output
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("count", ["0", "-2"])
    def test_count_below_one_is_usage_error(self, workspace, capsys, tmp_path, count):
        out = tmp_path / "g.jsonl"
        assert main(["generate", "--ckpt", str(workspace["run"]), "--goal", "brew",
                     "--first-mark", "grind", "--count", count, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("E_USAGE: --count must be at least 1")
        assert not out.exists() and not (tmp_path / "g.jsonl.reasons.json").exists()

    def test_overflowing_first_time_is_numeric_error(self, capsys, tmp_path):
        # a demos/02 checkpoint: times near 1e300 overflow the attention scores
        script = tmp_path / "02_synthetic_corpus.py"
        script.write_bytes((Path(__file__).parent.parent / "demos" / script.name).read_bytes())
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parent.parent))
        subprocess.run([sys.executable, str(script)], cwd=tmp_path, env=env, check=True,
                       capture_output=True, timeout=300)
        run = tmp_path / "run"
        assert main(["train", "--data", str(tmp_path / "demo_corpus.jsonl"),
                     "--out", str(run), "--epochs", "1"]) == 0
        capsys.readouterr()
        out = tmp_path / "g.jsonl"
        assert main(["generate", "--ckpt", str(run), "--goal", "brew_coffee",
                     "--first-mark", "grind", "--first-t", "1e300", "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(
            "E_NUMERIC: attend: overflow encountered in matmul")
        assert not out.exists()

    @pytest.mark.parametrize("seed", ["-1", "-7"])
    def test_negative_seed_is_usage_error(self, workspace, capsys, tmp_path, seed):
        out = tmp_path / "g.jsonl"
        assert main(["generate", "--ckpt", str(tmp_path / "nothing"), "--goal", "brew",
                     "--first-mark", "grind", "--seed", seed, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("E_USAGE: --seed must be non-negative")
        assert not out.exists() and not (tmp_path / "g.jsonl.reasons.json").exists()


def write_held_out_mark_corpus(path):
    """13 sequences; mark zz occurs only in k5, which a seed-0 split holds out."""
    records = [{"id": f"b{i}", "goal": "brew", "actions": [
        {"mark": "grind", "t": 0.0}, {"mark": "boil", "t": 0.5 + 0.1 * i},
        {"mark": "pour", "t": 3.0 + 0.1 * i}]} for i in range(7)]
    for i in range(6):
        actions = [{"mark": "mix", "t": 0.0}, {"mark": "proof", "t": 2.0 + 0.1 * i},
                   {"mark": "oven", "t": 2.5 + 0.1 * i}]
        if i == 5:
            actions.append({"mark": "zz", "t": 4.0})
        records.append({"id": f"k{i}", "goal": "bake", "actions": actions})
    path.write_text("".join(json.dumps(r) + "\n" for r in records))


class TestHeldOutMark:
    """A mark seen only in the held-out split still has a duration cluster."""

    @pytest.fixture(scope="class")
    def run(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("held_out")
        write_held_out_mark_corpus(root / "corpus.jsonl")
        (root / "config.json").write_text(json.dumps(CONFIG))
        assert main(["train", "--data", str(root / "corpus.jsonl"), "--config",
                     str(root / "config.json"), "--out", str(root / "run")]) == 0
        return root / "run"

    def test_split_holds_the_mark_out(self, run):
        held = [json.loads(line) for line in (run / "test.jsonl").read_text().splitlines()]
        assert [r["id"] for r in held if "zz" in {a["mark"] for a in r["actions"]}] == ["k5"]
        payload = json.loads((run / "final.json").read_text())
        vocab = payload["vocab"]
        assert len(payload["clusters"]["assignments"]) == len(vocab["marks"]) + 1
        assert "zz" not in {vocab["marks"][mk] for marks in vocab["goal_marks"] for mk in marks}

    def test_eval_on_the_written_split(self, run, tmp_path):
        assert main(["eval", "--ckpt", str(run), "--data", str(run / "test.jsonl"),
                     "--report", str(tmp_path / "r.json")]) == 0

    def test_generate_from_the_held_out_mark(self, run, tmp_path):
        out = tmp_path / "g.jsonl"
        assert main(["generate", "--ckpt", str(run), "--goal", "bake", "--first-mark", "zz",
                     "--count", "2", "--out", str(out)]) == 0
        assert all(json.loads(line)["actions"][0]["mark"] == "zz"
                   for line in out.read_text().splitlines())


class TestGradcheck:
    def test_passes_on_small_model(self, workspace, capsys):
        assert main(["gradcheck", "--config", str(workspace["config"])]) == 0
        out = capsys.readouterr().out
        assert out.startswith("gradcheck ok: max relative error")

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1", "0"])
    def test_tolerance_must_be_finite_and_positive(self, workspace, capsys, tol):
        assert main(["gradcheck", "--config", str(workspace["config"]), "--tol", tol]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("E_USAGE: --tol must be finite and positive")
        assert "gradcheck ok" not in captured.out

    @pytest.mark.parametrize("seed", ["-1", "-7"])
    def test_negative_seed_is_usage_error(self, capsys, tmp_path, seed):
        # a missing config would exit 1, so exit 2 shows the seed is checked first
        assert main(["gradcheck", "--config", str(tmp_path / "none.json"),
                     "--seed", seed]) == 2
        assert capsys.readouterr().err.startswith("E_USAGE: --seed must be non-negative")

    def test_negative_config_seed_stays_config_error(self, capsys, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"train": {"seed": -1}}))
        assert main(["gradcheck", "--config", str(config)]) == 1
        assert capsys.readouterr().err.startswith("E_CONFIG:")

    def test_impossible_tolerance_fails(self, workspace, capsys):
        assert main(["gradcheck", "--config", str(workspace["config"]),
                     "--tol", "1e-16"]) == 1
        assert capsys.readouterr().err.startswith("E_GRADCHECK:")


class TestSweep:
    def test_grid_to_csv(self, workspace, capsys, tmp_path):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"epochs": [1], "gamma": [0.5, 0.9]}))
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", str(workspace["config"]),
                     "--grid", str(grid), "--data", str(workspace["corpus"]),
                     "--out", str(out)]) == 0
        assert "swept 2 points (0 failed)" in capsys.readouterr().out
        lines = out.read_text().splitlines()
        assert lines[0] == "epochs,gamma,status,apa,mae,gpa_0.3,gpa_0.6,gpa_1,error"
        assert len(lines) == 3

    def test_grid_must_be_object(self, workspace, capsys, tmp_path):
        grid = tmp_path / "grid.json"
        grid.write_text("[1, 2]")
        assert main(["sweep", "--grid", str(grid),
                     "--data", str(workspace["corpus"]),
                     "--out", str(tmp_path / "s.csv")]) == 1
        assert capsys.readouterr().err.startswith("E_CONFIG:")

    def test_missing_corpus_source(self, workspace, capsys, tmp_path):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"gamma": [0.5]}))
        assert main(["sweep", "--grid", str(grid),
                     "--out", str(tmp_path / "s.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("E_CONFIG:") and "corpus" in err


    def test_data_train_fraction_sets_the_held_out_share(self, workspace, monkeypatch,
                                                         tmp_path):
        held_out = []
        run_training = evaluation.run_training

        def recording(*args, **kwargs):
            result = run_training(*args, **kwargs)
            held_out.append(len(result[1].test_raw))
            return result

        monkeypatch.setattr(evaluation, "run_training", recording)
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"epochs": [1]}))
        fractions = (0.5, 0.8)
        for fraction in fractions:
            config = tmp_path / "config.json"
            config.write_text(json.dumps({**CONFIG, "data": {"train_fraction": fraction}}))
            assert main(["sweep", "--config", str(config), "--grid", str(grid),
                         "--data", str(workspace["corpus"]),
                         "--out", str(tmp_path / "s.csv")]) == 0
        corpus, _ = load_corpus(workspace["corpus"])
        expected = [len(split_by_goal(corpus, f, seed=0)[1]) for f in fractions]
        assert held_out == expected and expected[0] > expected[1]

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_is_usage_error(self, workspace, capsys, tmp_path, workers):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"gamma": [0.5]}))
        out = tmp_path / "s.csv"
        assert main(["sweep", "--grid", str(grid), "--data", str(workspace["corpus"]),
                     "--out", str(out), "--workers", workers]) == 2
        assert capsys.readouterr().err.startswith("E_USAGE: --workers must be at least 1")
        assert not out.exists()


class TestAblateDelete:
    def test_thins_corpus(self, workspace, capsys, tmp_path):
        out = tmp_path / "thin.jsonl"
        assert main(["ablate-delete", "--data", str(workspace["corpus"]),
                     "--fraction", "0.4", "--out", str(out)]) == 0
        msg = capsys.readouterr().out
        assert msg.startswith("kept ") and str(out) in msg
        thin_lines = out.read_text().splitlines()
        assert len(thin_lines) == 30
        orig_total = sum(len(json.loads(l)["actions"])
                         for l in workspace["corpus"].read_text().splitlines())
        thin_total = sum(len(json.loads(l)["actions"]) for l in thin_lines)
        assert thin_total < orig_total

    def test_out_of_range_fraction(self, workspace, capsys, tmp_path):
        assert main(["ablate-delete", "--data", str(workspace["corpus"]),
                     "--fraction", "1.5", "--out", str(tmp_path / "t.jsonl")]) == 1
        assert capsys.readouterr().err.startswith("E_DATA:")

    @pytest.mark.parametrize("seed", ["-1", "-7"])
    def test_negative_seed_is_usage_error(self, capsys, tmp_path, seed):
        # a missing corpus would exit 1, so exit 2 shows the seed is checked first
        out = tmp_path / "t.jsonl"
        assert main(["ablate-delete", "--data", str(tmp_path / "nothing.jsonl"),
                     "--fraction", "0.4", "--seed", seed, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("E_USAGE: --seed must be non-negative")
        assert not out.exists()


class TestLogging:
    """Log records go to stderr as LEVEL: message; -v shows INFO. Nothing a
    command writes depends on the level."""

    @pytest.fixture(scope="class")
    def config(self, tmp_path_factory):
        # no cluster count: the default 8 is lowered to the corpus's
        # distinct mean gaps, which is an INFO notice
        path = tmp_path_factory.mktemp("logcfg") / "config.json"
        path.write_text(json.dumps({"model": {"d": 4, "heads": 2, "blocks": 1},
                                    "train": CONFIG["train"]}))
        return path

    def test_verbose_train_shows_epochs_and_writes_the_same_files(
            self, workspace, config, capsys, tmp_path):
        runs = {}
        for flags in ([], ["-v"]):
            out = tmp_path / ("verbose" if flags else "quiet")
            assert main(["train", "--data", str(workspace["corpus"]), "--config", str(config),
                         "--out", str(out), *flags]) == 0
            err = capsys.readouterr().err
            report = tmp_path / f"{out.name}.json"
            assert main(["eval", "--ckpt", str(out), "--data", str(out / "test.jsonl"),
                         "--report", str(report), *flags]) == 0
            capsys.readouterr()
            runs[out.name] = (err, out, report)
        quiet, verbose = runs["quiet"], runs["verbose"]
        assert "INFO:" not in quiet[0]
        assert re.search(r"^INFO: epoch 1: total \S+ \(nll", verbose[0], re.M)
        assert re.search(r"^INFO: epoch 2: total", verbose[0], re.M)
        assert re.search(r"^INFO: lowering the cluster count from 8 to", verbose[0], re.M)
        for name in ("final.json", "best.json", "test.jsonl"):
            assert (quiet[1] / name).read_bytes() == (verbose[1] / name).read_bytes(), name
        assert quiet[2].read_bytes() == verbose[2].read_bytes()

    def test_warnings_print_with_a_level_prefix(self, workspace, capsys, tmp_path):
        # deleting 90% of a three-action sequence leaves one action, so
        # every sequence is dropped with a warning
        args = ["ablate-delete", "--data", str(workspace["corpus"]), "--fraction", "0.9"]
        assert main(args + ["--out", str(tmp_path / "a.jsonl")]) == 0
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 30
        assert all(re.fullmatch(r"WARNING: sequence s\d+ reduced below 2 actions; dropped",
                                line) for line in err)
        assert main(args + ["--out", str(tmp_path / "b.jsonl"), "--log-level", "ERROR"]) == 0
        assert capsys.readouterr().err == ""

    def test_default_train_prints_nothing_to_stderr(self, workspace, capsys, tmp_path):
        # each template's last mark is never followed: an INFO notice, not a warning
        assert main(["train", "--data", str(workspace["corpus"]),
                     "--config", str(workspace["config"]), "--epochs", "1",
                     "--out", str(tmp_path / "run")]) == 0
        assert capsys.readouterr().err == ""
        assert main(["train", "--data", str(workspace["corpus"]),
                     "--config", str(workspace["config"]), "--epochs", "1",
                     "--out", str(tmp_path / "verbose"), "-v"]) == 0
        assert re.search(r"^INFO: mark id \d+ has no observed follower",
                         capsys.readouterr().err, re.M)

    def test_unknown_level_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--spec", "s.json", "--out", "o.jsonl", "--log-level", "LOUD"])
        assert exc.value.code == 2
        assert "E_USAGE:" in capsys.readouterr().err


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2
        assert "E_USAGE:" in capsys.readouterr().err

    def test_missing_required_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--spec", "x.json"])
        assert exc.value.code == 2
        assert "E_USAGE:" in capsys.readouterr().err

    def test_no_arguments(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2


def run_module(*args):
    """``python -m actionflow`` on the package this suite imported."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "actionflow", *args],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})


class TestEntryPoint:
    def test_module_invocation(self):
        proc = run_module("--help")
        assert proc.returncode == 0
        assert "actionflow" in proc.stdout
        for name in ("synth", "train", "eval", "generate", "gradcheck",
                     "sweep", "ablate-delete"):
            assert name in proc.stdout

    def test_module_usage_error_exit_code(self):
        proc = run_module("nope")
        assert proc.returncode == 2
        assert "E_USAGE:" in proc.stderr
