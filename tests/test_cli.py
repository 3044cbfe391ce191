"""End-to-end and error-path tests for the command line interface."""

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from actionflow import cli
from actionflow.cli import RunConfig, main
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
        {"train": {"eos_time_term": "no"}},
        {"data": {"train_fraction": "0.8"}},
        {"train": {"lr": float("nan")}},
    ], ids=["model_not_object", "epochs_string", "width_string", "config_not_object",
            "width_float", "batch_size_float", "epochs_bool", "switch_string",
            "fraction_string", "lr_nan"])
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

    @pytest.mark.parametrize("flags", [["--epochs", "0"], ["--seed", "-1"]],
                             ids=["epochs_zero", "seed_negative"])
    def test_bad_override_writes_nothing(self, workspace, capsys, tmp_path, flags):
        out = tmp_path / "f1"
        assert main(["train", "--data", str(workspace["corpus"]),
                     "--out", str(out), *flags]) == 1
        assert capsys.readouterr().err.startswith("E_CONFIG:")
        assert not out.exists()

    def test_readme_run_config_parses(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = re.search(r"\*\*Run config\*\*.*?```json\n(.*?)```", readme, re.S).group(1)
        cfg = RunConfig.from_dict(json.loads(block))
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
        names, shapes, params = payload["names"], payload["shapes"], payload["params"]
        vectors = (params, payload["optimizer"]["m"], payload["optimizer"]["v"])
        if kind == "ill_typed_field":
            payload["params"] = {}  # an object where a list belongs
        elif kind == "optimizer_missing_name":
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
        elif kind == "param_missing":
            at = names.index("mark.w")
            del names[at], shapes[at]
        elif kind == "param_reshaped":
            shapes[names.index("mark.w")] = [1, 1]
        elif kind == "params_wrong_length":
            params.pop()
        elif kind == "params_non_finite_null":
            params[value_span(payload, "mark.w").start] = None
        elif kind == "params_non_finite_nan":
            params[value_span(payload, "mark.w").start] = math.nan
        elif kind == "optimizer_wrong_length":
            payload["optimizer"]["m"].append(0.0)
        else:  # version_2: the per-name layout this file replaced
            payload["version"] = 2
        text = json.dumps(payload)
    ckpt = tmp_path / "final.json"
    ckpt.write_text(text)
    return ckpt


class TestUnreadableCheckpoint:
    KINDS = ("truncated", "not_an_object", "missing_fields", "ill_typed_field",
             "optimizer_missing_name", "optimizer_extra_name", "param_missing",
             "param_reshaped", "params_wrong_length", "params_non_finite_null",
             "params_non_finite_nan", "optimizer_wrong_length", "version_2")

    @pytest.mark.parametrize("kind", KINDS)
    def test_eval(self, workspace, capsys, tmp_path, kind):
        ckpt = write_unreadable_checkpoint(kind, workspace, tmp_path)
        assert main(["eval", "--ckpt", str(ckpt),
                     "--data", str(workspace["run"] / "test.jsonl"),
                     "--report", str(tmp_path / "r.json")]) == 1
        assert capsys.readouterr().err.startswith("E_NO_CKPT:")
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("kind", KINDS)
    def test_generate(self, workspace, capsys, tmp_path, kind):
        write_unreadable_checkpoint(kind, workspace, tmp_path)
        assert main(["generate", "--ckpt", str(tmp_path), "--goal", "brew",
                     "--first-mark", "grind", "--out", str(tmp_path / "g.jsonl")]) == 1
        assert capsys.readouterr().err.startswith("E_NO_CKPT:")
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
