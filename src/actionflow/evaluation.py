"""Metrics and reports: next-action accuracy, time error, goal detection,
generation fidelity, and the hyperparameter sensitivity sweep.

Conventions shared by all entry points:

* Test corpora are raw (no terminal marks); every reported transition count
  is the sum of n_i - 1 over raw test sequences.
* The test sequences are encoded once, together (teacher_forced); the
  next-action and goal scorers both read each sequence's slice of that pass.
* Next-action metrics are teacher-forced micro-averages over all test
  transitions: the predicted mark is the head argmax, the predicted time is
  the previous time plus the lognormal median.
* Goal accuracy at prefix fraction f feeds the first ceil(f * n) actions
  (at least one) and scores the argmax goal at the last fed index.
* Generation comparisons align the first |truth| generated core actions
  with the truth. Missing positions (generation stopped early) count as
  mark misses but are excluded from the time error.

Reports carry per-sequence records sufficient to recompute every summary
number exactly.
"""

from __future__ import annotations

import csv
import itertools
import json
import logging
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from typing import NamedTuple

import numpy as np

from .data import Ctas, load_corpus, read_record
from .generation import TERMINATION_REASONS, GenRequest, core_actions, generate
from .model import Model, ModelConfig, pack
from .training import TrainConfig, run_training

log = logging.getLogger(__name__)

REPORT_VERSION = 1

DEFAULT_PREFIXES = (0.3, 0.6, 1.0)


def _fraction_key(f: float) -> str:
    """Short form when it reads back as the same fraction, full repr otherwise,
    so that two fractions never share a key."""
    short = format(float(f), "g")
    return short if float(short) == f else repr(float(f))


# ---------------------------------------------------------------------------
# teacher-forced next-action metrics
# ---------------------------------------------------------------------------

class SeqRows(NamedTuple):
    """One test sequence's rows of the packed teacher-forced pass, as plain
    arrays: next-mark and goal probabilities and the lognormal mu."""

    mark_prob: np.ndarray
    goal_prob: np.ndarray
    mu: np.ndarray


def teacher_forced(model: Model, corpus: list[Ctas]) -> list[tuple[Ctas, SeqRows]]:
    """Every sequence's predictions over its observed actions, in id order.

    The sequences are encoded together in one packed forward pass; each gets
    views of the rows that belong to it.
    """
    ordered = sorted(corpus, key=lambda s: s.id)
    if not ordered:
        return []
    fwd = model.forward(*pack(ordered))
    mark_prob, goal_prob, mu = fwd.mark_prob.data, fwd.goal_prob.data, fwd.mu.data[:, 0]
    bounds = zip(fwd.segs.starts.tolist(), (fwd.segs.last + 1).tolist())
    return [(seq, SeqRows(mark_prob[a:b], goal_prob[a:b], mu[a:b]))
            for seq, (a, b) in zip(ordered, bounds)]


def next_action_eval(passes: list[tuple[Ctas, SeqRows]]) -> dict:
    """Micro-averaged mark accuracy and absolute time error over transitions."""
    records = []
    correct = 0
    transitions = 0
    abs_err = 0.0
    for seq, rows in passes:
        n = len(seq.actions)
        if n < 2:
            raise ValueError(f"sequence {seq.id!r} has no transitions to evaluate")
        marks = seq.marks()
        times = seq.times()
        pred_marks = np.argmax(rows.mark_prob[:-1], axis=1)
        pred_times = times[:-1] + np.exp(rows.mu[:-1])
        seq_correct = int(np.sum(pred_marks == marks[1:]))
        seq_err = float(np.sum(np.abs(pred_times - times[1:])))
        records.append({"id": seq.id, "transitions": n - 1,
                        "correct": seq_correct, "abs_err_sum": seq_err})
        correct += seq_correct
        transitions += n - 1
        abs_err += seq_err
    return {
        "apa": correct / transitions,
        "mae": abs_err / transitions,
        "transitions": transitions,
        "per_sequence": records,
    }


def majority_mark_baseline(train: list[Ctas], test: list[Ctas]) -> float:
    """Accuracy of always predicting the most frequent transition target."""
    counts: dict[int, int] = {}
    for seq in train:
        for a in seq.actions[1:]:
            counts[a.mark] = counts.get(a.mark, 0) + 1
    if not counts:
        raise ValueError("training corpus has no transitions")
    top = max(sorted(counts), key=lambda mk: counts[mk])
    hits = 0
    total = 0
    for seq in test:
        targets = seq.marks()[1:]
        hits += int(np.sum(targets == top))
        total += targets.size
    return hits / total


# ---------------------------------------------------------------------------
# goal detection
# ---------------------------------------------------------------------------

def goal_eval(passes: list[tuple[Ctas, SeqRows]],
              prefix_fractions=DEFAULT_PREFIXES) -> dict:
    """Goal accuracy when only a leading fraction of each sequence is visible.

    A fraction listed twice is scored once, at its first position.
    """
    fractions = tuple(dict.fromkeys(float(f) for f in prefix_fractions))
    for f in fractions:
        if not 0.0 < f <= 1.0:
            raise ValueError(f"prefix fraction must lie in (0, 1], got {f}")
    hits = {f: 0 for f in fractions}
    records = []
    for seq, rows in passes:
        n = len(seq.actions)
        goals = np.argmax(rows.goal_prob, axis=1)
        row = {"id": seq.id, "goal": seq.goal, "predicted": {}}
        for f in fractions:
            k = max(1, math.ceil(f * n))
            pred = int(goals[k - 1])
            row["predicted"][_fraction_key(f)] = pred
            if pred == seq.goal:
                hits[f] += 1
        records.append(row)
    return {
        "gpa_at": {_fraction_key(f): hits[f] / len(passes) for f in fractions},
        "per_sequence": records,
    }


# ---------------------------------------------------------------------------
# generation fidelity
# ---------------------------------------------------------------------------

def generation_eval(model: Model, corpus: list[Ctas], seed: int = 0,
                    max_len: int | None = None) -> dict:
    """Generate from each truth's goal and first action, then compare.

    Each sequence gets its own rng derived from (seed, rank in id order),
    so results never depend on evaluation order or corpus slicing.
    """
    records = []
    matched = 0
    truth_positions = 0
    compared = 0
    abs_err = 0.0
    length_hits = 0
    reasons = dict.fromkeys(TERMINATION_REASONS, 0)
    ordered = sorted(corpus, key=lambda s: s.id)
    for rank, seq in enumerate(ordered):
        rng = np.random.default_rng([seed, rank])
        request = GenRequest(goal=seq.goal, first_mark=seq.actions[0].mark,
                             first_t=seq.actions[0].t, max_len=max_len,
                             mode="stochastic")
        gen, reason = generate(model, request, rng=rng, seq_id=f"gen:{seq.id}")
        core = core_actions(gen, model.vocab.eos_id)
        n = len(seq.actions)
        overlap = min(n, len(core))
        seq_matched = sum(1 for i in range(overlap)
                          if core[i].mark == seq.actions[i].mark)
        seq_err = sum(abs(core[i].t - seq.actions[i].t) for i in range(overlap))
        reasons[reason] += 1
        if len(core) == n:
            length_hits += 1
        records.append({
            "id": seq.id, "truth_len": n, "gen_len": len(core),
            "matched": seq_matched, "compared": overlap,
            "abs_err_sum": seq_err, "reason": reason,
        })
        matched += seq_matched
        truth_positions += n
        compared += overlap
        abs_err += seq_err
    return {
        "apa": matched / truth_positions,
        "mae": abs_err / compared if compared else 0.0,
        "cl": length_hits / len(ordered),
        "reasons": reasons,
        "per_sequence": records,
    }


# ---------------------------------------------------------------------------
# combined report
# ---------------------------------------------------------------------------

@dataclass
class EvalReport:
    """Everything one evaluation produces, serializable to stable JSON."""

    apa: float
    mae: float
    gpa_at: dict[str, float]
    cl: float | None
    seed: int
    config: dict
    transitions: int
    generation: dict | None = None
    per_sequence: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"version": REPORT_VERSION, **asdict(self)}

    def json_bytes(self) -> bytes:
        return (json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n").encode("utf-8")

    def save(self, path) -> None:
        with open(path, "wb") as fh:
            fh.write(self.json_bytes())


def full_report(model: Model, test: list[Ctas], *, seed: int = 0,
                prefix_fractions=DEFAULT_PREFIXES, config_echo: dict | None = None,
                with_generation: bool = True) -> EvalReport:
    """Run all evaluations on a raw test corpus and bundle the results."""
    if not test:
        raise ValueError("empty test corpus")
    passes = teacher_forced(model, test)
    next_part = next_action_eval(passes)
    goal_part = goal_eval(passes, prefix_fractions)
    gen_part = None
    cl = None
    if with_generation:
        gen_part = generation_eval(model, test, seed=seed)
        cl = gen_part["cl"]
    per_sequence = {
        "next_action": next_part["per_sequence"],
        "goal": goal_part["per_sequence"],
    }
    generation_summary = None
    if gen_part is not None:
        per_sequence["generation"] = gen_part["per_sequence"]
        generation_summary = {k: gen_part[k] for k in ("apa", "mae", "cl", "reasons")}
    return EvalReport(
        apa=next_part["apa"],
        mae=next_part["mae"],
        gpa_at=goal_part["gpa_at"],
        cl=cl,
        seed=seed,
        config=config_echo or {},
        transitions=next_part["transitions"],
        generation=generation_summary,
        per_sequence=per_sequence,
    )


# ---------------------------------------------------------------------------
# sensitivity sweep
# ---------------------------------------------------------------------------

def _assign_key(model_dict: dict, train_dict: dict, key: str, value) -> None:
    if key in ModelConfig.__dataclass_fields__:
        model_dict[key] = value
    elif key in TrainConfig.__dataclass_fields__:
        train_dict[key] = value
    else:
        raise ValueError(f"unknown sweep key {key!r}")


def sweep_point(corpus_path: str, model_dict: dict, train_dict: dict,
                point: dict, train_fraction: float = 0.8) -> dict:
    """Train and evaluate one grid point; errors are captured, not raised."""
    row = dict(point)
    try:
        model_dict = dict(model_dict)
        train_dict = dict(train_dict)
        for key, value in point.items():
            _assign_key(model_dict, train_dict, key, value)
        corpus, vocab = load_corpus(corpus_path)
        model_cfg = read_record(ModelConfig, model_dict, "model config")
        train_cfg = TrainConfig.from_dict(train_dict)
        model, prep, _ = run_training(corpus, vocab, model_cfg, train_cfg,
                                      train_fraction=train_fraction)
        report = full_report(model, prep.test_raw, with_generation=False)
        row.update({"status": "ok", "apa": report.apa, "mae": report.mae, "error": ""})
        for f in DEFAULT_PREFIXES:
            row[f"gpa_{_fraction_key(f)}"] = report.gpa_at[_fraction_key(f)]
    except Exception as e:  # a failed point must not sink the sweep
        log.warning("sweep point %s failed: %s", point, e)
        row.update({"status": "error", "apa": "", "mae": "", "error": str(e)})
        for f in DEFAULT_PREFIXES:
            row[f"gpa_{_fraction_key(f)}"] = ""
    return row


def _sweep_point_star(args) -> dict:
    return sweep_point(*args)


def sensitivity_sweep(corpus_path: str, model_dict: dict, train_dict: dict,
                      grid: dict[str, list], workers: int = 1,
                      train_fraction: float = 0.8) -> tuple[list[dict], list[str]]:
    """Cartesian product of grid values, one trained model per point.

    Returns (rows, grid key order). Every point shares the base configs, seed
    and train fraction; rows keep the product order regardless of worker count.
    """
    if not grid:
        raise ValueError("empty sweep grid")
    keys = sorted(grid)
    for key in keys:
        if not isinstance(grid[key], list) or not grid[key]:
            raise ValueError(f"sweep grid entry {key!r} must be a non-empty list")
        _assign_key(dict(model_dict), dict(train_dict), key, grid[key][0])
    points = [dict(zip(keys, combo)) for combo in itertools.product(*(grid[k] for k in keys))]
    jobs = [(corpus_path, model_dict, train_dict, p, train_fraction) for p in points]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_sweep_point_star, jobs))
    else:
        rows = [sweep_point(*job) for job in jobs]
    return rows, keys


def write_sweep_csv(rows: list[dict], keys: list[str], path) -> None:
    columns = list(keys) + ["status", "apa", "mae"] \
        + [f"gpa_{_fraction_key(f)}" for f in DEFAULT_PREFIXES] + ["error"]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns)
        writer.writeheader()
        for row in rows:
            writer.writerow({c: row.get(c, "") for c in columns})
