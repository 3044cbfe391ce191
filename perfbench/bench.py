"""One benchmark run: set-up, measured loop, checks, and the numbers.

``Bench.run`` does the work described in ``run.py``; ``end_to_end`` and
``per_layer`` reduce what it measured. Every call into actionflow goes
through a module attribute, so the hooks in ``tracing`` see it.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import math
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from actionflow import data, evaluation, generation, model, numerics, objectives
from actionflow import synth, training

import tracing

# explicit save_checkpoint calls per job when train() wrote no checkpoint
SAVE_PROBES = 4
# a percentile is reported only with at least ten samples beyond it
MIN_STEPS = 100
MIN_GEN_REQUESTS = 100
# no new cycle starts once the loop has run this long past --seconds, even
# with too few samples, so that a slow commit still finishes
HARD_STOP_EXTRA_S = 90.0

# returned by Bench.call when the call raised
FAILED = object()

# end-to-end numbers printed with the others but left out of BENCHMARK.json:
# the medians move with the host more than a bound can allow, and no relative
# bound can hold the other two (see README.md)
UNGATED = {"train_step_ms_p50": "ms", "ckpt_save_ms_p50": "ms", "ckpt_load_ms_p50": "ms",
           "gen_step_ms_p50": "ms", "eval_gpa_0.3": "ratio", "failed_ratio": "ratio"}


def digest(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()


def file_digest(path) -> str:
    with open(path, "rb") as fh:
        return digest(fh.read())


@dataclass
class Samples:
    """What the traced or the untraced share of a run measured."""

    setup_s: list[float] = field(default_factory=list)
    # (work, seconds) per call: training sequences x epochs per train(),
    # test sequences per full_report(), requests per generation batch
    train: list[tuple[int, float]] = field(default_factory=list)
    eval: list[tuple[int, float]] = field(default_factory=list)
    gen: list[tuple[int, float]] = field(default_factory=list)
    step_ms: list[float] = field(default_factory=list)
    save_ms: list[float] = field(default_factory=list)
    load_ms: list[float] = field(default_factory=list)
    gen_ms_per_action: list[float] = field(default_factory=list)


# Latencies are reported at the 75th and 90th percentile, rates at the rate
# three calls in four reach. On a shared host a run's fastest calls are the
# moments its neighbours left the cores idle, and how many such moments a run
# gets changes from run to run; the median sits where fast and slow calls
# meet and moves with that share, the upper quartile hardly does (README.md).
UPPER = 75


def pct(values: list[float], q: float) -> float:
    return float(np.percentile(values, q))


def rate(calls: list[tuple[int, float]]) -> float:
    """Work per second that three calls in four reach or beat."""
    return float(np.percentile([w / t for w, t in calls], 100 - UPPER))


class Bench:
    """One workload run: set-up, measured loop, checks and results."""

    def __init__(self, wl, seed: int, seconds: int, trace: bool, workdir: Path):
        self.wl = wl
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.workdir = workdir
        self.model_cfg = model.ModelConfig()
        self.train_cfg = training.TrainConfig.from_dict(wl.train)
        self.samples = {False: Samples(), True: Samples()}
        self.probe = tracing.Probe()
        self.tracer = tracing.Tracer()
        self.attempted = 0
        self.failed = 0
        self.first_digest: dict[str, str] = {}
        self.final_loss = None
        self.report = None
        self.cycles = 0
        self.counts: dict[str, int] = {}

    # -- call accounting ----------------------------------------------------

    def call(self, what: str, fn, *args, **kwargs):
        """Run one call into the package; an exception counts as a failure."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.failed += 1
            print(f"perfbench: {what} failed:\n{traceback.format_exc()}", file=sys.stderr)
            return FAILED

    def fail_checks(self, what: str, problems: list[str]) -> None:
        """Count a call whose output failed a check as failed."""
        if problems:
            self.failed += 1
            for p in problems:
                print(f"perfbench: check failed on {what}: {p}", file=sys.stderr)

    def same_as_first(self, key: str, value: str) -> list[str]:
        first = self.first_digest.setdefault(key, value)
        return [] if first == value else [f"{key} differs from the first repeat"]

    @contextlib.contextmanager
    def unit(self, traced: bool, run_id: int, record: bool = True):
        """A set-up or cycle, under the tracer when ``traced``. Its timings
        are kept unless ``record`` is false (the warm-up cycle)."""
        # garbage left by the previous unit is not this unit's cost
        gc.collect()
        s = self.samples[traced] if record else Samples()
        if traced:
            self.tracer.run_id = run_id
            self.tracer.install()
        try:
            yield s
        finally:
            if traced:
                self.tracer.uninstall()
            s.step_ms += self.probe.step_ms
            s.save_ms += self.probe.save_ms
            self.probe.step_ms.clear()
            self.probe.save_ms.clear()

    # -- the workload ---------------------------------------------------------

    def setup(self, rep: int, traced: bool):
        wl = self.wl
        with self.unit(traced, -1 - rep) as s:
            started = time.perf_counter()
            corpus, vocab = synth.generate(wl.spec(self.seed))
            corpus = wl.shift_clocks(wl.balance(corpus), self.seed)
            path = self.workdir / "corpus.jsonl"
            data.write_corpus(corpus, vocab, path)
            corpus, vocab = data.load_corpus(path)
            prep = training.prepare(corpus, vocab, self.model_cfg, self.train_cfg)
            ckpt = None
            if wl.train_in_setup:
                ckpt_dir = self.workdir / f"setup{rep}"
                if self.train_job(prep, ckpt_dir, s) is None:
                    raise SystemExit("perfbench: set-up training failed")
                ckpt = ckpt_dir / "final.json"
            s.setup_s.append(time.perf_counter() - started)
        self.attempted += 1
        self.fail_checks("set-up", self.same_as_first("corpus", file_digest(path)))
        return prep, ckpt

    def train_job(self, prep, ckpt_dir, s: Samples):
        """Train a fresh model; same seed and corpus, so every job is alike."""
        started = time.perf_counter()
        out = self.call("train", training.train, prep.train_aug, prep.vocab,
                        prep.clusters, prep.model_config, self.train_cfg,
                        ckpt_dir=None if ckpt_dir is None else str(ckpt_dir))
        if out is FAILED:
            return None
        s.train.append((len(prep.train_aug) * self.train_cfg.epochs,
                        time.perf_counter() - started))
        trained, entries = out
        problems = [f"epoch {e['epoch']}: non-finite {k}" for e in entries
                    for k in ("nll", "goal_ce", "margin_goal", "margin_action", "l2", "total")
                    if not math.isfinite(e[k])]
        self.final_loss = entries[-1]["total"]
        problems += self.same_as_first("final loss", repr(self.final_loss))
        if ckpt_dir is not None:
            problems += self.same_as_first("checkpoint", file_digest(ckpt_dir / "final.json"))
        self.fail_checks("train", problems)
        return trained

    def save_probes(self, trained) -> Path:
        """Explicit checkpoint writes for a job that wrote none itself."""
        path = self.workdir / "probe.json"
        for _ in range(SAVE_PROBES):
            if self.call("save_checkpoint", training.save_checkpoint,
                         str(path), trained, self.train_cfg) is not FAILED:
                self.fail_checks("save_checkpoint",
                                 self.same_as_first("probe checkpoint", file_digest(path)))
        return path

    def load(self, path, s: Samples):
        started = time.perf_counter()
        ckpt = self.call("load_checkpoint", training.load_checkpoint, str(path))
        if ckpt is FAILED:
            return None
        s.load_ms.append((time.perf_counter() - started) * 1e3)
        return ckpt

    def evaluate(self, net, test, s: Samples) -> None:
        started = time.perf_counter()
        report = self.call("full_report", evaluation.full_report, net, test,
                           seed=self.seed, with_generation=False)
        if report is FAILED:
            return
        s.eval.append((len(test), time.perf_counter() - started))
        values = [report.apa, report.mae, *report.gpa_at.values()]
        problems = [] if all(math.isfinite(v) for v in values) else ["non-finite metric"]
        problems += self.same_as_first("report", digest(report.json_bytes()))
        self.fail_checks("full_report", problems)
        self.report = report

    def generate_batch(self, net, test, s: Samples) -> None:
        """The same requests every cycle, spread evenly over the goals, so
        every batch is the same work and the mix of goals does not depend on
        how the seed split the corpus."""
        first_of_goal: dict[int, object] = {}
        for q in sorted(test, key=lambda q: q.id):
            first_of_goal.setdefault(q.goal, q)
        goals = sorted(first_of_goal)
        cap = self.wl.gen_cap or net.config.max_len
        batch_s = 0.0
        sent = 0
        outputs = hashlib.sha256()
        for n in range(self.wl.gen_requests):
            # request n seeds its own rng with (seed, n), as generate --count does
            truth = first_of_goal[goals[n % len(goals)]]
            request = generation.GenRequest(
                goal=truth.goal, first_mark=truth.actions[0].mark, first_t=truth.actions[0].t,
                max_len=self.wl.gen_cap, seed=self.seed, mode=self.wl.gen_mode)
            started = time.perf_counter()
            out = self.call("generate", generation.generate, net, request,
                            rng=np.random.default_rng([self.seed, n]), seq_id=f"gen{n:06d}")
            if out is FAILED:
                continue
            elapsed = time.perf_counter() - started
            seq, reason = out
            batch_s += elapsed
            sent += 1
            s.gen_ms_per_action.append(elapsed * 1e3 / (len(seq.actions) - 1))
            outputs.update(repr((n, reason, seq.marks().tolist(),
                                 seq.times().tolist())).encode())
            self.fail_checks(f"generate #{n}", self.check_generated(
                seq, reason, truth.goal, cap, net.vocab.eos_id, generation.TERMINATION_REASONS))
        if sent:
            s.gen.append((sent, batch_s))
        self.attempted += 1
        self.fail_checks("generation batch",
                         self.same_as_first("generated", outputs.hexdigest()))

    @staticmethod
    def check_generated(seq, reason, goal, cap, eos, reasons) -> list[str]:
        problems = []
        try:
            seq.validate()
        except data.DataError as e:
            problems.append(str(e))
        marks = seq.marks().tolist()
        if marks.count(eos) != 1 or marks[-1] != eos:
            problems.append("needs exactly one terminal mark, at the end")
        if len(marks) - 1 > cap:
            problems.append(f"core length {len(marks) - 1} exceeds the cap {cap}")
        if reason not in reasons:
            problems.append(f"unknown stop reason {reason!r}")
        if seq.goal != goal:
            problems.append("goal differs from the request")
        return problems

    def serve(self, ckpt_path, test, s: Samples) -> None:
        """``eval --skip-generation`` then ``generate --count``, each loading."""
        ckpt = self.load(ckpt_path, s)
        if ckpt is not None:
            self.evaluate(ckpt.model, test, s)
        ckpt = self.load(ckpt_path, s)
        if ckpt is not None:
            self.generate_batch(ckpt.model, test, s)

    def cycle(self, prep, setup_ckpt, traced: bool, record: bool = True) -> None:
        with self.unit(traced, self.cycles, record) as s:
            ckpt = setup_ckpt
            if not self.wl.train_in_setup:
                job_dir = None
                if self.wl.ckpt_every_epoch:
                    # a fresh output directory per job, as a new `actionflow train --out`
                    job_dir = self.workdir / "job"
                    shutil.rmtree(job_dir, ignore_errors=True)
                trained = self.train_job(prep, job_dir, s)
                if trained is not None:
                    ckpt = job_dir / "final.json" if job_dir else self.save_probes(trained)
            if ckpt is not None and ckpt.exists():
                for _ in range(self.wl.serve_reps):
                    self.serve(ckpt, prep.test_raw, s)

    def tape_counts(self, prep) -> None:
        """Tape records of a one-sequence batch, shortest and longest sequence."""
        fresh = model.Model.init(prep.model_config, prep.vocab, prep.clusters)
        by_len = sorted(prep.train_aug, key=len)
        for key, seq in (("shortest", by_len[0]), ("longest", by_len[-1])):
            with numerics.GradTape() as tape:
                objectives.total_loss(fresh, [seq], gamma=self.train_cfg.gamma,
                                      margin_weight=self.train_cfg.margin_weight,
                                      l2_coeff=self.train_cfg.l2_coeff)
            self.counts[key] = len(tape)

    def enough(self, elapsed: float) -> bool:
        if elapsed >= self.seconds + HARD_STOP_EXTRA_S:
            return True
        if elapsed < self.seconds:
            return False
        if self.trace:
            return self.cycles >= 2
        s = self.samples[False]
        # a workload that trains in its set-up gets no more steps in the loop
        steps = self.wl.train_in_setup or len(s.step_ms) >= MIN_STEPS
        return steps and len(s.gen_ms_per_action) >= MIN_GEN_REQUESTS

    def run(self) -> None:
        self.probe.install()
        try:
            for rep in range(self.wl.setup_reps):
                prep, ckpt = self.setup(rep, traced=self.trace and rep % 2 == 1)
            self.tape_counts(prep)
            # one untimed cycle first, so that first-call costs (lazy imports,
            # caches, allocator growth) stay out of the samples
            self.cycle(prep, ckpt, traced=False, record=False)
            started = time.perf_counter()
            while not self.enough(time.perf_counter() - started):
                self.cycle(prep, ckpt, traced=self.trace and self.cycles % 2 == 1)
                self.cycles += 1
        finally:
            self.probe.uninstall()

    # -- results --------------------------------------------------------------

    def end_to_end(self) -> tuple[dict[str, float], dict[str, int]]:
        """Every end-to-end value, with the sample count behind it."""
        s = self.samples[False]
        values = {
            "setup_s": statistics.median(s.setup_s),
            "train_seq_per_s": rate(s.train),
            "train_step_ms_p50": pct(s.step_ms, 50),
            "train_step_ms_p75": pct(s.step_ms, UPPER),
            "train_step_ms_p90": pct(s.step_ms, 90),
            "train_final_loss": self.final_loss,
            "ckpt_save_ms_p50": pct(s.save_ms, 50),
            "ckpt_save_ms_p75": pct(s.save_ms, UPPER),
            "ckpt_load_ms_p50": pct(s.load_ms, 50),
            "ckpt_load_ms_p75": pct(s.load_ms, UPPER),
            "eval_seq_per_s": rate(s.eval),
            "eval_apa": self.report.apa,
            "eval_gpa_0.3": self.report.gpa_at["0.3"],
            "gen_step_ms_p50": pct(s.gen_ms_per_action, 50),
            "gen_step_ms_p75": pct(s.gen_ms_per_action, UPPER),
            "gen_step_ms_p90": pct(s.gen_ms_per_action, 90),
            "gen_seq_per_s": rate(s.gen),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "failed_ratio": self.failed / self.attempted,
        }
        samples = {
            "setup_s": len(s.setup_s), "train_seq_per_s": len(s.train),
            **dict.fromkeys(("train_step_ms_p50", "train_step_ms_p75", "train_step_ms_p90"),
                            len(s.step_ms)),
            "train_final_loss": 1,
            **dict.fromkeys(("ckpt_save_ms_p50", "ckpt_save_ms_p75"), len(s.save_ms)),
            **dict.fromkeys(("ckpt_load_ms_p50", "ckpt_load_ms_p75"), len(s.load_ms)),
            "eval_seq_per_s": len(s.eval), "eval_apa": 1, "eval_gpa_0.3": 1,
            **dict.fromkeys(("gen_step_ms_p50", "gen_step_ms_p75", "gen_step_ms_p90"),
                            len(s.gen_ms_per_action)),
            "gen_seq_per_s": len(s.gen), "peak_rss_mb": 1, "failed_ratio": self.attempted,
        }
        return values, samples

    def per_layer(self) -> dict[str, float]:
        values = tracing.layer_metrics(self.tracer)
        values["numerics.tape_records_batch1_shortest_seq"] = float(self.counts["shortest"])
        values["numerics.tape_records_batch1_longest_seq"] = float(self.counts["longest"])
        plain, traced = self.samples[False], self.samples[True]

        def overhead(a: list[float], b: list[float]) -> float:
            return 100.0 * (statistics.median(b) / statistics.median(a) - 1.0)

        values["trace.overhead_train_step_pct"] = overhead(plain.step_ms, traced.step_ms)
        values["trace.overhead_eval_pct"] = 100.0 * (rate(plain.eval) / rate(traced.eval) - 1.0)
        values["trace.overhead_gen_step_pct"] = overhead(
            plain.gen_ms_per_action, traced.gen_ms_per_action)
        return values


