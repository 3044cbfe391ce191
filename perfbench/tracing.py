"""Timing hooks and span tracing around actionflow's public calls.

Nothing here edits the package: both classes below swap a module or class
attribute for a timing wrapper and put the original back on ``uninstall``.
Package code that looks a name up through its module (``training.train``
calling ``save_checkpoint``, ``Model.forward`` calling ``enc.encode``) then
runs through the wrapper.

* ``Probe`` holds the few hooks the end-to-end metrics need: the optimizer
  step (from ``total_loss`` entry to ``Adam.update`` exit) and
  ``save_checkpoint``. It costs two clock reads per call.
* ``Tracer`` wraps every layer boundary named in ``LAYER_CALLS`` and records
  one span per call: name, start, end, parent span, run id, phase and a few
  call attributes. Spans stay in memory; ``layer_metrics`` derives the
  per-layer numbers from them at the end of the run.
"""

from __future__ import annotations

import functools
import os
import time

import numpy as np

from actionflow import data, encoder, evaluation, generation, heads, model
from actionflow import numerics, objectives, synth, training

clock = time.perf_counter


class _Patches:
    """Attribute swaps that can be undone in reverse order."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def _swap(self, owner, attr: str, replacement) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


class Probe(_Patches):
    """End-to-end hooks: optimizer step and checkpoint save durations in ms."""

    def __init__(self):
        super().__init__()
        self.step_ms: list[float] = []
        self.save_ms: list[float] = []
        self._step_start = 0.0

    def install(self) -> "Probe":
        total_loss = training.__dict__["total_loss"]
        update = training.Adam.__dict__["update"]
        save = training.__dict__["save_checkpoint"]

        @functools.wraps(total_loss)
        def timed_total_loss(*args, **kwargs):
            self._step_start = clock()
            return total_loss(*args, **kwargs)

        @functools.wraps(update)
        def timed_update(*args, **kwargs):
            result = update(*args, **kwargs)
            self.step_ms.append((clock() - self._step_start) * 1e3)
            return result

        @functools.wraps(save)
        def timed_save(*args, **kwargs):
            started = clock()
            result = save(*args, **kwargs)
            self.save_ms.append((clock() - started) * 1e3)
            return result

        self._swap(training, "total_loss", timed_total_loss)
        self._swap(training.Adam, "update", timed_update)
        self._swap(training, "save_checkpoint", timed_save)
        return self


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------

# (owner, attribute, span name, attribute taken from (args, result)); an
# attribute is a number, string or tuple of those, so the garbage collector
# has no extra containers to visit while spans pile up
LAYER_CALLS = (
    (synth, "generate", "synth.generate", None),
    (data, "load_corpus", "data.load_corpus", None),
    (training, "prepare", "training.prepare", None),
    (training, "train", "training.train", None),
    (training, "total_loss", "objectives.total_loss",
     lambda a, r: len(a[1])),
    (numerics.GradTape, "backward", "numerics.backward", lambda a, r: len(a[0])),
    (training.Adam, "update", "training.adam_update", None),
    (training, "save_checkpoint", "training.save_checkpoint",
     lambda a, r: os.path.getsize(a[0])),
    (training, "load_checkpoint", "training.load_checkpoint", None),
    (objectives, "nll", "objectives.loss_term", None),
    (objectives, "discounted_goal_ce", "objectives.loss_term", None),
    (objectives, "margin_goal", "objectives.loss_term", None),
    (objectives, "margin_action", "objectives.loss_term", None),
    (objectives, "l2_penalty", "objectives.loss_term", None),
    (model.Model, "forward", "model.forward", lambda a, r: len(a[1])),
    (encoder, "embed_actions", "encoder.embed_actions", None),
    (encoder, "encode", "encoder.encode", lambda a, r: int(a[2].data.shape[0])),
    (encoder, "set_embed", "encoder.set_embed", None),
    (heads, "mark_logits", "heads.mark_logits", None),
    (heads, "goal_logits", "heads.goal_logits", None),
    (heads, "time_params", "heads.time_params", None),
    (evaluation, "full_report", "evaluation.full_report",
     lambda a, r: len(a[1])),
    (evaluation, "next_action_eval", "evaluation.next_action_eval", None),
    (evaluation, "goal_eval", "evaluation.goal_eval", None),
    (generation, "generate", "generation.generate",
     lambda a, r: (len(r[0].actions), r[1])),
)

# a span opened under one of these (at any depth) carries its name as phase
PHASES = ("training.train", "evaluation.full_report", "generation.generate")


class Tracer(_Patches):
    """Span recorder: one entry per wrapped call in parallel lists, kept
    until the end of the run. ``parent`` is the index of the enclosing span
    (-1 for none), ``run`` the set-up or cycle it belongs to."""

    def __init__(self):
        super().__init__()
        self.name: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.run: list[int] = []
        self.phase: list[str | None] = []
        self.attr: list = []
        self.run_id = 0
        self._open: list[int] = []

    def install(self) -> "Tracer":
        for owner, attr, name, attrs in LAYER_CALLS:
            self._swap(owner, attr, self._wrap(owner.__dict__[attr], name, attrs))
        return self

    def _wrap(self, fn, name: str, attrs):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._start(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[index] = clock()
                self._open.pop()
            if attrs is not None:
                self.attr[index] = attrs(args, result)
            return result
        return traced

    def _start(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        index = len(self.name)
        self.name.append(name)
        self.parent.append(parent)
        self.run.append(self.run_id)
        self.phase.append(name if name in PHASES
                          else self.phase[parent] if parent >= 0 else None)
        self.attr.append(None)
        self.end.append(0.0)
        self._open.append(index)
        self.start.append(clock())
        return index

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        own = [e - s for s, e in zip(self.start, self.end)]
        for parent, s, e in zip(self.parent, self.start, self.end):
            if parent >= 0:
                own[parent] -= e - s
        return own


def _ms(seconds: float) -> float:
    return seconds * 1e3


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer numbers from the recorded spans.

    Time metrics are busy time divided by the work count in the name
    (sequence, call, step); a metric whose layer never ran reads 0.
    """
    own = tracer.self_times()
    total: dict[str, float] = {}
    self_total: dict[str, float] = {}
    calls: dict[str, int] = {}
    for name, start, end, self_s in zip(tracer.name, tracer.start, tracer.end, own):
        total[name] = total.get(name, 0.0) + end - start
        self_total[name] = self_total.get(name, 0.0) + self_s
        calls[name] = calls.get(name, 0) + 1

    def attrs(name: str, phase: str | None = None) -> list:
        return [a for n, p, a in zip(tracer.name, tracer.phase, tracer.attr)
                if n == name and (phase is None or p == phase)]

    def per(value: float, count: float) -> float:
        return value / count if count else 0.0

    def ms_per(name: str, count: float, table=total) -> float:
        return _ms(per(table.get(name, 0.0), count))

    train_seqs = sum(attrs("objectives.total_loss"))
    steps = calls.get("training.adam_update", 0)
    eval_seqs = sum(attrs("evaluation.full_report"))
    forwards = calls.get("model.forward", 0)
    generated = attrs("generation.generate")
    gen_steps = sum(actions - 1 for actions, _ in generated)
    reasons = [reason for _, reason in generated]
    gen_forward_ms = [(a, _ms(e - s)) for n, p, a, s, e in zip(
        tracer.name, tracer.phase, tracer.attr, tracer.start, tracer.end)
        if n == "model.forward" and p == "generation.generate"]
    rows = attrs("encoder.encode")
    gen_rows = attrs("encoder.encode", "generation.generate")
    saves = attrs("training.save_checkpoint")
    heads_s = sum(total.get(n, 0.0) for n in
                  ("heads.mark_logits", "heads.goal_logits", "heads.time_params"))

    def bucket(lo: int, hi: float) -> float:
        picked = [t for prefix, t in gen_forward_ms if lo <= prefix <= hi]
        return per(sum(picked), len(picked))

    return {
        "numerics.tape_records_per_seq": per(sum(attrs("numerics.backward")), train_seqs),
        "numerics.backward_ms_per_seq": ms_per("numerics.backward", train_seqs),
        "objectives.total_loss_self_ms_per_seq":
            ms_per("objectives.total_loss", train_seqs, self_total),
        "objectives.loss_terms_ms_per_seq": ms_per("objectives.loss_term", train_seqs),
        "training.adam_update_ms_per_step": ms_per("training.adam_update", steps),
        "training.loop_self_ms_per_step": ms_per("training.train", steps, self_total),
        "training.ckpt_bytes": per(sum(saves), len(saves)),
        "model.forward_calls_per_eval_seq":
            per(len(attrs("model.forward", "evaluation.full_report")), eval_seqs),
        "evaluation.next_action_ms_per_seq": ms_per("evaluation.next_action_eval", eval_seqs),
        "evaluation.goal_ms_per_seq": ms_per("evaluation.goal_eval", eval_seqs),
        "model.forward_ms_per_call": ms_per("model.forward", forwards),
        "model.forward_self_ms_per_call": ms_per("model.forward", forwards, self_total),
        "encoder.embed_ms_per_call":
            ms_per("encoder.embed_actions", calls.get("encoder.embed_actions", 0)),
        "encoder.encode_ms_per_call": ms_per("encoder.encode", len(rows)),
        "encoder.rows_per_call": per(sum(rows), len(rows)),
        "encoder.gen_rows_per_call": per(sum(gen_rows), len(gen_rows)),
        "heads.ms_per_forward": _ms(per(heads_s, forwards)),
        "model.forward_calls_per_gen_step": per(len(gen_forward_ms), gen_steps),
        "generation.forward_ms_prefix_1_16": bucket(1, 16),
        "generation.forward_ms_prefix_17_32": bucket(17, 32),
        "generation.forward_ms_prefix_33_up": bucket(33, np.inf),
        "generation.steps_per_seq": per(gen_steps, len(generated)),
        "generation.kept_step_ratio": per(gen_steps, len(gen_forward_ms)),
        "generation.stop_goal_mismatch": per(reasons.count("goal_mismatch"), len(reasons)),
        "generation.stop_eos_sampled": per(reasons.count("eos_sampled"), len(reasons)),
        "generation.stop_max_len": per(reasons.count("max_len"), len(reasons)),
        "synth.generate_ms": ms_per("synth.generate", calls.get("synth.generate", 0)),
        "data.load_corpus_ms": ms_per("data.load_corpus", calls.get("data.load_corpus", 0)),
        "training.prepare_ms": ms_per("training.prepare", calls.get("training.prepare", 0)),
    }
