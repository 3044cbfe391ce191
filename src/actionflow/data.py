"""Corpus schema and transforms for goal-labeled action sequences.

A corpus is a list of sequences, each carrying a goal label and a
time-ordered run of (mark, start time) actions. Files are UTF-8 JSON lines::

    {"id": "s1", "goal": "make_tea", "actions": [{"mark": "boil", "t": 0.4}, ...]}

with strictly increasing "t" inside every sequence. Marks and goals are
interned to dense integer ids in first-appearance order; a reserved
end-of-sequence mark (id = number of raw marks) is appended to training
sequences so the model can learn termination.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import logging
import math
import types
import typing
from dataclasses import dataclass, field

import numpy as np
from scipy.cluster.vq import kmeans2

log = logging.getLogger(__name__)

EOS_NAME = "<EOS>"


class ParseError(ValueError):
    """A corpus line is not valid JSON or does not match the record schema."""


class DataError(ValueError):
    """Structurally valid input that violates a sequence or corpus invariant."""


# ---------------------------------------------------------------------------
# settings records
# ---------------------------------------------------------------------------

# JSON types per scalar annotation; an int stays an int where a float is wanted
_SCALARS = {bool: (bool,), int: (int,), float: (int, float), str: (str,)}


def _check(tp, value, where: str):
    """Return ``value`` if it is JSON of annotation ``tp``, else raise ValueError."""
    if tp in _SCALARS:
        if isinstance(value, _SCALARS[tp]) and (tp is bool or not isinstance(value, bool)):
            return value
    elif dataclasses.is_dataclass(tp):
        return tp.from_dict(value) if hasattr(tp, "from_dict") else read_record(tp, value, where)
    elif typing.get_origin(tp) is list:
        if isinstance(value, list):
            item = typing.get_args(tp)[0]
            return [_check(item, v, f"{where}[{i}]") for i, v in enumerate(value)]
    elif typing.get_origin(tp) is types.UnionType and typing.get_args(tp)[1:] == (type(None),):
        return None if value is None else _check(typing.get_args(tp)[0], value, where)
    else:
        raise TypeError(f"{where}: no reader for annotation {tp!r}")
    raise ValueError(f"{where} must be {tp.__name__}, got {type(value).__name__}")


@functools.cache
def _schema(cls) -> dict[str, tuple]:
    """Field name -> (annotation, required), resolved once per record class."""
    hints = typing.get_type_hints(cls)
    return {f.name: (hints[f.name], f.default is f.default_factory is dataclasses.MISSING)
            for f in dataclasses.fields(cls)}


def read_record(cls, payload, what: str, *, version: int | None = None):
    """Build the dataclass ``cls`` from a JSON object; its annotations are the schema.

    A non-object payload, an unknown or missing key, or a value of the wrong
    type raises a ValueError naming the key, e.g. ``train config key
    'batch_size' must be int, got float``. With a ``version``, an optional
    "version" key must equal it. The record's own validate(), if it has one,
    then checks ranges.
    """
    if not isinstance(payload, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(payload).__name__}")
    schema = _schema(cls)
    values = {}
    for key, value in payload.items():
        if version is not None and key == "version":
            if value != version:
                raise ValueError(f"unsupported {what} version {value!r}")
        elif key not in schema:
            raise ValueError(f"unknown {what} key {key!r}")
        else:
            values[key] = _check(schema[key][0], value, f"{what} key {key!r}")
    missing = [key for key, (_, required) in schema.items() if required and key not in values]
    if missing:
        raise ValueError(f"{what} is missing key {missing[0]!r}")
    record = cls(**values)
    if hasattr(record, "validate"):
        record.validate()
    return record


@dataclass(frozen=True)
class Action:
    """One event: a categorical mark id and a start time in seconds."""

    mark: int
    t: float


@dataclass
class Ctas:
    """A goal-labeled, time-ordered action sequence."""

    id: str
    goal: int
    actions: list[Action]

    def __len__(self) -> int:
        return len(self.actions)

    def marks(self) -> np.ndarray:
        return np.array([a.mark for a in self.actions], dtype=np.intp)

    def times(self) -> np.ndarray:
        return np.array([a.t for a in self.actions], dtype=np.float64)

    def validate(self) -> None:
        if not self.actions:
            raise DataError(f"sequence {self.id!r}: empty action list")
        if self.goal < 0:
            raise DataError(f"sequence {self.id!r}: negative goal id")
        prev = None
        for i, a in enumerate(self.actions):
            if not math.isfinite(a.t):
                raise DataError(f"sequence {self.id!r}: non-finite time at index {i}")
            if i == 0 and a.t < 0.0:
                raise DataError(f"sequence {self.id!r}: negative start time")
            if prev is not None and a.t <= prev:
                raise DataError(
                    f"sequence {self.id!r}: time at index {i} not greater than predecessor")
            prev = a.t


class Vocab:
    """Bidirectional mark/goal name maps plus per-goal observed action sets.

    Ids are dense and assigned by first appearance. The end-of-sequence mark
    is reserved: it has id ``len(mark_names)``, never appears in raw files,
    and is excluded from the per-goal action sets.
    """

    def __init__(self, mark_names: list[str], goal_names: list[str],
                 goal_marks: dict[int, tuple[int, ...]] | None = None):
        if len(set(mark_names)) != len(mark_names):
            raise DataError("duplicate mark names")
        if len(set(goal_names)) != len(goal_names):
            raise DataError("duplicate goal names")
        if EOS_NAME in mark_names:
            raise DataError(f"{EOS_NAME} is reserved and cannot be a raw mark")
        self.mark_names = list(mark_names)
        self.goal_names = list(goal_names)
        self._mark_ids = {n: i for i, n in enumerate(self.mark_names)}
        self._goal_ids = {n: i for i, n in enumerate(self.goal_names)}
        self.goal_marks = goal_marks

    @property
    def eos_id(self) -> int:
        return len(self.mark_names)

    @property
    def n_marks(self) -> int:
        """Mark count including the reserved end-of-sequence mark."""
        return len(self.mark_names) + 1

    @property
    def n_goals(self) -> int:
        return len(self.goal_names)

    def mark_id(self, name: str) -> int:
        if name == EOS_NAME:
            return self.eos_id
        if name not in self._mark_ids:
            raise DataError(f"unknown mark {name!r}")
        return self._mark_ids[name]

    def goal_id(self, name: str) -> int:
        if name not in self._goal_ids:
            raise DataError(f"unknown goal {name!r}")
        return self._goal_ids[name]

    def mark_name(self, mark: int) -> str:
        if mark == self.eos_id:
            return EOS_NAME
        return self.mark_names[mark]

    def marks_for_goal(self, goal: int) -> tuple[int, ...]:
        if self.goal_marks is None:
            raise DataError("per-goal action sets not built; derive them from a training split")
        if goal not in self.goal_marks:
            raise DataError(f"goal id {goal} absent from the training split")
        return self.goal_marks[goal]

    def to_dict(self) -> dict:
        return {
            "marks": self.mark_names,
            "goals": self.goal_names,
            "goal_marks": None if self.goal_marks is None else {
                str(g): list(ms) for g, ms in sorted(self.goal_marks.items())
            },
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Vocab":
        gm = payload.get("goal_marks")
        goal_marks = None if gm is None else {int(g): tuple(ms) for g, ms in gm.items()}
        return cls(payload["marks"], payload["goals"], goal_marks)


@dataclass
class ClusterMap:
    """Assignment of marks to duration clusters.

    Clustering runs on a per-mark scalar: the mean gap from the mark's start
    to the next action's start across the training corpus. The reserved
    end-of-sequence mark inherits the cluster of the most frequent mark.
    """

    m: int
    mark_to_cluster: dict[int, int]
    mark_means: dict[int, float] = field(default_factory=dict)

    @functools.cached_property
    def _lookup(self) -> np.ndarray:
        """Cluster id by mark id; -1 where a mark has no cluster. Mark ids
        are vocabulary indices, so a negative key names no mark."""
        table = np.full(max(self.mark_to_cluster, default=0) + 1, -1, dtype=np.intp)
        for mark, cluster in self.mark_to_cluster.items():
            if mark >= 0:
                table[mark] = cluster
        return table

    def clusters_of(self, marks) -> np.ndarray:
        """The cluster of every mark id in an array, as one table lookup;
        a mark with no cluster raises DataError."""
        marks = np.asarray(marks, dtype=np.intp)
        table = self._lookup
        known = (marks >= 0) & (marks < table.size)
        ids = table[np.where(known, marks, 0)]
        missing = ~known | (ids < 0)
        if missing.any():
            raise DataError(f"mark id {int(marks[missing][0])} has no duration cluster")
        return ids

    def to_dict(self) -> dict:
        return {
            "m": self.m,
            "assignments": {str(k): v for k, v in sorted(self.mark_to_cluster.items())},
            "means": {str(k): v for k, v in sorted(self.mark_means.items())},
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ClusterMap":
        return cls(
            m=int(payload["m"]),
            mark_to_cluster={int(k): int(v) for k, v in payload["assignments"].items()},
            mark_means={int(k): float(v) for k, v in payload["means"].items()},
        )


# ---------------------------------------------------------------------------
# corpus I/O
# ---------------------------------------------------------------------------

_RECORD_KEYS = {"id", "goal", "actions"}
_ACTION_KEYS = {"mark", "t"}


def load_corpus(path) -> tuple[list[Ctas], Vocab]:
    """Read a JSONL corpus, interning names by first appearance.

    Raises ParseError for malformed lines (with the line number) and
    DataError for schema-valid records that break sequence invariants.
    """
    corpus: list[Ctas] = []
    mark_names: list[str] = []
    goal_names: list[str] = []
    mark_ids: dict[str, int] = {}
    goal_ids: dict[str, int] = {}
    seen_ids: set[str] = set()
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as e:
                raise ParseError(f"line {lineno}: invalid JSON ({e.msg})") from None
            if not isinstance(record, dict):
                raise ParseError(f"line {lineno}: record must be a JSON object")
            unknown = set(record) - _RECORD_KEYS
            if unknown:
                raise ParseError(f"line {lineno}: unknown field {sorted(unknown)[0]!r}")
            missing = _RECORD_KEYS - set(record)
            if missing:
                raise ParseError(f"line {lineno}: missing field {sorted(missing)[0]!r}")
            if not isinstance(record["id"], str) or not isinstance(record["goal"], str):
                raise ParseError(f"line {lineno}: 'id' and 'goal' must be strings")
            if not isinstance(record["actions"], list) or not record["actions"]:
                raise ParseError(f"line {lineno}: 'actions' must be a non-empty list")
            if record["id"] in seen_ids:
                raise DataError(f"duplicate sequence id {record['id']!r}")
            seen_ids.add(record["id"])
            goal_name = record["goal"]
            if goal_name not in goal_ids:
                goal_ids[goal_name] = len(goal_names)
                goal_names.append(goal_name)
            actions: list[Action] = []
            for j, entry in enumerate(record["actions"]):
                if not isinstance(entry, dict):
                    raise ParseError(f"line {lineno}: action {j} must be a JSON object")
                unknown = set(entry) - _ACTION_KEYS
                if unknown:
                    raise ParseError(
                        f"line {lineno}: action {j} has unknown field {sorted(unknown)[0]!r}")
                if _ACTION_KEYS - set(entry):
                    raise ParseError(f"line {lineno}: action {j} needs 'mark' and 't'")
                name = entry["mark"]
                if not isinstance(name, str):
                    raise ParseError(f"line {lineno}: action {j} mark must be a string")
                if name == EOS_NAME:
                    raise ParseError(
                        f"line {lineno}: reserved mark {EOS_NAME} in raw input")
                if not isinstance(entry["t"], (int, float)) or isinstance(entry["t"], bool):
                    raise ParseError(f"line {lineno}: action {j} time must be a number")
                if name not in mark_ids:
                    mark_ids[name] = len(mark_names)
                    mark_names.append(name)
                actions.append(Action(mark=mark_ids[name], t=float(entry["t"])))
            seq = Ctas(id=record["id"], goal=goal_ids[goal_name], actions=actions)
            seq.validate()
            corpus.append(seq)
    vocab = Vocab(mark_names, goal_names)
    log.info("loaded %d sequences, %d marks, %d goals from %s",
             len(corpus), len(mark_names), len(goal_names), path)
    return corpus, vocab


def write_corpus(corpus: list[Ctas], vocab: Vocab, path) -> None:
    """Write sequences back to JSONL with names resolved through the vocab."""
    with open(path, "w", encoding="utf-8") as fh:
        for seq in corpus:
            for a in seq.actions:
                if a.mark == vocab.eos_id:
                    raise DataError(
                        f"sequence {seq.id!r} contains the reserved terminal mark; "
                        "strip it before writing")
            record = {
                "id": seq.id,
                "goal": vocab.goal_names[seq.goal],
                "actions": [{"mark": vocab.mark_name(a.mark), "t": a.t} for a in seq.actions],
            }
            fh.write(json.dumps(record) + "\n")


def remap_corpus(corpus: list[Ctas], src: Vocab, dst: Vocab) -> list[Ctas]:
    """Re-intern mark and goal ids through another vocabulary by name.

    Corpus files intern names in first-appearance order, so ids from a
    freshly loaded file need not match the ids a trained model was built
    with. Names absent from dst raise DataError.
    """
    out = []
    for seq in corpus:
        goal = dst.goal_id(src.goal_names[seq.goal])
        actions = [Action(mark=dst.mark_id(src.mark_name(a.mark)), t=a.t)
                   for a in seq.actions]
        out.append(Ctas(id=seq.id, goal=goal, actions=actions))
    return out


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------

def split_by_goal(corpus: list[Ctas], train_fraction: float = 0.8,
                  seed: int = 0) -> tuple[list[Ctas], list[Ctas]]:
    """Per-goal shuffled split keeping roughly train_fraction on the train side.

    Every goal lands on both sides: the per-goal train count is
    ceil(train_fraction * n) capped at n - 1. Goals with a single sequence
    are rejected.
    """
    if not 0.0 < train_fraction < 1.0:
        raise DataError(f"train_fraction must lie in (0, 1), got {train_fraction}")
    by_goal: dict[int, list[int]] = {}
    for i, seq in enumerate(corpus):
        by_goal.setdefault(seq.goal, []).append(i)
    singletons = sorted(g for g, idxs in by_goal.items() if len(idxs) < 2)
    if singletons:
        raise DataError(f"goals with fewer than 2 sequences cannot be split: {singletons}")
    train_idx: list[int] = []
    test_idx: list[int] = []
    for g in sorted(by_goal):
        idxs = np.array(by_goal[g], dtype=np.intp)
        rng = np.random.default_rng([seed, g])
        perm = rng.permutation(idxs)
        n_train = min(math.ceil(train_fraction * len(idxs)), len(idxs) - 1)
        train_idx.extend(perm[:n_train].tolist())
        test_idx.extend(perm[n_train:].tolist())
    train_idx.sort()
    test_idx.sort()
    return [corpus[i] for i in train_idx], [corpus[i] for i in test_idx]


def append_eos(seq: Ctas, eos_gap: float, eos_id: int) -> Ctas:
    """Return a copy with one terminal action at t_last + eos_gap."""
    if eos_gap <= 0.0:
        raise DataError(f"eos_gap must be positive, got {eos_gap}")
    if not seq.actions:
        raise DataError(f"sequence {seq.id!r}: empty action list")
    if seq.actions[-1].mark == eos_id:
        raise DataError(f"sequence {seq.id!r} is already terminated")
    tail = Action(mark=eos_id, t=seq.actions[-1].t + eos_gap)
    return Ctas(id=seq.id, goal=seq.goal, actions=list(seq.actions) + [tail])


def append_eos_corpus(corpus: list[Ctas], eos_gap: float, eos_id: int) -> list[Ctas]:
    return [append_eos(seq, eos_gap, eos_id) for seq in corpus]


def median_gap(corpus: list[Ctas]) -> float:
    """Median inter-action gap across the corpus; the default terminal gap."""
    gaps: list[float] = []
    for seq in corpus:
        t = seq.times()
        gaps.extend(np.diff(t).tolist())
    if not gaps:
        raise DataError("corpus has no transitions to take a median gap from")
    return float(np.median(gaps))


def observed_marks_by_goal(corpus: list[Ctas]) -> dict[int, tuple[int, ...]]:
    """Marks observed per goal, for the action-margin candidate sets."""
    sets: dict[int, set[int]] = {}
    for seq in corpus:
        bucket = sets.setdefault(seq.goal, set())
        bucket.update(a.mark for a in seq.actions)
    return {g: tuple(sorted(ms)) for g, ms in sorted(sets.items())}


def _duration_means(corpus: list[Ctas]) -> tuple[dict[int, int], dict[int, float], list[int]]:
    """Per-mark occurrence counts and mean gap to the following action.

    A sequence's final action contributes nothing. Marks never observed with
    a follower fall back to the global mean gap and are listed third.
    """
    gaps_by_mark: dict[int, list[float]] = {}
    counts: dict[int, int] = {}
    for seq in corpus:
        t = seq.times()
        marks = seq.marks()
        for i, mk in enumerate(marks):
            mk = int(mk)
            counts[mk] = counts.get(mk, 0) + 1
            if i + 1 < len(marks):
                gaps_by_mark.setdefault(mk, []).append(float(t[i + 1] - t[i]))
    if not counts:
        raise DataError("cannot build clusters from an empty corpus")
    pooled = [g for gs in gaps_by_mark.values() for g in gs]
    if not pooled:
        raise DataError("no mark is ever followed by another action")
    global_mean = float(np.mean(pooled))
    all_marks = sorted(counts)
    means = {mk: float(np.mean(gaps_by_mark[mk])) if mk in gaps_by_mark else global_mean
             for mk in all_marks}
    return counts, means, [mk for mk in all_marks if mk not in gaps_by_mark]


def distinct_durations(corpus: list[Ctas]) -> int:
    """Number of distinct per-mark duration proxies: the most clusters
    build_clusters can fill."""
    return len(set(_duration_means(corpus)[1].values()))


def build_clusters(corpus: list[Ctas], m: int, seed: int = 0,
                   eos_id: int | None = None) -> ClusterMap:
    """Cluster marks by their mean gap to the following action.

    A mark's duration proxy is the mean of t_{i+1} - t_i over its training
    occurrences; a sequence's final action contributes nothing. Marks never
    observed with a follower fall back to the global mean. 1-D k-means with
    seeded k-means++ initialization and 100 refinement iterations produces
    the assignment. m may not exceed the number of distinct proxies, since
    marks sharing a proxy always share a cluster and extra clusters would
    stay empty.
    """
    counts, means, unfollowed = _duration_means(corpus)
    all_marks = sorted(counts)
    distinct = len(set(means.values()))
    if not 1 <= m <= distinct:
        raise DataError(
            f"cluster count {m} outside [1, {distinct}]: {len(all_marks)} marks "
            f"have {distinct} distinct mean gaps")
    for mk in unfollowed:
        log.warning("mark id %d has no observed follower; using global mean %.6g",
                    mk, means[mk])
    values = np.array([means[mk] for mk in all_marks], dtype=np.float64)[:, None]
    if m == 1:
        labels = np.zeros(len(all_marks), dtype=int)
    else:
        _, labels = kmeans2(values, m, iter=100, minit="++", seed=seed)
    assignment = {mk: int(lbl) for mk, lbl in zip(all_marks, labels)}
    if eos_id is not None:
        top = max(all_marks, key=lambda mk: (counts[mk], -mk))
        assignment[eos_id] = assignment[top]
    return ClusterMap(m=m, mark_to_cluster=assignment, mark_means=means)


def delete_random(corpus: list[Ctas], fraction: float, seed: int = 0) -> list[Ctas]:
    """Remove floor(fraction * n) actions per sequence, never the first one.

    Survivors keep their order and times. Sequences left with fewer than two
    actions are dropped with a warning.
    """
    if not 0.0 <= fraction < 1.0:
        raise DataError(f"deletion fraction must lie in [0, 1), got {fraction}")
    rng = np.random.default_rng(seed)
    out: list[Ctas] = []
    for seq in corpus:
        n = len(seq.actions)
        k = min(int(fraction * n), n - 1)
        if k == 0:
            out.append(Ctas(id=seq.id, goal=seq.goal, actions=list(seq.actions)))
            continue
        removed = set((rng.choice(n - 1, size=k, replace=False) + 1).tolist())
        kept = [a for i, a in enumerate(seq.actions) if i not in removed]
        if len(kept) < 2:
            log.warning("sequence %s reduced below 2 actions; dropped", seq.id)
            continue
        out.append(Ctas(id=seq.id, goal=seq.goal, actions=kept))
    return out
