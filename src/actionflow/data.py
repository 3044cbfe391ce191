"""Corpus schema and transforms for goal-labeled action sequences.

A corpus is a list of sequences, each carrying a goal label and a
time-ordered run of (mark, start time) actions. Files are UTF-8 JSON lines::

    {"id": "s1", "goal": "make_tea", "actions": [{"mark": "boil", "t": 0.4}, ...]}

with strictly increasing "t" inside every sequence. Marks and goals are
interned to dense integer ids in first-appearance order; a reserved
end-of-sequence mark (id = number of raw marks) is appended to training
sequences so the model can learn termination.

Every settings and checkpoint object is a dataclass record whose declaration
is its only schema: ``read_record`` reads all of them and ``write_record``
writes all of them. A table indexed by mark or goal id (the per-goal action
sets, the duration clusters) is a list with one entry per id. Corpus JSONL
keeps its own hand-written loader, which reads a corpus in about half the
time the generic reader would take.

Duration clusters group the marks by their mean gap to the next action in
the training corpus. ``build_clusters`` finds the split with the least
within-cluster squared error exactly, by dynamic programming over the sorted
distinct gaps: it draws nothing, so it needs no seed, and it numbers the
clusters by ascending mean gap.
"""

from __future__ import annotations

import base64
import dataclasses
import functools
import json
import logging
import math
import sys
import types
import typing
from dataclasses import dataclass, field

import numpy as np

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


def encode_vector(vector: np.ndarray) -> str:
    """A float64 vector as JSON: the base64 of its little-endian bytes,
    which ``decode_vector`` reads back bit for bit."""
    return base64.b64encode(vector.astype("<f8", copy=False).tobytes()).decode("ascii")


def decode_vector(value, where: str = "vector") -> np.ndarray:
    """The writable, finite float64 vector ``encode_vector`` saved as ``value``;
    anything else raises a ValueError that names ``where``."""
    if not isinstance(value, str):
        raise ValueError(f"{where} must be a base64 string, got {type(value).__name__}")
    try:
        raw = base64.b64decode(value, validate=True)
    except ValueError as e:  # binascii.Error, or a non-ASCII character
        raise ValueError(f"{where} is not valid base64: {e}") from None
    if len(raw) % 8:
        raise ValueError(f"{where} holds {len(raw)} bytes, not a whole number of float64 values")
    vector = np.frombuffer(raw, "<f8").astype(np.float64)
    if not np.isfinite(vector).all():
        raise ValueError(f"{where} holds a non-finite value")
    return vector


def _check(tp, value, where: str):
    """Return ``value`` if it is JSON of annotation ``tp``, else raise ValueError.

    Containers are checked element by element; a float vector is one base64
    string, decoded in one call.
    """
    if tp in _SCALARS:
        if isinstance(value, _SCALARS[tp]) and (tp is bool or not isinstance(value, bool)):
            if tp is float and isinstance(value, int) and abs(value) > sys.float_info.max:
                raise ValueError(f"{where} is an integer too large for a float")
            return value
        raise ValueError(f"{where} must be {tp.__name__}, got {type(value).__name__}")
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if tp is np.ndarray:
        return decode_vector(value, where)
    elif dataclasses.is_dataclass(tp):
        return read_record(tp, value, where)
    elif origin in (list, tuple):
        if isinstance(value, list):
            return origin(_check(args[0], v, f"{where}[{i}]") for i, v in enumerate(value))
    elif origin is types.UnionType and args[1:] == (type(None),):
        return None if value is None else _check(args[0], value, where)
    else:
        raise TypeError(f"{where}: no reader for annotation {tp!r}")
    raise ValueError(f"{where} must be {tp.__name__}, got {type(value).__name__}")


@functools.cache
def _schema(cls) -> dict[str, tuple]:
    """JSON key -> (field name, annotation, required), resolved once per
    record class. A field is saved under its name unless its metadata names
    another ``key``."""
    hints = typing.get_type_hints(cls)
    return {f.metadata.get("key", f.name):
            (f.name, hints[f.name], f.default is f.default_factory is dataclasses.MISSING)
            for f in dataclasses.fields(cls)}


def read_record(cls, payload, what: str, *, require_version: bool = False):
    """Build the dataclass ``cls`` from a JSON object; its annotations are the schema.

    This is the one reader of settings and checkpoint JSON. A non-object
    payload, an unknown or missing key, or a value of the wrong type raises a
    ValueError naming the key, e.g. ``train config key 'batch_size' must be
    int, got float``; a float field keeps an int unless no float64 holds it.
    Besides scalars, lists, tuples, ``X | None`` and nested records, a field
    may be an ``np.ndarray`` (a string from ``encode_vector``: the base64 of
    little-endian float64 bytes, refused unless it decodes to a whole number
    of finite values). If ``cls`` has a ``VERSION``, the "version" key is
    checked before any other: it must be that int, and may be left out
    unless ``require_version`` is set. The record's own validate(), if it
    has one, then checks ranges.
    """
    if not isinstance(payload, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(payload).__name__}")
    version = getattr(cls, "VERSION", None)
    if version is not None:
        if "version" in payload:
            if _check(int, payload["version"], f"{what} key 'version'") != version:
                raise ValueError(f"unsupported {what} version {payload['version']!r}")
        elif require_version:
            raise ValueError(f"{what} is missing key 'version'")
    schema = _schema(cls)
    values = {}
    for key, value in payload.items():
        if key in schema:
            name, tp, _ = schema[key]
            values[name] = _check(tp, value, f"{what} key {key!r}")
        elif key != "version" or version is None:
            raise ValueError(f"unknown {what} key {key!r}")
    missing = [key for key, (name, _, required) in schema.items()
               if required and name not in values]
    if missing:
        raise ValueError(f"{what} is missing key {missing[0]!r}")
    record = cls(**values)
    if hasattr(record, "validate"):
        record.validate()
    return record


@functools.cache
def _writer(tp):
    """The function that turns a value of annotation ``tp`` into the JSON
    that ``_check`` reads back, or None where the value is written as it is;
    built once per annotation, so a save makes no type tests per value."""
    if tp in _SCALARS:
        return None
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if tp is np.ndarray:
        return encode_vector
    elif dataclasses.is_dataclass(tp):
        return write_record
    elif origin in (list, tuple):
        item = _writer(args[0])
        return list if item is None else lambda value: [item(v) for v in value]
    elif origin is types.UnionType:
        item = _writer(args[0])
        return item and (lambda value: None if value is None else item(value))
    raise TypeError(f"no writer for annotation {tp!r}")


def write_record(record) -> dict:
    """The JSON object that ``read_record`` reads back as ``record``: a
    "version" first if the class has a ``VERSION``, then each field under its
    saved key, tuples as lists and float vectors through ``encode_vector``."""
    cls = type(record)
    out = {} if getattr(cls, "VERSION", None) is None else {"version": cls.VERSION}
    for key, (name, tp, _) in _schema(cls).items():
        value, write = getattr(record, name), _writer(tp)
        out[key] = value if write is None else write(value)
    return out


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


@dataclass
class Vocab:
    """Bidirectional mark/goal name maps plus per-goal observed action sets.

    Ids are dense and assigned by first appearance. The end-of-sequence mark
    is reserved: it has id ``len(mark_names)``, never appears in raw files,
    and is excluded from the per-goal action sets. ``goal_marks``, once
    built, holds one set per goal id. Saved, the names are listed under
    "marks" and "goals".
    """

    mark_names: list[str] = field(metadata={"key": "marks"})
    goal_names: list[str] = field(metadata={"key": "goals"})
    goal_marks: list[tuple[int, ...]] | None = None

    def __post_init__(self):
        if len(set(self.mark_names)) != len(self.mark_names):
            raise DataError("duplicate mark names")
        if len(set(self.goal_names)) != len(self.goal_names):
            raise DataError("duplicate goal names")
        if EOS_NAME in self.mark_names:
            raise DataError(f"{EOS_NAME} is reserved and cannot be a raw mark")
        self.mark_names = list(self.mark_names)
        self.goal_names = list(self.goal_names)
        self._mark_ids = {n: i for i, n in enumerate(self.mark_names)}
        self._goal_ids = {n: i for i, n in enumerate(self.goal_names)}

    def validate(self) -> None:
        """goal_marks, if built, holds one set of raw marks per goal."""
        if self.goal_marks is None:
            return
        if len(self.goal_marks) != self.n_goals:
            raise DataError(f"goal_marks needs one entry per goal ({self.n_goals}), "
                            f"got {len(self.goal_marks)}")
        for goal, marks in enumerate(self.goal_marks):
            if not all(0 <= mk < self.eos_id for mk in marks):
                raise DataError(f"goal_marks entry {goal}: {list(marks)} lies outside "
                                f"{self.eos_id} raw marks")

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
        return self.goal_marks[goal]


@dataclass
class ClusterMap:
    """Assignment of marks to duration clusters.

    Clustering runs on a per-mark scalar: the mean gap from the mark's start
    to the next action's start across the training corpus; build_clusters
    numbers the clusters by ascending mean gap. ``assignments`` holds
    the cluster of every mark id, the reserved end-of-sequence mark last; it
    inherits the cluster of the most frequent mark. The mean gaps are not
    kept.
    """

    m: int
    assignments: list[int]

    def validate(self) -> None:
        """Every assigned cluster id lies in [0, m)."""
        for mark, cluster in enumerate(self.assignments):
            if not 0 <= cluster < self.m:
                raise DataError(f"mark id {mark} is assigned cluster {cluster}, "
                                f"outside [0, {self.m})")

    @functools.cached_property
    def _lookup(self) -> np.ndarray:
        """``assignments`` as an array, built on the first lookup."""
        return np.array(self.assignments, dtype=np.intp)

    def clusters_of(self, marks) -> np.ndarray:
        """The cluster of every mark id in an array, as one table lookup;
        a mark id outside the table raises DataError."""
        marks = np.asarray(marks, dtype=np.intp)
        table = self._lookup
        outside = (marks < 0) | (marks >= table.size)
        if outside.any():
            raise DataError(f"mark id {int(marks[outside][0])} has no duration cluster")
        return table[marks]


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
                try:
                    actions.append(Action(mark=mark_ids[name], t=float(entry["t"])))
                except OverflowError:  # an integer beyond any float64
                    raise DataError(f"sequence {record['id']!r}: time at index {j} is "
                                    "too large for a float") from None
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


def _transitions(corpus: list[Ctas]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The mark of every action in corpus order, a mask of the actions that
    have a successor in their own sequence, and the gap to that successor
    of each action the mask keeps."""
    marks = np.array([a.mark for seq in corpus for a in seq.actions], dtype=np.intp)
    times = np.array([a.t for seq in corpus for a in seq.actions], dtype=np.float64)
    followed = np.ones(marks.size, dtype=bool)
    followed[np.cumsum([len(seq.actions) for seq in corpus], dtype=np.intp) - 1] = False
    return marks, followed, np.diff(times)[followed[:-1]]


def median_gap(corpus: list[Ctas]) -> float:
    """Median inter-action gap across the corpus; the default terminal gap."""
    gaps = _transitions(corpus)[2]
    if not gaps.size:
        raise DataError("corpus has no transitions to take a median gap from")
    return float(np.median(gaps))


def observed_marks_by_goal(corpus: list[Ctas], n_goals: int) -> list[tuple[int, ...]]:
    """Marks observed per goal id in [0, n_goals), for the action-margin
    candidate sets; a goal absent from the corpus gets an empty set."""
    sets: list[set[int]] = [set() for _ in range(n_goals)]
    for seq in corpus:
        sets[seq.goal].update(a.mark for a in seq.actions)
    return [tuple(sorted(ms)) for ms in sets]


class DurationMeans(typing.NamedTuple):
    """Per raw mark id: occurrence count and mean gap to the following
    action, plus the ids that fell back to the global mean gap."""

    counts: list[int]
    means: list[float]
    unfollowed: list[int]

    @property
    def distinct(self) -> int:
        """Number of distinct mean gaps: the most clusters build_clusters can fill."""
        return len(set(self.means))


def duration_means(corpus: list[Ctas], n_raw: int) -> DurationMeans:
    """Occurrence count and mean gap to the following action of every raw
    mark id in [0, n_raw).

    A sequence's final action contributes nothing. Marks never observed with
    a follower, including those absent from the corpus, fall back to the
    global mean gap and are listed third.
    """
    marks, followed, gaps = _transitions(corpus)
    if not marks.size:
        raise DataError("cannot build clusters from an empty corpus")
    if not gaps.size:
        raise DataError("no mark is ever followed by another action")
    leaders = marks[followed]
    follows = np.bincount(leaders, minlength=n_raw)
    unfollowed = follows == 0
    sums = np.bincount(leaders, weights=gaps, minlength=n_raw)
    means = np.where(unfollowed, gaps.mean(), sums / np.maximum(follows, 1))
    return DurationMeans(np.bincount(marks, minlength=n_raw).tolist(), means.tolist(),
                         np.flatnonzero(unfollowed).tolist())


def _optimal_runs(values: np.ndarray, weights: np.ndarray, m: int) -> np.ndarray:
    """Exact weighted 1-D k-means of sorted distinct values (Wang & Song
    2011, Ckmeans.1d.dp): the cluster of each value, numbered left to right.

    A least-error split of sorted values into m clusters cuts them into m
    runs, so a dynamic programme over where each run ends finds it in
    O(m n^2). The sums of each run are taken relative to its first value:
    then the error of a tight run of gaps near 1e6 keeps its spread even
    when the other gaps are near 1. The values are first scaled by a power
    of two, which is exact, so that the largest is below 1 and the squares
    of gaps near 1e300 stay finite.
    """
    n = values.size
    values = np.ldexp(values, -np.frexp(values[-1])[1])
    shift = np.triu(values - values[:, None])  # [j, i]: values[i] - values[j], i >= j
    total = np.cumsum(weights * shift, axis=1)
    square = np.cumsum(weights * shift * shift, axis=1)
    ends = np.cumsum(weights)
    count = np.maximum(ends - (ends - weights)[:, None], 1.0)
    error = square - total * total / count  # [j, i]: error of the run j..i
    error[np.tril_indices(n, -1)] = np.inf
    best, starts = error[0], []
    for _ in range(1, m):
        # values 0..j-1 in the clusters so far, then j..i as one more
        joined = best[:-1, None] + error[1:]
        starts.append(joined.argmin(axis=0) + 1)
        best = joined.min(axis=0)
    labels = np.zeros(n, dtype=np.intp)
    end = n
    for cluster in range(m - 1, 0, -1):
        start = starts[cluster - 1][end - 1]
        labels[start:end] = cluster
        end = start
    return labels


def build_clusters(durations: DurationMeans, m: int) -> ClusterMap:
    """Cluster the raw marks by their mean gap to the following action.

    durations holds every raw mark id [0, eos_id) (duration_means of the
    training corpus, with n_raw = eos_id): a mark's duration proxy is the
    mean of t_{i+1} - t_i over its training occurrences, and marks never
    observed with a follower, or never observed at all, fall back to the
    global mean. The assignment is the exact 1-D k-means optimum over the
    distinct proxies, each weighted by the number of marks that share it:
    no seed, no iterations, and clusters are numbered by ascending mean
    gap. Marks sharing a proxy share a cluster, so m may not exceed the
    number of distinct proxies; up to that, every cluster is non-empty. The
    terminal mark eos_id takes the cluster of the most frequent mark.
    """
    counts, means, unfollowed = durations
    eos_id, distinct = len(means), durations.distinct
    if not 1 <= m <= distinct:
        raise DataError(
            f"cluster count {m} outside [1, {distinct}]: {eos_id} marks "
            f"have {distinct} distinct mean gaps")
    for mk in unfollowed:
        log.info("mark id %d has no observed follower; using global mean %.6g",
                 mk, means[mk])
    values, which, shared = np.unique(means, return_inverse=True, return_counts=True)
    labels = _optimal_runs(values, shared, m)[which].tolist()
    top = max(range(eos_id), key=lambda mk: (counts[mk], -mk))
    return ClusterMap(m=m, assignments=labels + [labels[top]])


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
