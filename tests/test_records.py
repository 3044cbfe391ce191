"""The saved format of every settings and checkpoint record.

``data.write_record`` writes and ``data.read_record`` reads every record
the program saves or loads, from the dataclass declarations alone. The
golden texts pin that format byte for byte: they are what files saved in
this format hold, except that MODEL_CONFIG_TEXT keeps a model config's
"version" key last, to show that a reader takes it anywhere; it is written
first.
The property tests check that every record class reads back what is
written, for records drawn under fixed settings.
"""

import dataclasses
import json
import math
import typing

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from actionflow import data, training
from actionflow.cli import DataSection, RunConfig
from actionflow.data import EOS_NAME, ClusterMap, Vocab, read_record, write_record
from actionflow.model import VARIANTS, Model, ModelConfig, layout
from actionflow.synth import GoalTemplate, SynthSpec
from actionflow.training import (Adam, OptimizerState, TrainConfig, load_checkpoint,
                                 save_checkpoint)

VOCAB = Vocab(["boil", "pour", "grind"], ["tea", "coffee"],
              goal_marks=[(0, 1), (2, 0, 1)])
VOCAB_TEXT = ('{"marks": ["boil", "pour", "grind"], "goals": ["tea", "coffee"], '
              '"goal_marks": [[0, 1], [2, 0, 1]]}')

CLUSTERS = ClusterMap(m=2, assignments=[0, 0, 1, 1, 0])
CLUSTERS_TEXT = '{"m": 2, "assignments": [0, 0, 1, 1, 0]}'

MODEL_CONFIG = ModelConfig(d=4, heads=2, blocks=1, clusters=2, variant="plus", alpha_mark=1)
# as files already saved hold it, with "version" last
MODEL_CONFIG_TEXT = ('{"d": 4, "heads": 2, "blocks": 1, "clusters": 2, "max_len": null, '
                     '"variant": "plus", "alpha_mark": 1, "alpha_time": 0.1, '
                     '"alpha_goal": 0.1, "version": 2}')

SYNTH_SPEC = SynthSpec(
    goals=[GoalTemplate(name="brew", template=["grind", "pour"], mu=[0, 0.5],
                        sigma=[0.25, 0.25], swap_pairs=[(0, 1)]),
           GoalTemplate(name="bake", template=["mix"], mu=[1.5], sigma=[1])],
    count=3, seed=7, swap_prob=0.125)
SYNTH_SPEC_TEXT = (
    '{"version": 1, "count": 3, "seed": 7, "swap_prob": 0.125, "goals": [{"name": "brew", '
    '"template": ["grind", "pour"], "mu": [0, 0.5], "sigma": [0.25, 0.25], '
    '"swap_pairs": [[0, 1]]}, {"name": "bake", "template": ["mix"], "mu": [1.5], '
    '"sigma": [1], "swap_pairs": []}]}')

# tiny_checkpoint's file
CHECKPOINT = (
    '{"version": 7, "model_config": {"version": 2, "d": 2, "heads": 1, "blocks": 1, '
    '"clusters": 1, "max_len": 2, "variant": "base", "alpha_mark": 0.1, "alpha_time": 0.1, '
    '"alpha_goal": 0.1}, "vocab": {"marks": ["a"], '
    '"goals": ["g"], "goal_marks": [[0]]}, "clusters": {"m": 1, '
    '"assignments": [0, 0]}, "names": ["block0.attn.wk", '
    '"block0.attn.wo", "block0.attn.wq", "block0.attn.wv", "block0.ffn.b_in", '
    '"block0.ffn.b_out", "block0.ffn.w_in", "block0.ffn.w_out", "block0.ln1.bias", '
    '"block0.ln1.gain", "block0.ln2.bias", "block0.ln2.gain", "embed.bias", "embed.marks", '
    '"embed.w_gap", "embed.w_time", "goal.b_hidden", "goal.b_out", "goal.w_hidden", '
    '"goal.w_out", "mark.bias", "mark.w", "pos.table", "time.b_mu", "time.b_var", '
    '"time.clusters", "time.w_mu", "time.w_var"], "shapes": [[2, 2], [2, 2], [2, 2], [2, '
    '2], [2], [2], [2], [2], [2], [2], [2], [2], [2], [2, 2], [1, 2], [1, 2], [2], [1], '
    '[2, 2], [2, 1], [2], [2, 2], [3, 2], [1], [1], [1, 2], [2, 1], [2, 1]], '
    '"params": "AAAAAAAAAMAAAAAAAAD/vwAAAAAAAP6/AAAAAAAA/b8AAAAAAAD8vwAAAAAAAPu/AAAAAAAA+r8'
    'AAAAAAAD5vwAAAAAAAPi/AAAAAAAA978AAAAAAAD2vwAAAAAAAPW/AAAAAAAA9L8AAAAAAADzvwAAAAAAAPK/A'
    'AAAAAAA8b8AAAAAAADwvwAAAAAAAO6/AAAAAAAA7L8AAAAAAADqvwAAAAAAAOi/AAAAAAAA5r8AAAAAAADkvwA'
    'AAAAAAOK/AAAAAAAA4L8AAAAAAADcvwAAAAAAANi/AAAAAAAA1L8AAAAAAADQvwAAAAAAAMi/AAAAAAAAwL8AA'
    'AAAAACwvwAAAAAAAAAAAAAAAAAAsD8AAAAAAADAPwAAAAAAAMg/AAAAAAAA0D8AAAAAAADUPwAAAAAAANg/AAA'
    'AAAAA3D8AAAAAAADgPwAAAAAAAOI/AAAAAAAA5D8AAAAAAADmPwAAAAAAAOg/AAAAAAAA6j8AAAAAAADsPwAAA'
    'AAAAO4/AAAAAAAA8D8AAAAAAADxPwAAAAAAAPI/AAAAAAAA8z8AAAAAAAD0PwAAAAAAAPU/AAAAAAAA9j8AAAA'
    'AAAD3PwAAAAAAAPg/AAAAAAAA+T8AAAAAAAD6PwAAAAAAAPs/AAAAAAAA/D8AAAAAAAD9PwAAAAAAAP4/AAAAA'
    'AAA/z8AAAAAAAAAQAAAAAAAgABAAAAAAAAAAUAAAAAAAIABQAAAAAAAAAJAAAAAAACAAkAAAAAAAAADQA==", '
    '"train_config": {"lr": 0.01, "beta1": 0.9, "beta2": 0.999, "eps": 1e-08, "epochs": 2, '
    '"batch_size": 32, "seed": 0, "margin_weight": 0.1, "l2_coeff": 0.001, "gamma": 0.9}, '
    '"optimizer": {"step": 3, '
    '"m": "AAAAAAAA4L8AAAAAAADfvwAAAAAAAN6/AAAAAAAA3b8AAAAAAADcvwAAAAAAANu/AAAAAAAA2r8AAAAA'
    'AADZvwAAAAAAANi/AAAAAAAA178AAAAAAADWvwAAAAAAANW/AAAAAAAA1L8AAAAAAADTvwAAAAAAANK/AAAAAA'
    'AA0b8AAAAAAADQvwAAAAAAAM6/AAAAAAAAzL8AAAAAAADKvwAAAAAAAMi/AAAAAAAAxr8AAAAAAADEvwAAAAAA'
    'AMK/AAAAAAAAwL8AAAAAAAC8vwAAAAAAALi/AAAAAAAAtL8AAAAAAACwvwAAAAAAAKi/AAAAAAAAoL8AAAAAAA'
    'CQvwAAAAAAAAAAAAAAAAAAkD8AAAAAAACgPwAAAAAAAKg/AAAAAAAAsD8AAAAAAAC0PwAAAAAAALg/AAAAAAAA'
    'vD8AAAAAAADAPwAAAAAAAMI/AAAAAAAAxD8AAAAAAADGPwAAAAAAAMg/AAAAAAAAyj8AAAAAAADMPwAAAAAAAM'
    '4/AAAAAAAA0D8AAAAAAADRPwAAAAAAANI/AAAAAAAA0z8AAAAAAADUPwAAAAAAANU/AAAAAAAA1j8AAAAAAADX'
    'PwAAAAAAANg/AAAAAAAA2T8AAAAAAADaPwAAAAAAANs/AAAAAAAA3D8AAAAAAADdPwAAAAAAAN4/AAAAAAAA3z'
    '8AAAAAAADgPwAAAAAAgOA/AAAAAAAA4T8AAAAAAIDhPwAAAAAAAOI/AAAAAACA4j8AAAAAAADjPw==", '
    '"v": "AAAAAAAAEEAAAAAAAAgOQAAAAAAAIAxAAAAAAABICkAAAAAAAIAIQAAAAAAAyAZAAAAAAAAgBUAAAAAA'
    'AIgDQAAAAAAAAAJAAAAAAACIAEAAAAAAAED+PwAAAAAAkPs/AAAAAAAA+T8AAAAAAJD2PwAAAAAAQPQ/AAAAAA'
    'AQ8j8AAAAAAADwPwAAAAAAIOw/AAAAAACA6D8AAAAAACDlPwAAAAAAAOI/AAAAAABA3j8AAAAAAADZPwAAAAAA'
    'QNQ/AAAAAAAA0D8AAAAAAIDIPwAAAAAAAMI/AAAAAAAAuT8AAAAAAACwPwAAAAAAAKI/AAAAAAAAkD8AAAAAAA'
    'BwPwAAAAAAAAAAAAAAAAAAcD8AAAAAAACQPwAAAAAAAKI/AAAAAAAAsD8AAAAAAAC5PwAAAAAAAMI/AAAAAACA'
    'yD8AAAAAAADQPwAAAAAAQNQ/AAAAAAAA2T8AAAAAAEDePwAAAAAAAOI/AAAAAAAg5T8AAAAAAIDoPwAAAAAAIO'
    'w/AAAAAAAA8D8AAAAAABDyPwAAAAAAQPQ/AAAAAACQ9j8AAAAAAAD5PwAAAAAAkPs/AAAAAABA/j8AAAAAAIgA'
    'QAAAAAAAAAJAAAAAAACIA0AAAAAAACAFQAAAAAAAyAZAAAAAAACACEAAAAAAAEgKQAAAAAAAIAxAAAAAAAAIDk'
    'AAAAAAAAAQQAAAAAAABBFAAAAAAAAQEkAAAAAAACQTQAAAAAAAQBRAAAAAAABkFUAAAAAAAJAWQA=="}, '
    '"epoch": 1, "best_total": 2.5}'
)


def tiny_checkpoint(path, with_state: bool = True) -> Model:
    """Save a one-mark, one-goal model whose parameters and Adam moments are
    exact binary fractions; returns the model."""
    vocab = Vocab(["a"], ["g"], goal_marks=[(0,)])
    clusters = ClusterMap(m=1, assignments=[0, 0])
    config = ModelConfig(d=2, heads=1, blocks=1, clusters=1, max_len=2)
    model = Model.init(config, vocab, clusters)
    model.store.flat[:] = np.arange(model.store.flat.size) / 16 - 2
    if not with_state:
        save_checkpoint(path, model)
        return model
    train_cfg = TrainConfig(epochs=2, lr=0.01)
    opt = Adam.from_config(model.store, train_cfg)
    opt.step, opt.m, opt.v = 3, model.store.flat / 4, model.store.flat ** 2
    save_checkpoint(path, model, train_cfg, opt, epoch=1, best_total=2.5)
    return model


def version_last(payload: dict) -> dict:
    """The same object with its "version" key moved to the end."""
    rest = dict(payload)
    version = rest.pop("version")
    return {**rest, "version": version}


class TestGoldenFormat:
    @pytest.mark.parametrize("record,text", [
        (VOCAB, VOCAB_TEXT), (CLUSTERS, CLUSTERS_TEXT), (SYNTH_SPEC, SYNTH_SPEC_TEXT),
    ], ids=["vocab", "clusters", "synth_spec"])
    def test_written_byte_for_byte(self, record, text):
        assert json.dumps(write_record(record)) == text
        assert write_record(read_record(type(record), json.loads(text), "record")) \
            == json.loads(text)

    def test_model_config_writes_its_version_first(self):
        payload = write_record(MODEL_CONFIG)
        assert list(payload)[0] == "version"
        assert json.dumps(version_last(payload)) == MODEL_CONFIG_TEXT
        assert read_record(ModelConfig, json.loads(MODEL_CONFIG_TEXT), "model config") \
            == MODEL_CONFIG

    def test_checkpoint(self, tmp_path):
        tiny_checkpoint(tmp_path / "ckpt.json")
        assert (tmp_path / "ckpt.json").read_text() == CHECKPOINT

    def test_checkpoint_without_training_state(self, tmp_path):
        tiny_checkpoint(tmp_path / "ckpt.json", with_state=False)
        assert json.loads((tmp_path / "ckpt.json").read_text()) == {
            **json.loads(CHECKPOINT), "train_config": None, "optimizer": None, "epoch": 0,
            "best_total": None}

    def test_golden_checkpoint_loads_and_saves_back(self, tmp_path):
        (tmp_path / "golden.json").write_text(CHECKPOINT)
        ckpt = load_checkpoint(tmp_path / "golden.json")
        flat = ckpt.model.store.flat
        assert flat.tobytes() == (np.arange(flat.size) / 16 - 2).tobytes()
        assert (ckpt.optimizer.step, ckpt.epoch, ckpt.best_total) == (3, 1, 2.5)
        save_checkpoint(tmp_path / "again.json", ckpt.model, ckpt.train_config,
                        ckpt.optimizer, ckpt.epoch, ckpt.best_total)
        tiny_checkpoint(tmp_path / "fresh.json")
        assert (tmp_path / "again.json").read_bytes() == (tmp_path / "fresh.json").read_bytes()


# ---------------------------------------------------------------------------
# every record class reads back what write_record writes
# ---------------------------------------------------------------------------

FINITE = st.floats(allow_nan=False, allow_infinity=False)
# a float field takes an int, and keeps it
NUMBER = FINITE | st.integers(-2**64, 2**64)
NON_NEGATIVE = st.floats(0, allow_infinity=False) | st.integers(0, 2**64)
POSITIVE = st.floats(0, exclude_min=True, allow_infinity=False) | st.integers(1, 2**64)
UNIT = st.floats(0, 1) | st.integers(0, 1)
NAME = st.text(st.characters(codec="utf-8"), max_size=5)
COUNT = st.integers(1, 2**64)
SEED = st.integers(0, 2**64)

TRAIN_CONFIGS = st.builds(
    TrainConfig, lr=NON_NEGATIVE, beta1=st.floats(0, 1, exclude_max=True),
    beta2=st.floats(0, 1, exclude_max=True) | st.just(0), eps=POSITIVE, epochs=COUNT,
    batch_size=COUNT, seed=SEED, margin_weight=NON_NEGATIVE, l2_coeff=NON_NEGATIVE,
    gamma=UNIT)

DATA_SECTIONS = st.builds(DataSection, corpus=st.none() | NAME,
                          train_fraction=st.floats(0, 1, exclude_min=True, exclude_max=True))


@st.composite
def model_configs(draw):
    heads = draw(st.integers(1, 8))
    return ModelConfig(
        d=heads * draw(st.integers(1, 8)), heads=heads, blocks=draw(COUNT),
        clusters=draw(COUNT), max_len=draw(st.none() | st.integers(2, 2**64)),
        variant=draw(st.sampled_from(VARIANTS)), alpha_mark=draw(NUMBER),
        alpha_time=draw(NUMBER), alpha_goal=draw(NUMBER))


@st.composite
def goal_templates(draw):
    n = draw(st.integers(1, 4))
    pair = st.permutations(range(n)).map(lambda p: p[:2])
    return GoalTemplate(
        name=draw(NAME), template=draw(st.lists(NAME, min_size=n, max_size=n)),
        mu=draw(st.lists(NUMBER, min_size=n, max_size=n)),
        sigma=draw(st.lists(POSITIVE, min_size=n, max_size=n)),
        swap_pairs=draw(st.lists(pair, max_size=3 if n > 1 else 0)))


SYNTH_SPECS = st.builds(
    SynthSpec, goals=st.lists(goal_templates(), min_size=1, max_size=3,
                              unique_by=lambda g: g.name),
    count=COUNT, seed=SEED, swap_prob=UNIT)


@st.composite
def vocabs(draw):
    marks = draw(st.lists(NAME.filter(lambda n: n != EOS_NAME), max_size=4, unique=True))
    goals = draw(st.lists(NAME, max_size=3, unique=True))
    mark_sets = st.lists(st.integers(0, len(marks) - 1) if marks else st.nothing(),
                         max_size=4 if marks else 0).map(tuple)
    goal_marks = st.lists(mark_sets, min_size=len(goals), max_size=len(goals))
    return Vocab(marks, goals, goal_marks=draw(st.none() | goal_marks))


@st.composite
def cluster_maps(draw, sizes=st.integers(0, 6)):
    m = draw(st.integers(1, 16))
    size = draw(sizes)
    return ClusterMap(m=m, assignments=draw(st.lists(st.integers(0, m - 1),
                                                     min_size=size, max_size=size)))


def vectors(size, elements=FINITE):
    return arrays(np.float64, size, elements=elements)


def optimizer_states(size):
    return st.builds(OptimizerState, step=SEED, m=vectors(size),
                     v=vectors(size, st.floats(0, allow_infinity=False)))


@st.composite
def checkpoints(draw):
    """A checkpoint whose names and shapes are those of a small drawn model."""
    vocab = draw(vocabs())
    clusters = draw(cluster_maps(sizes=st.just(vocab.n_marks)))
    heads = draw(st.integers(1, 2))
    config = ModelConfig(
        d=heads * draw(st.integers(1, 2)), heads=heads, blocks=draw(st.integers(1, 2)),
        clusters=clusters.m, max_len=draw(st.integers(2, 4)),
        variant=draw(st.sampled_from(VARIANTS)), alpha_mark=draw(NUMBER),
        alpha_time=draw(NUMBER), alpha_goal=draw(NUMBER))
    names, shapes = layout(config, vocab, clusters)
    size = sum(map(math.prod, shapes))
    return training.Checkpoint(
        model_config=config, vocab=vocab, clusters=clusters, names=names,
        shapes=shapes, params=draw(vectors(size)),
        train_config=draw(st.none() | TRAIN_CONFIGS),
        optimizer=draw(st.none() | optimizer_states(size)),
        epoch=draw(SEED), best_total=draw(st.none() | NUMBER))


RECORDS = {
    RunConfig: st.builds(RunConfig, model=model_configs(), train=TRAIN_CONFIGS,
                         data=DATA_SECTIONS),
    ModelConfig: model_configs(),
    TrainConfig: TRAIN_CONFIGS,
    DataSection: DATA_SECTIONS,
    SynthSpec: SYNTH_SPECS,
    GoalTemplate: goal_templates(),
    Vocab: vocabs(),
    ClusterMap: cluster_maps(),
    OptimizerState: st.integers(0, 5).flatmap(optimizer_states),
    training.Checkpoint: checkpoints(),
}


def same(a, b) -> bool:
    """``a == b`` with equal types all the way down, arrays compared bit for bit."""
    if type(a) is not type(b):
        return False
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and a.tobytes() == b.tobytes()
    if dataclasses.is_dataclass(a):
        return all(same(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a))
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(map(same, a, b))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    return a == b


def read_classes(cls) -> set:
    """cls and every record class nested in its fields."""
    found = {cls}
    stack = [tp for _, tp, _ in data._schema(cls).values()]
    while stack:
        tp = stack.pop()
        stack += typing.get_args(tp)
        if dataclasses.is_dataclass(tp) and tp not in found:
            found |= read_classes(tp)
    return found


def test_every_read_record_class_has_a_strategy():
    # the classes the program hands to read_record, with those nested in them
    roots = (RunConfig, ModelConfig, TrainConfig, SynthSpec, training.Checkpoint)
    assert set().union(*map(read_classes, roots)) == set(RECORDS)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
@settings(derandomize=True, max_examples=40, deadline=None)
@given(data=st.data())
def test_write_then_read_is_the_identity(cls, data):
    record = data.draw(RECORDS[cls])
    back = read_record(cls, json.loads(json.dumps(write_record(record))), "record")
    assert same(back, record)
