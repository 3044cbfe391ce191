"""The floating-point guard: one np.errstate per entry point, numpy's IEEE
flags in place of a finite scan after every op, and the checks on what can
arrive already non-finite (the parameters and the times)."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from actionflow.data import Action, ClusterMap, Ctas, Vocab, append_eos
from actionflow.encoder import DecodeCache
from actionflow import model as model_module
from actionflow import objectives
from actionflow.model import Model, ModelConfig
from actionflow.numerics import (
    GradTape,
    NumericError,
    ParamStore,
    Segments,
    Tensor,
    _emit,
    exp,
    guarded,
    matmul,
    mean_all,
    segment_sum,
    softplus,
    sum_all,
)
from actionflow.objectives import total_loss
from actionflow.training import Adam, Checkpoint, TrainConfig, TrainingDiverged, train

RAISE = {"over": "raise", "invalid": "raise", "divide": "raise", "under": "ignore"}
LOSS = dict(gamma=0.9, margin_weight=0.1, l2_coeff=0.001)


def make_model(seed=0):
    vocab = Vocab(["a", "b", "c"], ["g0", "g1"], goal_marks=[(0, 1), (1, 2)])
    # every mark in cluster 0, so no forward pass reads cluster 1's embedding
    clusters = ClusterMap(m=2, assignments=[0] * vocab.n_marks)
    cfg = ModelConfig(d=8, heads=2, blocks=1, clusters=2, max_len=8)
    return Model.init(cfg, vocab, clusters, seed=seed)


def make_batch(model):
    seqs = [Ctas(id=f"s{i}", goal=i % 2,
                 actions=[Action(i % 3, 0.5), Action((i + 1) % 3, 1.25 + i)])
            for i in range(3)]
    return [append_eos(s, eos_gap=1.0, eos_id=model.vocab.eos_id) for s in seqs]


def forward(model, times):
    model.forward([0, 1], times, Segments(2))


def step(model, times):
    cache = DecodeCache(model.config, 4)
    for mark, t in zip([0, 1], times):
        model.step(cache, mark, t)


# primitive -> (how to make it overflow on a finite input, the second action's time)
OVERFLOWS = {
    "matmul": (lambda store: store["embed.w_time"].data.fill(1e300), 1e10),
    "attention": (lambda store: None, 1e160),
    "layer_norm": (lambda store: store["block0.ln1.gain"].data.fill(1e308), 1.0),
}


@pytest.mark.parametrize("entry,attention", [(forward, "causal_attention"),
                                             (step, "attend")], ids=["forward", "step"])
@pytest.mark.parametrize("case", sorted(OVERFLOWS))
def test_overflow_names_the_primitive(case, entry, attention):
    model = make_model()
    setup, t = OVERFLOWS[case]
    setup(model.store)
    name = attention if case == "attention" else case
    with pytest.raises(NumericError, match=rf"^{name}: overflow encountered in "):
        entry(model, [0.0, t])


def test_total_loss_names_l2_penalty():
    model = make_model()
    model.store["time.clusters"].data[1] = 1e200  # read by the L2 term only
    batch = make_batch(model)
    with pytest.raises(NumericError, match=r"^l2_penalty: overflow encountered in multiply"):
        total_loss(model, batch, **LOSS)


def test_total_loss_names_the_sequence_and_the_primitive():
    model = make_model()
    batch = make_batch(model)
    batch.insert(1, Ctas(id="huge", goal=0, actions=[Action(0, 1e160), Action(1, 2e160)]))
    with pytest.raises(NumericError,
                       match=r"^sequence 'huge': causal_attention: overflow encountered"):
        total_loss(model, batch, **LOSS)


def _probe(seen, fn):
    """fn, noting the errstate it runs under in seen."""
    def call(*args, **kwargs):
        seen.append(np.geterr())
        return fn(*args, **kwargs)
    return call


def _probed_backward(seen):
    store = ParamStore({"w": [2.0]})
    with GradTape() as tape:
        out = _emit("probe", store["w"].data * 3.0, (store["w"],), _probe(seen, lambda g: (g,)))
        tape.backward(sum_all(out))


def _probed_adam(seen):
    adam = Adam(make_model().store)
    adam.store.flat_grad = _probe(seen, adam.store.flat_grad)
    adam.update()


BODIES = {
    "forward": lambda seen: forward(make_model(), [0.0, 1.0]),
    "step": lambda seen: step(make_model(), [0.0, 1.0]),
    "total_loss": lambda seen: total_loss(make_model(), make_batch(make_model()), **LOSS),
    "backward": _probed_backward,
    "adam": _probed_adam,
}


@pytest.mark.parametrize("entry", sorted(BODIES))
def test_entry_point_body_runs_under_one_guard(entry, monkeypatch):
    # a lone primitive opens its own guard, so the probe sits outside any primitive
    seen = []
    monkeypatch.setattr(model_module, "log_softmax", _probe(seen, model_module.log_softmax))
    monkeypatch.setattr(objectives, "sequence_terms", _probe(seen, objectives.sequence_terms))
    BODIES[entry](seen)
    assert seen and all(state == RAISE for state in seen)


def test_exp_under_an_open_guard():
    @guarded
    def outer():
        return inner()

    @guarded
    def inner():
        assert np.geterr() == RAISE
        return exp(Tensor([800.0]))

    with pytest.raises(NumericError, match=r"^exp: overflow encountered in exp$"):
        outer()


def _backward(broken):
    """A finite loss of 4 whose gradient d loss / d w is 4e308 when broken."""
    store = ParamStore({"w": [[1e-308]]})
    x = Tensor(np.full((4, 1), 1e308 if broken else 1.0))
    with GradTape() as tape:
        tape.backward(sum_all(matmul(x, store["w"])))


def test_backward_overflow_names_backward():
    with pytest.raises(NumericError, match=r"^GradTape.backward: overflow encountered"):
        _backward(broken=True)


def test_bincount_total_overflow_is_caught():
    rows = Tensor([1e308, 1e308])
    with pytest.raises(NumericError, match=r"^segment_sum: overflow encountered in bincount$"):
        guarded(lambda: segment_sum(rows, Segments(2)))()


def test_threaded_size_product_is_scanned():
    # a NaN operand raises no flag; a product this large is scanned, as BLAS
    # may have run it off the calling thread
    a = np.ones((64, 16))
    a[-1, 0] = np.nan
    with pytest.raises(NumericError, match=r"^matmul: non-finite value in a threaded matmul$"):
        guarded(lambda: matmul(Tensor(a), Tensor(np.ones((16, 16)))))()


# the softplus gradient is the sigmoid, taken from the forward's own output
SIGMOID_AT = [-1e300, -1e3, -40.0, 0.0, 40.0, 1e3, 1e300]


def _check_sigmoid(raw, grad):
    assert np.isfinite(grad).all() and ((0.0 <= grad) & (grad <= 1.0)).all()
    for x, g in zip(raw, grad):
        if abs(x) <= 700:
            assert g == pytest.approx(1.0 / (1.0 + math.exp(-x)), rel=1e-14)


def test_softplus_gradient_at_extremes():
    store = ParamStore({"x": SIGMOID_AT})

    @guarded
    def backward():
        with GradTape() as tape:
            tape.backward(sum_all(softplus(store["x"])))

    backward()
    _check_sigmoid(SIGMOID_AT, store.grad("x"))


@pytest.mark.parametrize("raw", SIGMOID_AT)
def test_softplus_gradient_at_extremes_through_a_forward(raw):
    # with time.w_var zero, every row's raw variance is time.b_var
    model = make_model()
    model.store["time.w_var"].data[:] = 0.0
    model.store["time.b_var"].data[:] = raw
    with GradTape() as tape:
        tape.backward(mean_all(model.forward([0, 1], [0.0, 1.0], Segments(2)).sigma2))
    _check_sigmoid([raw], model.store.grad("time.b_var"))


# ---------------------------------------------------------------------------
# values that arrive already non-finite
# ---------------------------------------------------------------------------

def _param_at(store: ParamStore, index: int) -> str:
    return next(t.name for t, part in zip(store.tensors, store.slices) if index < part.stop)


STORE = make_model().store
SIZE = STORE.flat.size
B_HIDDEN = STORE.slices[STORE.names().index("goal.b_hidden")].start


@settings(max_examples=25, derandomize=True, deadline=None)
@given(index=st.integers(0, SIZE - 1), value=st.sampled_from([np.nan, np.inf, -np.inf]))
@example(index=B_HIDDEN, value=np.nan)  # a relu would hide it from the output
def test_non_finite_parameter_is_refused(index, value):
    model = make_model()
    model.store.flat[index] = value
    name = _param_at(model.store, index)
    message = rf"^parameter {name} holds a non-finite value$"
    with pytest.raises(NumericError, match=message):
        forward(model, [0.0, 1.0])
    with pytest.raises(NumericError, match=message):
        step(model, [0.0, 1.0])
    with pytest.raises(NumericError, match=message):
        total_loss(model, make_batch(model), **LOSS)


@pytest.mark.parametrize("bad", [np.inf, np.nan])
@pytest.mark.parametrize("entry", [forward, step], ids=["forward", "step"])
def test_non_finite_time_is_refused(entry, bad):
    with pytest.raises(NumericError, match="^times must be finite$"):
        entry(make_model(), [0.0, bad])


# ---------------------------------------------------------------------------
# the caller's errstate
# ---------------------------------------------------------------------------

def _model(broken):
    model = make_model()
    if broken:
        model.store.flat[0] = np.nan
    return model


def _adam_step(broken):
    model = make_model()
    for t in model.store.tensors:
        t.grad = np.full(t.data.shape, 1e200 if broken else 1.0)  # Adam squares them
    Adam(model.store).update()


ENTRIES = {
    "forward": lambda broken: forward(_model(broken), [0.0, 1.0]),
    "step": lambda broken: step(_model(broken), [0.0, 1.0]),
    "total_loss": lambda broken: total_loss(_model(broken), make_batch(make_model()), **LOSS),
    "backward": _backward,
    "adam": _adam_step,
}


@pytest.mark.parametrize("broken", [False, True], ids=["returns", "raises"])
@pytest.mark.parametrize("entry", sorted(ENTRIES))
def test_caller_errstate_is_restored(entry, broken):
    caller = {"over": "warn", "invalid": "ignore", "divide": "print", "under": "raise"}
    with np.errstate(**caller):
        if broken:
            with pytest.raises(NumericError):
                ENTRIES[entry](broken)
        else:
            ENTRIES[entry](broken)
        assert np.geterr() == caller
    # the guard is closed again: a lone primitive scans its output
    with pytest.raises(NumericError, match="^exp: non-finite output$"):
        exp(Tensor([np.nan]))


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

def _tiny_corpus(model):
    return make_batch(model) * 2


def test_adam_overflow_diverges_in_its_epoch():
    model = make_model()
    with pytest.raises(TrainingDiverged, match=r"^epoch 1: Adam.update: overflow encountered"):
        train(_tiny_corpus(model), model.vocab, model.clusters, model.config,
              TrainConfig(epochs=1, batch_size=3, l2_coeff=1e300))


def test_backward_overflow_diverges_in_its_epoch():
    # parameters scaled so that the L2 value is 1: the loss stays finite with
    # l2_coeff 9e307, and its gradient 2 * 9e307 * flat does not
    model = make_model()
    store = model.store
    store.flat /= np.sqrt(store.flat @ store.flat)
    resume = Checkpoint(model_config=model.config, vocab=model.vocab, clusters=model.clusters,
                        names=store.names(), shapes=[list(t.data.shape) for t in store.tensors],
                        params=store.flat, train_config=None, optimizer=None, epoch=2,
                        best_total=None)
    with pytest.raises(TrainingDiverged,
                       match=r"^epoch 3: GradTape.backward: overflow encountered"):
        train(_tiny_corpus(model), model.vocab, model.clusters, model.config,
              TrainConfig(epochs=3, batch_size=3, l2_coeff=9e307), resume=resume)
