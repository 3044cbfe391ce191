"""Tests for the Adam optimizer, training loop, and checkpoint round trips."""

import hashlib
import json
import math
import os
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from actionflow.data import (Action, ClusterMap, Ctas, Vocab, append_eos, decode_vector,
                             encode_vector, observed_marks_by_goal, write_record)
from actionflow.model import Model, ModelConfig
from actionflow.objectives import total_loss
from actionflow.numerics import (
    GradTape,
    ParamStore,
    Tensor,
    add,
    exp,
    mul,
    sub,
    sum_all,
)
from actionflow.synth import GoalTemplate, SynthSpec, generate
from actionflow import training
from actionflow.training import (
    CHECKPOINT_VERSION,
    Adam,
    TrainConfig,
    TrainingDiverged,
    load_checkpoint,
    prepare,
    resolve_max_len,
    run_training,
    save_checkpoint,
    train,
)


def tiny_setup(clusters=2, max_len=8):
    vocab = Vocab(["a", "b", "c"], ["g0", "g1"],
                  goal_marks=[(0, 1), (1, 2)])
    cm = ClusterMap(m=clusters,
                    assignments=[i % clusters for i in range(vocab.n_marks)])
    cfg = ModelConfig(d=4, heads=2, blocks=1, clusters=clusters, max_len=max_len)
    return vocab, cm, cfg


def tiny_corpus(vocab, n=6, seed=0):
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        k = int(rng.integers(3, 5))
        marks = rng.integers(0, 3, size=k)
        times = np.cumsum(rng.uniform(0.3, 2.0, size=k))
        seq = Ctas(id=f"s{i}", goal=int(rng.integers(0, 2)),
                   actions=[Action(int(m), float(t)) for m, t in zip(marks, times)])
        out.append(append_eos(seq, eos_gap=1.0, eos_id=vocab.eos_id))
    return out


def _tiny_size():
    vocab, cm, cfg = tiny_setup()
    return Model.init(cfg, vocab, cm).store.flat.size


TINY_SIZE = _tiny_size()
FINITE = st.floats(allow_nan=False, allow_infinity=False)
# signed zeros, the smallest subnormal, a subnormal near the normal range, the extremes
EDGES = np.array([-0.0, 0.0, 5e-324, np.finfo(float).tiny / 2, np.finfo(float).max, 1.0])


def param_bytes(store):
    return [(name, p.data.tobytes()) for name, p in store.items()]


def loss_fields(entry):
    return {k: v for k, v in entry.items() if k not in ("seconds",)}


class TestTrainConfig:
    def test_defaults_validate(self):
        TrainConfig().validate()

    def test_dict_round_trip(self):
        cfg = TrainConfig(lr=0.01, epochs=3, gamma=0.5, eos_time_term=False)
        assert TrainConfig.from_dict(write_record(cfg)) == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="bogus"):
            TrainConfig.from_dict({"lr": 0.1, "bogus": 1})

    def test_removed_margin_switch_rejected(self):
        with pytest.raises(ValueError, match="apply_margin"):
            TrainConfig.from_dict({"apply_margin": False})

    @pytest.mark.parametrize("key,value,kind", [
        ("batch_size", 2.5, "int"), ("epochs", True, "int"), ("seed", "1", "int"),
        ("lr", "0.1", "float"), ("lr", False, "float"), ("eos_time_term", "no", "bool"),
        ("eos_time_term", 0, "bool"),
    ])
    def test_ill_typed_value_rejected(self, key, value, kind):
        with pytest.raises(ValueError, match=f"train config key '{key}' must be {kind}"):
            TrainConfig.from_dict({key: value})

    def test_int_for_float_kept_as_int(self):
        cfg = TrainConfig.from_dict({"lr": 1, "margin_weight": 0})
        assert type(cfg.lr) is int and cfg.margin_weight == 0

    def test_zero_lr_allowed_negative_rejected(self):
        TrainConfig(lr=0.0).validate()
        with pytest.raises(ValueError, match="learning rate"):
            TrainConfig(lr=-0.1).validate()

    @pytest.mark.parametrize("field,value", [
        ("beta1", 1.0), ("beta1", -0.2), ("beta2", 1.5),
        ("eps", 0.0), ("epochs", 0), ("batch_size", 0),
        ("gamma", 1.01), ("gamma", -0.5),
        ("margin_weight", -1.0), ("l2_coeff", -0.001),
        ("lr", math.nan), ("lr", math.inf), ("eps", math.nan), ("eps", math.inf),
        ("margin_weight", math.nan), ("margin_weight", math.inf),
        ("l2_coeff", math.nan), ("l2_coeff", math.inf),
    ])
    def test_out_of_range_rejected(self, field, value):
        cfg = TrainConfig(**{field: value})
        with pytest.raises(ValueError):
            cfg.validate()

    def test_gamma_endpoints_allowed(self):
        TrainConfig(gamma=0.0).validate()
        TrainConfig(gamma=1.0).validate()

    def test_from_config_copies_optimizer_fields(self):
        cfg = TrainConfig(lr=0.07, beta1=0.8, beta2=0.95, eps=1e-6)
        opt = Adam.from_config(ParamStore(), cfg)
        assert (opt.lr, opt.beta1, opt.beta2, opt.eps) == (0.07, 0.8, 0.95, 1e-6)


class LoopAdam:
    """The per-parameter Adam that the flat pass replaced, kept as the
    reference the flat pass must equal bit for bit."""

    def __init__(self, store, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.store, self.lr, self.beta1, self.beta2, self.eps = store, lr, beta1, beta2, eps
        self.step, self.m, self.v = 0, {}, {}

    def update(self):
        store = self.store
        self.step += 1
        bc1 = 1.0 - self.beta1 ** self.step
        bc2 = 1.0 - self.beta2 ** self.step
        for name, p in store.items():
            g = store.grad(name)
            m = self.m.get(name)
            if m is None:
                m = np.zeros_like(p.data)
                v = np.zeros_like(p.data)
            else:
                v = self.v[name]
            m = self.beta1 * m + (1.0 - self.beta1) * g
            v = self.beta2 * v + (1.0 - self.beta2) * (g * g)
            self.m[name] = m
            self.v[name] = v
            p.data -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)


class TestAdam:
    @staticmethod
    def three_params(seed=4):
        rng = np.random.default_rng(seed)
        return ParamStore((name, rng.normal(size=shape))
                          for name, shape in (("w", (2, 3)), ("unreached", (3,)), ("b", (4,))))

    @staticmethod
    def nonlinear_step(store, opt):
        # "unreached" never enters the loss, so its gradient reads as zero
        store.zero_grads()
        with GradTape() as tape:
            loss = add(sum_all(mul(exp(store["w"]), 0.3)),
                       sum_all(mul(store["b"], store["b"])))
            tape.backward(loss)
        return opt.update()

    @staticmethod
    def laid_flat(moments, store):
        """A per-name moment dict in ``store.flat`` order."""
        return np.concatenate([moments[name] for name in store.names()], axis=None)

    @staticmethod
    def model_step(store, opt):
        # a loss on the first and last parameters; the rest read zero gradients
        first, last = store.tensors[0], store.tensors[-1]
        store.zero_grads()
        with GradTape() as tape:
            tape.backward(add(sum_all(mul(exp(first), 0.3)), sum_all(mul(last, last))))
        return opt.update()

    def test_flat_pass_equals_the_per_parameter_loop(self):
        flat_store, loop_store = self.three_params(), self.three_params()
        flat_opt, loop_opt = Adam(flat_store, lr=0.05), LoopAdam(loop_store, lr=0.05)
        for _ in range(6):
            self.nonlinear_step(flat_store, flat_opt)
            self.nonlinear_step(loop_store, loop_opt)
            assert param_bytes(flat_store) == param_bytes(loop_store)
        assert flat_opt.m.tobytes() == self.laid_flat(loop_opt.m, loop_store).tobytes()
        assert flat_opt.v.tobytes() == self.laid_flat(loop_opt.v, loop_store).tobytes()

    def test_resume_from_per_name_state_equals_the_loop(self):
        loop_store = self.three_params()
        loop_opt = LoopAdam(loop_store, lr=0.05)
        for _ in range(4):
            self.nonlinear_step(loop_store, loop_opt)
        # the per-parameter optimizer's state laid flat in name order and
        # passed through JSON, as a checkpoint holds it
        state = json.loads(json.dumps({
            "params": encode_vector(loop_store.flat), "step": loop_opt.step,
            "m": encode_vector(self.laid_flat(loop_opt.m, loop_store)),
            "v": encode_vector(self.laid_flat(loop_opt.v, loop_store))}))
        resumed = ParamStore(zip(loop_store.names(),
                                 loop_store.split(decode_vector(state["params"]))))
        opt = Adam(resumed, lr=0.05)
        opt.step = state["step"]
        opt.m, opt.v = decode_vector(state["m"]), decode_vector(state["v"])
        assert [encode_vector(opt.m), encode_vector(opt.v)] == [state["m"], state["v"]]
        for _ in range(3):
            self.nonlinear_step(loop_store, loop_opt)
            self.nonlinear_step(resumed, opt)
            assert param_bytes(resumed) == param_bytes(loop_store)
        assert opt.m.tobytes() == self.laid_flat(loop_opt.m, loop_store).tobytes()
        assert opt.v.tobytes() == self.laid_flat(loop_opt.v, loop_store).tobytes()

    def test_state_naming_other_parameters_is_rejected(self, tmp_path):
        vocab, cm, cfg = tiny_setup()
        model = Model.init(cfg, vocab, cm, seed=4)
        store = model.store
        opt = Adam(store, lr=0.05)
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, model, optimizer=opt)
        zeros = encode_vector(np.zeros(store.flat.size))
        assert json.loads(path.read_text())["optimizer"] == {"step": 0, "m": zeros, "v": zeros}
        self.model_step(store, opt)
        save_checkpoint(path, model, optimizer=opt)
        good = json.loads(path.read_text())
        wide = next(i for i, shape in enumerate(good["shapes"])
                    if len(shape) == 2 and shape[0] != shape[1])
        missing, extra, renamed, reshaped = (json.loads(json.dumps(good)) for _ in range(4))
        del missing["names"][0], missing["shapes"][0]
        extra["names"].append("zz.bogus")
        extra["shapes"].append([1])
        renamed["names"][0] = "bogus"
        reshaped["shapes"][wide].reverse()
        for bad in (missing, extra, renamed, reshaped):
            path.write_text(json.dumps(bad))
            with pytest.raises(ValueError, match="names and shapes"):
                load_checkpoint(path)
        path.write_text(json.dumps(good))
        loaded = load_checkpoint(path).optimizer
        assert loaded.step == 1
        assert [loaded.m.tobytes(), loaded.v.tobytes()] == [opt.m.tobytes(), opt.v.tobytes()]

    def test_update_reports_gradient_norm_and_update_ratio(self):
        store = self.three_params()
        before = store.flat.copy()
        store.zero_grads()
        with GradTape() as tape:
            tape.backward(sum_all(mul(store["b"], store["b"])))
        grad = store.flat_grad()
        grad_norm, ratio = Adam(store, lr=0.05).update()
        assert grad_norm == pytest.approx(np.linalg.norm(grad), rel=1e-12)
        delta = before - store.flat
        assert ratio == pytest.approx(np.linalg.norm(delta) / np.linalg.norm(before), rel=1e-9)

    def quadratic_step(self, store, w, opt, target=3.0):
        store.zero_grads()
        with GradTape() as tape:
            diff = sub(w, target)
            loss = sum_all(mul(diff, diff))
            tape.backward(loss)
        opt.update()

    def test_quadratic_convergence(self):
        store = ParamStore({"w": [0.0]})
        w = store["w"]
        opt = Adam(store, lr=0.05)
        for _ in range(500):
            self.quadratic_step(store, w, opt)
        assert abs(float(w.data[0]) - 3.0) < 1e-3

    def test_first_step_is_bias_corrected(self):
        # with m/v both zero, step one moves by lr * g / (|g| + eps) ~ lr * sign(g)
        store = ParamStore({"w": [0.0]})
        w = store["w"]
        opt = Adam(store, lr=0.05)
        self.quadratic_step(store, w, opt)
        assert float(w.data[0]) == pytest.approx(0.05, abs=1e-6)

    def test_zero_grad_is_noop(self):
        store = ParamStore({"w": [1.5, -2.0]})
        w = store["w"]
        before = w.data.tobytes()
        opt = Adam(store, lr=0.1)
        store.zero_grads()
        opt.update()
        assert w.data.tobytes() == before

    def test_zero_lr_freezes_params(self):
        store = ParamStore({"w": [0.0]})
        w = store["w"]
        opt = Adam(store, lr=0.0)
        for _ in range(5):
            self.quadratic_step(store, w, opt)
        assert w.data.tobytes() == np.array([0.0]).tobytes()

    def test_matrix_target_convergence(self):
        rng = np.random.default_rng(11)
        target = Tensor(rng.normal(size=(2, 3)))
        store = ParamStore({"w": np.zeros((2, 3))})
        w = store["w"]
        opt = Adam(store, lr=0.05)
        for _ in range(800):
            store.zero_grads()
            with GradTape() as tape:
                diff = sub(w, target)
                loss = sum_all(mul(diff, diff))
                tape.backward(loss)
            opt.update()
        np.testing.assert_allclose(w.data, target.data, atol=1e-3)

    def test_state_dict_round_trip_resumes_identically(self, tmp_path):
        vocab, cm, cfg = tiny_setup()
        model = Model.init(cfg, vocab, cm, seed=6)
        tcfg = TrainConfig(lr=0.03)
        opt_a = Adam.from_config(model.store, tcfg)
        for _ in range(7):
            self.model_step(model.store, opt_a)
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, model, tcfg, opt_a)
        ckpt = load_checkpoint(path)
        state = ckpt.optimizer
        assert ckpt.train_config == tcfg
        assert state.step == opt_a.step
        assert [state.m.tobytes(), state.v.tobytes()] == [opt_a.m.tobytes(), opt_a.v.tobytes()]

        # the saved state only: the settings come from the config, as in train()
        opt_b = Adam.from_config(ckpt.model.store, ckpt.train_config)
        opt_b.step, opt_b.m, opt_b.v = state.step, state.m, state.v
        assert opt_b.lr == opt_a.lr
        self.model_step(model.store, opt_a)
        self.model_step(ckpt.model.store, opt_b)
        assert param_bytes(ckpt.model.store) == param_bytes(model.store)


class TestModelInit:
    # sha256 of the names, shapes and flat bytes Model.init drew before its
    # parameters were described as (name, shape, draw) specs
    @pytest.mark.parametrize("variant,ffn,digest", [
        ("base", "summed", "f151fca59aa0c5081a2b896d2aad439adcef60d9c6cc7988a162dac22dcca770"),
        ("plus", "standard", "0060f52a09b1feb01cf42cc34f0d2046d1cb2e651591b5cab2dedf525e74becd"),
    ])
    def test_same_seed_draws_are_unchanged(self, variant, ffn, digest):
        vocab, cm, _ = tiny_setup()
        cfg = ModelConfig(d=4, heads=2, blocks=2, clusters=2, max_len=8, variant=variant, ffn=ffn)
        store = Model.init(cfg, vocab, cm, seed=11).store
        layout = repr([(name, t.data.shape) for name, t in store.items()]).encode()
        assert hashlib.sha256(layout + store.flat.tobytes()).hexdigest() == digest


class TestTrainLoop:
    def run_once(self, epochs=2, seed=0, lr=0.01, ckpt_dir=None, corpus=None):
        vocab, cm, cfg = tiny_setup()
        corpus = tiny_corpus(vocab) if corpus is None else corpus
        tcfg = TrainConfig(lr=lr, epochs=epochs, seed=seed, batch_size=4)
        model, entries = train(corpus, vocab, cm, cfg, tcfg, ckpt_dir=ckpt_dir)
        return model, entries

    def test_double_run_bitwise_identical(self, tmp_path):
        model_a, entries_a = self.run_once(seed=3, ckpt_dir=str(tmp_path / "a"))
        model_b, entries_b = self.run_once(seed=3, ckpt_dir=str(tmp_path / "b"))
        assert param_bytes(model_a.store) == param_bytes(model_b.store)
        assert [loss_fields(e) for e in entries_a] == [loss_fields(e) for e in entries_b]
        for name in ("final.json", "best.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_different_seeds_differ(self):
        model_a, _ = self.run_once(seed=0)
        model_b, _ = self.run_once(seed=1)
        assert param_bytes(model_a.store) != param_bytes(model_b.store)

    def test_zero_lr_leaves_init_untouched(self):
        vocab, cm, cfg = tiny_setup()
        corpus = tiny_corpus(vocab)
        tcfg = TrainConfig(lr=0.0, epochs=3, seed=5, batch_size=4)
        model, _ = train(corpus, vocab, cm, cfg, tcfg)
        reference = Model.init(cfg, vocab, cm, seed=5)
        assert param_bytes(model.store) == param_bytes(reference.store)

    def test_entry_fields_and_epoch_numbering(self):
        _, entries = self.run_once(epochs=3)
        assert [e["epoch"] for e in entries] == [1, 2, 3]
        for e in entries:
            for key in ("nll", "goal_ce", "margin_goal", "margin_action",
                        "l2", "total", "grad_norm", "update_ratio", "seconds"):
                assert key in e and np.isfinite(e[key])
            assert e["seconds"] >= 0.0
            assert e["grad_norm"] > 0.0 and 0.0 < e["update_ratio"] < 1.0

    def test_log_lines_carry_step_health(self, tmp_path):
        _, entries = self.run_once(epochs=2, ckpt_dir=str(tmp_path))
        lines = [json.loads(line) for line in
                 (tmp_path / "train_log.jsonl").read_text().splitlines()]
        assert lines == entries
        assert all(math.isfinite(e["grad_norm"]) and math.isfinite(e["update_ratio"])
                   for e in lines)

    def test_entry_total_combines_components(self):
        vocab, cm, cfg = tiny_setup()
        corpus = tiny_corpus(vocab)
        tcfg = TrainConfig(lr=0.01, epochs=1, seed=0, batch_size=4,
                           margin_weight=0.2, l2_coeff=0.01)
        _, entries = train(corpus, vocab, cm, cfg, tcfg)
        e = entries[0]
        expect = (e["nll"] + e["goal_ce"]
                  + 0.2 * (e["margin_goal"] + e["margin_action"])
                  + 0.01 * e["l2"])
        assert e["total"] == pytest.approx(expect, abs=1e-12)

    def test_empty_corpus_rejected(self):
        vocab, cm, cfg = tiny_setup()
        with pytest.raises(ValueError, match="empty"):
            train([], vocab, cm, cfg, TrainConfig(epochs=1))

    def test_invalid_config_rejected_before_work(self):
        vocab, cm, cfg = tiny_setup()
        with pytest.raises(ValueError, match="epochs"):
            train(tiny_corpus(vocab), vocab, cm, cfg, TrainConfig(epochs=0))


class TestCheckpoints:
    def make_model(self, seed=0):
        vocab, cm, cfg = tiny_setup()
        return Model.init(cfg, vocab, cm, seed=seed)

    def test_payload_round_trip(self, tmp_path):
        model = self.make_model(seed=9)
        tcfg = TrainConfig(lr=0.02, epochs=4)
        opt = Adam.from_config(model.store, tcfg)
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, model, tcfg, opt, epoch=2, best_total=1.25)
        ckpt = load_checkpoint(path)
        assert param_bytes(ckpt.model.store) == param_bytes(model.store)
        assert ckpt.model.config == model.config
        assert ckpt.model.vocab.mark_names == model.vocab.mark_names
        assert ckpt.model.clusters == model.clusters
        assert ckpt.train_config == tcfg
        assert ckpt.epoch == 2
        assert ckpt.best_total == 1.25

    def test_optimizer_state_round_trip(self, tmp_path):
        vocab, cm, cfg = tiny_setup()
        corpus = tiny_corpus(vocab)
        tcfg = TrainConfig(lr=0.01, epochs=1, seed=0, batch_size=4)
        train(corpus, vocab, cm, cfg, tcfg, ckpt_dir=str(tmp_path))
        ckpt = load_checkpoint(tmp_path / "final.json")
        assert ckpt.optimizer is not None
        assert ckpt.optimizer.step > 0
        saved = json.loads((tmp_path / "final.json").read_text())
        assert saved["names"] == ckpt.model.store.names()
        assert ckpt.optimizer.m.size == ckpt.optimizer.v.size == ckpt.model.store.flat.size
        assert [encode_vector(ckpt.optimizer.m), encode_vector(ckpt.optimizer.v)] == [
            saved["optimizer"]["m"], saved["optimizer"]["v"]]

    def test_bad_version_rejected(self, tmp_path):
        model = self.make_model()
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, model)
        payload = json.loads(path.read_text())
        payload["version"] = CHECKPOINT_VERSION + 1
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="version"):
            load_checkpoint(path)

    def test_config_too_wide_for_the_saved_shapes_is_refused_unbuilt(self, tmp_path):
        # a width of 10**12 would need terabytes if the config's parameters were built
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, self.make_model())
        payload = json.loads(path.read_text())
        payload["model_config"]["d"] = 10**12
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="names and shapes do not match"):
            load_checkpoint(path)

    @settings(max_examples=40, deadline=None)
    @given(params=arrays(np.float64, TINY_SIZE, elements=FINITE),
           m=arrays(np.float64, TINY_SIZE, elements=FINITE),
           v=arrays(np.float64, TINY_SIZE, elements=st.floats(0.0, allow_infinity=False)))
    @example(params=np.resize(EDGES, TINY_SIZE), m=np.resize(-EDGES, TINY_SIZE),
             v=np.resize(np.abs(EDGES), TINY_SIZE))
    def test_finite_vectors_round_trip_bit_for_bit(self, tmp_path_factory, params, m, v):
        model = self.make_model()
        model.store.flat[:] = params
        opt = Adam(model.store)
        opt.step, opt.m, opt.v = 1, m, v
        path = tmp_path_factory.getbasetemp() / "codec.json"
        save_checkpoint(path, model, optimizer=opt)
        ckpt = load_checkpoint(path)
        assert ckpt.model.store.flat.flags.writeable
        assert [ckpt.model.store.flat.tobytes(), ckpt.optimizer.m.tobytes(),
                ckpt.optimizer.v.tobytes()] == [params.tobytes(), m.tobytes(), v.tobytes()]

    def test_version_3_float_lists_refused_by_version(self, tmp_path):
        path = tmp_path / "ckpt.json"
        model = self.make_model()
        save_checkpoint(path, model, optimizer=Adam(model.store))
        payload = json.loads(path.read_text())
        payload["version"] = 3
        payload["params"] = decode_vector(payload["params"]).tolist()
        for key in ("m", "v"):
            payload["optimizer"][key] = decode_vector(payload["optimizer"][key]).tolist()
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="unsupported checkpoint version 3"):
            load_checkpoint(path)

    def test_cluster_assignments_must_name_vocabulary_marks(self, tmp_path):
        model = self.make_model()
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, model)
        load_checkpoint(path)  # the terminal mark, the last id, is assigned too
        payload = json.loads(path.read_text())
        assignments = payload["clusters"]["assignments"]
        assert len(assignments) == model.vocab.n_marks == model.vocab.eos_id + 1
        for edited in (assignments + [0], assignments[:-1]):
            payload["clusters"]["assignments"] = edited
            path.write_text(json.dumps(payload))
            message = rf"one assignment per mark \({len(assignments)}\), got {len(edited)}"
            with pytest.raises(ValueError, match=message):
                load_checkpoint(path)

    def test_failed_write_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        path = tmp_path / "final.json"
        save_checkpoint(path, self.make_model(seed=1), epoch=1)
        before = path.read_bytes()

        class FullDisk:
            """A text file that takes 100 characters, then reports a full disk."""

            def __init__(self, *args, **kwargs):
                self.fh = open(*args, **kwargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, text):
                self.fh.write(text[:100])
                raise OSError("disk full")

        monkeypatch.setattr(training, "open", FullDisk, raising=False)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(path, self.make_model(seed=2), epoch=2)
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert load_checkpoint(path).epoch == 1
        assert os.listdir(tmp_path) == ["final.json"]

    def test_resume_matches_uninterrupted_run(self, tmp_path):
        vocab, cm, cfg = tiny_setup()
        corpus = tiny_corpus(vocab, n=8, seed=2)

        straight_cfg = TrainConfig(lr=0.01, epochs=4, seed=7, batch_size=3)
        straight_dir = tmp_path / "straight"
        model_straight, entries_straight = train(corpus, vocab, cm, cfg, straight_cfg,
                                                 ckpt_dir=str(straight_dir))

        first_cfg = TrainConfig(lr=0.01, epochs=2, seed=7, batch_size=3)
        ckpt_dir = tmp_path / "run"
        train(corpus, vocab, cm, cfg, first_cfg, ckpt_dir=str(ckpt_dir))
        ckpt = load_checkpoint(ckpt_dir / "final.json")
        assert ckpt.epoch == 2

        model_resumed, entries_resumed = train(
            corpus, vocab, cm, cfg, straight_cfg,
            ckpt_dir=str(ckpt_dir), resume=ckpt)
        assert [e["epoch"] for e in entries_resumed] == [3, 4]
        assert param_bytes(model_resumed.store) == param_bytes(model_straight.store)
        assert (ckpt_dir / "final.json").read_bytes() == (straight_dir / "final.json").read_bytes()
        tail = [loss_fields(e) for e in entries_straight[2:]]
        assert [loss_fields(e) for e in entries_resumed] == tail

        log_lines = (ckpt_dir / "train_log.jsonl").read_text().splitlines()
        assert [json.loads(line)["epoch"] for line in log_lines] == [1, 2, 3, 4]

    def test_resume_steps_with_the_settings_it_is_given(self, tmp_path):
        vocab, cm, cfg = tiny_setup()
        corpus = tiny_corpus(vocab, n=1, seed=3)  # one batch, so one step per epoch
        saved_cfg = TrainConfig(lr=1e-3, epochs=2, seed=5, batch_size=1)
        train(corpus, vocab, cm, cfg, saved_cfg, ckpt_dir=str(tmp_path))
        path = tmp_path / "final.json"
        ckpt, ref = load_checkpoint(path), load_checkpoint(path)
        resume_cfg = replace(saved_cfg, lr=0.5, epochs=3)
        resumed, _ = train(corpus, vocab, cm, cfg, resume_cfg,
                           ckpt_dir=str(tmp_path), resume=ckpt)

        # the next step of a fresh Adam at lr 0.5 given the saved step, m and v
        opt = Adam(ref.model.store, lr=0.5)
        opt.step, opt.m, opt.v = ref.optimizer.step, ref.optimizer.m, ref.optimizer.v
        ref.model.store.zero_grads()
        with GradTape() as tape:
            total, _ = total_loss(ref.model, corpus, gamma=resume_cfg.gamma,
                                  margin_weight=resume_cfg.margin_weight,
                                  l2_coeff=resume_cfg.l2_coeff)
            tape.backward(total)
        opt.update()
        assert param_bytes(resumed.store) == param_bytes(ref.model.store)
        written = json.loads(path.read_text())
        assert written["train_config"]["lr"] == 0.5
        assert written["optimizer"]["step"] == ref.optimizer.step + 1 == 3

    def test_fresh_run_rewrites_log(self, tmp_path):
        vocab, cm, cfg = tiny_setup()
        corpus = tiny_corpus(vocab)
        tcfg = TrainConfig(lr=0.01, epochs=2, seed=0, batch_size=4)
        for _ in range(2):
            train(corpus, vocab, cm, cfg, tcfg, ckpt_dir=str(tmp_path))
        log_lines = (tmp_path / "train_log.jsonl").read_text().splitlines()
        assert [json.loads(line)["epoch"] for line in log_lines] == [1, 2]

    def test_resume_at_target_epoch_is_noop(self, tmp_path):
        vocab, cm, cfg = tiny_setup()
        corpus = tiny_corpus(vocab)
        tcfg = TrainConfig(lr=0.01, epochs=2, seed=0, batch_size=4)
        train(corpus, vocab, cm, cfg, tcfg, ckpt_dir=str(tmp_path))
        ckpt = load_checkpoint(tmp_path / "final.json")
        before = param_bytes(ckpt.model.store)
        model, entries = train(corpus, vocab, cm, cfg, tcfg, resume=ckpt)
        assert entries == []
        assert param_bytes(model.store) == before

    def test_checkpoint_files_and_best_total(self, tmp_path):
        vocab, cm, cfg = tiny_setup()
        corpus = tiny_corpus(vocab)
        tcfg = TrainConfig(lr=0.01, epochs=3, seed=1, batch_size=4)
        _, entries = train(corpus, vocab, cm, cfg, tcfg, ckpt_dir=str(tmp_path))
        for name in ("final.json", "best.json", "train_log.jsonl"):
            assert os.path.exists(tmp_path / name)
        best = load_checkpoint(tmp_path / "best.json")
        totals = [e["total"] for e in entries]
        assert best.best_total == pytest.approx(min(totals), abs=0.0)
        final = load_checkpoint(tmp_path / "final.json")
        assert final.epoch == 3


class TestDivergence:
    def test_zero_gap_aborts_with_checkpoint_intact(self, tmp_path):
        vocab, cm, cfg = tiny_setup()
        corpus = tiny_corpus(vocab)
        tcfg = TrainConfig(lr=0.01, epochs=2, seed=0, batch_size=4)
        train(corpus, vocab, cm, cfg, tcfg, ckpt_dir=str(tmp_path))

        # a repeated timestamp makes the gap density undefined mid-epoch
        bad = Ctas(id="bad", goal=0,
                   actions=[Action(0, 1.0), Action(1, 1.0), Action(2, 2.0)])
        ckpt = load_checkpoint(tmp_path / "final.json")
        with pytest.raises(TrainingDiverged, match="epoch 3"):
            train(corpus + [bad], vocab, cm, cfg,
                  TrainConfig(lr=0.01, epochs=4, seed=0, batch_size=4),
                  ckpt_dir=str(tmp_path), resume=ckpt)
        survivor = load_checkpoint(tmp_path / "final.json")
        assert survivor.epoch == 2

    def test_divergence_names_offending_sequence(self):
        vocab, cm, cfg = tiny_setup()
        bad = Ctas(id="bad-seq", goal=0,
                   actions=[Action(0, 1.0), Action(1, 1.0)])
        with pytest.raises(TrainingDiverged, match="bad-seq"):
            train([bad], vocab, cm, cfg, TrainConfig(lr=0.01, epochs=1))

    def test_divergent_batch_names_offending_sequence(self):
        # the bad sequence shares one packed batch with healthy ones
        vocab, cm, cfg = tiny_setup()
        bad = Ctas(id="bad-seq", goal=0,
                   actions=[Action(0, 1.0), Action(1, 1.0)])
        corpus = tiny_corpus(vocab) + [bad]
        with pytest.raises(TrainingDiverged, match="bad-seq"):
            train(corpus, vocab, cm, cfg,
                  TrainConfig(lr=0.01, epochs=1, batch_size=len(corpus)))


class TestPrepare:
    def two_goal_corpus(self, count=40, seed=3):
        spec = SynthSpec(
            goals=[
                GoalTemplate(name="g0", template=["a", "b", "c"],
                             mu=[0.0, 0.5, 1.0], sigma=[0.3, 0.3, 0.3]),
                GoalTemplate(name="g1", template=["d", "e", "f"],
                             mu=[1.0, 0.0, 0.5], sigma=[0.3, 0.3, 0.3]),
            ],
            count=count, seed=seed)
        return generate(spec)

    def test_resolve_max_len_from_longest_sequence(self):
        corpus, vocab = self.two_goal_corpus()
        cfg = ModelConfig(d=4, heads=2, blocks=1, clusters=2, max_len=None)
        resolved = resolve_max_len(cfg, corpus)
        longest = max(len(s) for s in corpus)
        assert resolved.max_len == int(np.ceil(1.5 * longest))
        assert cfg.max_len is None

    def test_resolve_keeps_explicit_value(self):
        corpus, _ = self.two_goal_corpus()
        cfg = ModelConfig(d=4, heads=2, blocks=1, clusters=2, max_len=32)
        assert resolve_max_len(cfg, corpus).max_len == 32

    def test_prepare_splits_and_augments(self):
        corpus, vocab = self.two_goal_corpus()
        cfg = ModelConfig(d=4, heads=2, blocks=1, clusters=2, max_len=None)
        tcfg = TrainConfig(seed=0)
        prep = prepare(corpus, vocab, cfg, tcfg, train_fraction=0.75)
        assert len(prep.train_raw) + len(prep.test_raw) == len(corpus)
        assert len(prep.train_aug) == len(prep.train_raw)
        for raw, aug in zip(prep.train_raw, prep.train_aug):
            assert len(aug) == len(raw) + 1
            assert aug.actions[-1].mark == vocab.eos_id
        assert prep.eos_gap > 0.0
        assert prep.model_config.max_len is not None
        assert prep.clusters.m == cfg.clusters
        assert len(prep.vocab.goal_marks) == vocab.n_goals == 2

    def test_prepare_without_split_uses_everything(self):
        corpus, vocab = self.two_goal_corpus(count=12)
        cfg = ModelConfig(d=4, heads=2, blocks=1, clusters=2, max_len=None)
        prep = prepare(corpus, vocab, cfg, TrainConfig(seed=0), do_split=False)
        assert prep.test_raw == []
        assert [s.id for s in prep.train_raw] == [s.id for s in corpus]

    def test_goal_mark_sets_come_from_training_side_only(self):
        corpus, vocab = self.two_goal_corpus()
        cfg = ModelConfig(d=4, heads=2, blocks=1, clusters=2, max_len=None)
        prep = prepare(corpus, vocab, cfg, TrainConfig(seed=0))
        seen = set()
        for seq in prep.train_raw:
            seen.update(seq.marks())
        for marks in prep.vocab.goal_marks:
            assert set(marks) <= seen

    def test_prepare_leaves_the_callers_vocab_alone(self):
        # goal 0's second sequence holds the only "c", so whether it lands on
        # the training side decides goal 0's action set
        vocab = Vocab(["a", "b", "c", "d", "e"], ["g0", "g1"])
        layouts = [(0, [0, 1]), (0, [0, 1, 2]), (1, [3, 4]), (1, [4, 3])]
        corpus = [Ctas(id=f"s{i}", goal=goal,
                       actions=[Action(mk, 0.5 + j * (1.0 + mk)) for j, mk in enumerate(marks)])
                  for i, (goal, marks) in enumerate(layouts)]
        cfg = ModelConfig(d=4, heads=2, blocks=1, clusters=1, max_len=None)
        preps = [prepare(corpus, vocab, cfg, TrainConfig(seed=seed)) for seed in range(6)]
        assert vocab.goal_marks is None
        # each preparation keeps the action sets of its own training side
        assert [prep.vocab.goal_marks for prep in preps] == [
            observed_marks_by_goal(prep.train_raw, vocab.n_goals) for prep in preps]
        assert {prep.vocab.goal_marks[0] for prep in preps} == {(0, 1), (0, 1, 2)}


    def test_cluster_count_lowered_to_distinct_mean_gaps(self):
        # shaped like the demos/02 corpus: 8 marks, and the two closing marks
        # are never followed, so they share the global mean gap
        spec = SynthSpec(
            goals=[
                GoalTemplate(name="g0", template=["a", "b", "c", "d"],
                             mu=[0.0, 1.1, 0.0, 0.7], sigma=[0.25] * 4,
                             swap_pairs=[(0, 1)]),
                GoalTemplate(name="g1", template=["e", "f", "g", "h"],
                             mu=[0.7, 1.6, 0.0, 0.0], sigma=[0.25] * 4),
            ],
            count=40, seed=11, swap_prob=0.2)
        corpus, vocab = generate(spec)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model, prep, _ = run_training(corpus, vocab, ModelConfig(),
                                          TrainConfig(epochs=1, seed=0))
        assert prep.model_config.clusters == model.config.clusters == 7
        used = set(prep.clusters.clusters_of(range(vocab.eos_id)).tolist())
        assert used == set(range(7))

    def test_three_mark_corpus_trains_under_default_config(self):
        spec = SynthSpec(
            goals=[GoalTemplate(name="g0", template=["a", "b", "c"],
                                mu=[0.0, 0.5, 1.0], sigma=[0.3] * 3)],
            count=10, seed=2)
        corpus, vocab = generate(spec)
        model, prep, entries = run_training(corpus, vocab, ModelConfig(),
                                            TrainConfig(epochs=1, seed=0))
        assert prep.clusters.m == model.config.clusters == 3
        assert len(entries) == 1


class TestTrainingTrend:
    def test_loss_decreases_over_first_epochs(self):
        # 2 goals x 3 disjoint marks, mild order noise; loss should fall
        # monotonically early in training, though the values themselves vary
        spec = SynthSpec(
            goals=[
                GoalTemplate(name="g0", template=["a", "b", "c"],
                             mu=[0.0, 1.0, 0.5], sigma=[0.3, 0.3, 0.3],
                             swap_pairs=[(0, 1)]),
                GoalTemplate(name="g1", template=["d", "e", "f"],
                             mu=[1.0, 0.0, 1.0], sigma=[0.3, 0.3, 0.3],
                             swap_pairs=[(1, 2)]),
            ],
            count=500, seed=1, swap_prob=0.1)
        corpus, vocab = generate(spec)
        # 6 raw marks; the default cluster count would exceed them
        cfg = ModelConfig(clusters=4)
        tcfg = TrainConfig(epochs=5, seed=0)
        _, _, entries = run_training(corpus, vocab, cfg, tcfg)
        totals = [e["total"] for e in entries]
        assert len(totals) == 5
        assert all(b < a for a, b in zip(totals, totals[1:]))
