"""Tests for action embedding, positional rows, masked self-attention
encoding, and the order-free prefix summary."""

import numpy as np
import pytest

from actionflow.encoder import (
    CapacityError,
    _attention,
    _Packed,
    embed_actions,
    encode,
    init_encoder_params,
    init_set_params,
    positional_add,
    set_embed,
)
from actionflow.model import ModelConfig
from actionflow.numerics import (GradTape, ParamStore, Segments, ShapeError, Tensor,
                                 causal_attention, draw_params, sum_all)

D = 8


def attention(store, cfg, x, segs):
    """Block 0's attention stage on packed rows x."""
    return _attention(store, x, 0, _Packed(segs, cfg.heads))


def make_cfg(**kw):
    # max_len 11 gives a 12-row positional table
    base = dict(d=D, heads=2, blocks=2, max_len=11, ffn="summed")
    base.update(kw)
    return ModelConfig(**base)


def make_store(cfg, n_marks=5, seed=0, with_set=False):
    specs = init_encoder_params(cfg, n_marks)
    if with_set:
        specs += init_set_params(cfg)
    return ParamStore(draw_params(specs, np.random.default_rng(seed)))


def random_sequence(rng, k, n_marks=5):
    marks = rng.integers(0, n_marks, size=k)
    times = np.cumsum(rng.uniform(0.1, 1.5, size=k))
    return marks, times


class TestConfig:
    def test_width_must_divide_by_heads(self):
        with pytest.raises(ValueError):
            make_cfg(d=6, heads=4).validate()
        make_cfg(d=8, heads=4).validate()

    def test_bad_block_count(self):
        with pytest.raises(ValueError):
            make_cfg(blocks=0).validate()

    def test_bad_ffn_form(self):
        with pytest.raises(ValueError):
            make_cfg(ffn="other").validate()

    def test_capacity_floor(self):
        with pytest.raises(ValueError):
            make_cfg(max_len=1).validate()


class TestInit:
    def test_parameter_names_and_shapes(self):
        cfg = make_cfg(blocks=2)
        store = make_store(cfg, n_marks=5)
        names = store.names()
        assert "embed.marks" in names
        assert "pos.table" in names
        for b in range(2):
            for leaf in ("attn.wq", "attn.wk", "attn.wv", "attn.wo",
                         "ln1.gain", "ln1.bias", "ln2.gain", "ln2.bias",
                         "ffn.w_in", "ffn.b_in", "ffn.w_out", "ffn.b_out"):
                assert f"block{b}.{leaf}" in names
        assert store["embed.marks"].data.shape == (5, D)
        assert store["pos.table"].data.shape == (cfg.max_len + 1, D)
        assert store["block0.attn.wq"].data.shape == (D, D)

    def test_uniform_bound_and_zero_biases(self):
        cfg = make_cfg()
        store = make_store(cfg)
        bound = 1.0 / np.sqrt(D)
        assert np.all(np.abs(store["block0.attn.wq"].data) <= bound)
        assert np.all(store["block0.ln1.bias"].data == 0.0)
        assert np.all(store["block0.ln1.gain"].data == 1.0)

    def test_standard_ffn_names(self):
        cfg = make_cfg(blocks=1, ffn="standard")
        store = make_store(cfg)
        assert store["block0.ffn.w1"].data.shape == (D, 4 * D)
        assert store["block0.ffn.w2"].data.shape == (4 * D, D)

    def test_set_params_only_for_plus(self):
        cfg = make_cfg()
        assert "set.w_in" in make_store(cfg, with_set=True).names()
        assert "set.w_in" not in make_store(cfg, with_set=False).names()


class TestEmbedding:
    def test_zeroed_weights_leave_only_bias(self):
        cfg = make_cfg()
        store = make_store(cfg)
        for name in ("embed.marks", "embed.w_time", "embed.w_gap"):
            store[name].data[:] = 0.0
        store["embed.bias"].data[:] = 3.5
        y = embed_actions(store, [0, 1], np.array([0.5, 1.0]), Segments(2))
        np.testing.assert_array_equal(y.data, np.full((2, D), 3.5))

    def test_same_mark_different_times_differ(self):
        cfg = make_cfg()
        store = make_store(cfg, seed=3)
        a = embed_actions(store, [2], np.array([0.5]), Segments(1))
        b = embed_actions(store, [2], np.array([1.5]), Segments(1))
        assert np.any(a.data != b.data)

    def test_scalar_oracle(self):
        cfg = make_cfg()
        store = make_store(cfg, seed=7)
        marks = [1, 3, 1]
        times = np.array([0.4, 1.1, 2.0])
        gaps = [0.4, 0.7, 0.9]
        y = embed_actions(store, marks, times, Segments(3))
        for i in range(3):
            expect = (store["embed.marks"].data[marks[i]]
                      + times[i] * store["embed.w_time"].data[0]
                      + gaps[i] * store["embed.w_gap"].data[0]
                      + store["embed.bias"].data)
            np.testing.assert_allclose(y.data[i], expect, atol=1e-12)

    def test_single_action_matches_batch_row(self):
        cfg = make_cfg()
        store = make_store(cfg, seed=4)
        marks = [0, 2, 4]
        times = np.array([0.3, 0.9, 2.2])
        batch = embed_actions(store, marks, times, Segments(3))
        prev = 0.0
        for i, (mk, t) in enumerate(zip(marks, times)):
            prefix = embed_actions(store, marks[:i + 1], times[:i + 1], Segments(i + 1))
            np.testing.assert_array_equal(prefix.data[i], batch.data[i])
            expect = (store["embed.marks"].data[mk]
                      + t * store["embed.w_time"].data[0]
                      + (t - prev) * store["embed.w_gap"].data[0]
                      + store["embed.bias"].data)
            np.testing.assert_allclose(batch.data[i], expect, atol=1e-12)
            prev = float(t)

    def test_decreasing_times_rejected(self):
        cfg = make_cfg()
        store = make_store(cfg)
        with pytest.raises(Exception):
            embed_actions(store, [0, 1], np.array([1.0, 0.5]), Segments(2))

    def test_unknown_mark_rejected(self):
        cfg = make_cfg()
        store = make_store(cfg, n_marks=3)
        with pytest.raises(Exception):
            embed_actions(store, [7], np.array([0.5]), Segments(1))

    def test_layout_must_fit_the_actions(self):
        cfg = make_cfg()
        store = make_store(cfg)
        marks, times = [0, 1, 2], np.array([0.5, 1.0, 1.5])
        for segs in (Segments(2), Segments(4, [1, 3])):
            with pytest.raises(ShapeError):
                embed_actions(store, marks, times, segs)
        # every packed sequence needs at least one action
        with pytest.raises(ValueError, match="empty prefix"):
            embed_actions(store, marks, times, Segments(3, [3, 0]))


class TestPositional:
    def test_zero_table_is_identity(self):
        cfg = make_cfg()
        store = make_store(cfg)
        store["pos.table"].data[:] = 0.0
        y = Tensor(np.random.default_rng(0).normal(size=(4, D)))
        out = positional_add(store, y, Segments(4))
        np.testing.assert_array_equal(out.data, y.data)

    def test_rows_shift_by_table_difference(self):
        cfg = make_cfg()
        store = make_store(cfg, seed=5)
        y = Tensor(np.zeros((3, D)))
        out = positional_add(store, y, Segments(3))
        table = store["pos.table"].data
        np.testing.assert_allclose(out.data[2] - out.data[1], table[2] - table[1],
                                   atol=1e-12)

    def test_capacity_exceeded(self):
        cfg = make_cfg(max_len=3)
        store = make_store(cfg)
        y = Tensor(np.zeros((5, D)))
        with pytest.raises(CapacityError):
            positional_add(store, y, Segments(5))

    def test_gradient_hits_only_occupied_rows(self):
        cfg = make_cfg(blocks=1)
        store = make_store(cfg, seed=6)
        rng = np.random.default_rng(1)
        marks, times = random_sequence(rng, 3)
        store.zero_grads()
        segs = Segments(3)
        with GradTape() as tape:
            y = embed_actions(store, marks, times, segs)
            s = encode(store, cfg, y, segs)
            tape.backward(sum_all(s))
        g = store.grad("pos.table")
        assert np.any(g[:3] != 0.0)
        np.testing.assert_array_equal(g[3:], 0.0)


class TestAttention:
    def test_k1_output_is_projected_value(self):
        cfg = make_cfg(blocks=1)
        store = make_store(cfg, seed=8)
        x = Tensor(np.random.default_rng(2).normal(size=(1, D)))
        out = attention(store, cfg, x, Segments(1))
        v = x.data @ store["block0.attn.wv"].data
        expect = v @ store["block0.attn.wo"].data
        np.testing.assert_allclose(out.data, expect, atol=1e-12)

    def test_identical_keys_give_uniform_causal_weights(self):
        cfg = make_cfg(blocks=1)
        store = make_store(cfg, seed=9)
        store["block0.attn.wk"].data[:] = 0.0  # all scores collapse to 0
        x = Tensor(np.random.default_rng(3).normal(size=(3, D)))
        out = attention(store, cfg, x, Segments(3))
        v = x.data @ store["block0.attn.wv"].data
        for j in range(3):
            expect = v[: j + 1].mean(axis=0) @ store["block0.attn.wo"].data
            np.testing.assert_allclose(out.data[j], expect, atol=1e-12)

    def test_matches_brute_force_oracle(self):
        # five sequences of mixed lengths, packed into one call
        cfg = make_cfg(blocks=1, heads=2)
        store = make_store(cfg, seed=10)
        rng = np.random.default_rng(4)
        lens = rng.integers(1, 7, size=5)
        lens[0] = 1
        x_all = rng.normal(size=(int(lens.sum()), D))
        out_all = attention(store, cfg, Tensor(x_all), Segments(x_all.shape[0], lens)).data
        for n, end in zip(lens, np.cumsum(lens)):
            k = int(n)
            x, out = x_all[end - k:end], out_all[end - k:end]
            q = x @ store["block0.attn.wq"].data
            ky = x @ store["block0.attn.wk"].data
            v = x @ store["block0.attn.wv"].data
            dh = D // 2
            merged = np.zeros((k, D))
            for h in range(2):
                sl = slice(h * dh, (h + 1) * dh)
                scores = q[:, sl] @ ky[:, sl].T / np.sqrt(dh)
                weights = np.zeros((k, k))
                for j in range(k):
                    row = scores[j, : j + 1]
                    e = np.exp(row - row.max())
                    weights[j, : j + 1] = e / e.sum()
                merged[:, sl] = weights @ v[:, sl]
            expect = merged @ store["block0.attn.wo"].data
            np.testing.assert_allclose(out, expect, atol=1e-12)

    def test_masked_weights_are_exactly_zero(self):
        # one-hot values make each output row the row's attention weights;
        # future rows and rows of the other sequence must get exactly zero
        lens = [4, 3]
        rng = np.random.default_rng(5)
        q = Tensor(rng.normal(size=(7, D)) * 5.0)
        k = Tensor(rng.normal(size=(7, D)) * 5.0)
        v = Tensor(np.eye(7, D))
        weights = causal_attention(q, k, v, Segments(7, lens), 1).data[:, :7]
        seg = np.repeat([0, 1], lens)
        pos = np.array([0, 1, 2, 3, 0, 1, 2])
        visible = (seg[:, None] == seg[None, :]) & (pos[None, :] <= pos[:, None])
        assert np.all(weights[~visible] == 0.0)
        assert np.all(weights[visible] > 0.0)
        np.testing.assert_allclose(weights.sum(axis=1), 1.0, rtol=0, atol=1e-12)


class TestPacked:
    """A sequence's rows are the same alone and packed with others."""

    @pytest.mark.parametrize("ffn", ["summed", "standard"])
    def test_packed_rows_match_each_sequence_alone(self, ffn):
        cfg = make_cfg(ffn=ffn)
        store = make_store(cfg, seed=21, with_set=True)
        rng = np.random.default_rng(15)
        seqs = [random_sequence(rng, k) for k in (1, 7, 3, 11)]
        lens = [len(m) for m, _ in seqs]
        marks = np.concatenate([m for m, _ in seqs])
        # every sequence restarts its clock, so packed times are not monotone
        times = np.concatenate([t for _, t in seqs])
        segs = Segments(marks.size, lens)
        y = embed_actions(store, marks, times, segs)
        s = encode(store, cfg, y, segs).data
        x = set_embed(store, y, segs).data
        for (mk, t), end, k in zip(seqs, np.cumsum(lens), lens):
            one = Segments(k)
            y1 = embed_actions(store, mk, t, one)
            np.testing.assert_array_equal(y.data[end - k:end], y1.data)
            np.testing.assert_allclose(s[end - k:end], encode(store, cfg, y1, one).data,
                                       rtol=0, atol=1e-12)
            np.testing.assert_allclose(x[end - k:end], set_embed(store, y1, one).data,
                                       rtol=0, atol=1e-12)

    def test_capacity_applies_per_sequence(self):
        cfg = make_cfg(max_len=3)  # four positional rows
        store = make_store(cfg)
        out = positional_add(store, Tensor(np.zeros((8, D))), Segments(8, [4, 4]))
        np.testing.assert_array_equal(out.data[4:], out.data[:4])
        with pytest.raises(CapacityError):
            positional_add(store, Tensor(np.zeros((6, D))), Segments(6, [1, 5]))


class TestEncode:
    def test_shapes(self):
        cfg = make_cfg()
        store = make_store(cfg, seed=12)
        rng = np.random.default_rng(6)
        for k in (1, 2, 5, 12):
            marks, times = random_sequence(rng, k)
            segs = Segments(k)
            s = encode(store, cfg, embed_actions(store, marks, times, segs), segs)
            assert s.data.shape == (k, D)

    def test_empty_prefix_rejected(self):
        cfg = make_cfg()
        store = make_store(cfg)
        with pytest.raises(ValueError):
            encode(store, cfg, Tensor(np.zeros((0, D))), Segments(0))

    @pytest.mark.parametrize("ffn", ["summed", "standard"])
    def test_causality_is_exact(self, ffn):
        cfg = make_cfg(ffn=ffn)
        store = make_store(cfg, seed=13)
        rng = np.random.default_rng(7)
        for trial in range(20):
            k = int(rng.integers(2, 10))
            marks, times = random_sequence(rng, k)
            segs = Segments(k)
            y = embed_actions(store, marks, times, segs)
            s_full = encode(store, cfg, y, segs).data.copy()
            j = int(rng.integers(1, k))  # perturb strictly after index j-1
            y2 = Tensor(y.data.copy())
            y2.data[j:] += rng.normal(size=(k - j, D)) * 10.0
            s_pert = encode(store, cfg, y2, segs).data
            np.testing.assert_array_equal(s_pert[:j], s_full[:j])

    def test_rows_are_normalized_at_init(self):
        # fresh layer-norm gains are 1 and biases 0, so encode output rows
        # keep the normalized moments
        cfg = make_cfg()
        store = make_store(cfg, seed=14)
        rng = np.random.default_rng(8)
        marks, times = random_sequence(rng, 6)
        segs = Segments(6)
        s = encode(store, cfg, embed_actions(store, marks, times, segs), segs).data
        assert np.all(np.abs(s.mean(axis=1)) < 1e-10)
        np.testing.assert_allclose(s.var(axis=1), 1.0, atol=1e-6)

    def test_ffn_forms_disagree(self):
        rng = np.random.default_rng(9)
        marks, times = random_sequence(rng, 4)
        outs = {}
        for ffn in ("summed", "standard"):
            cfg = make_cfg(ffn=ffn, blocks=1)
            store = make_store(cfg, seed=15)
            segs = Segments(4)
            outs[ffn] = encode(store, cfg, embed_actions(store, marks, times, segs), segs).data
        assert np.any(np.abs(outs["summed"] - outs["standard"]) > 1e-6)

    def test_deterministic(self):
        cfg = make_cfg()
        store = make_store(cfg, seed=16)
        rng = np.random.default_rng(10)
        marks, times = random_sequence(rng, 5)
        segs = Segments(5)
        a = encode(store, cfg, embed_actions(store, marks, times, segs), segs).data
        b = encode(store, cfg, embed_actions(store, marks, times, segs), segs).data
        np.testing.assert_array_equal(a, b)


class TestSetEmbed:
    def test_permutation_invariant_summary(self):
        cfg = make_cfg()
        store = make_store(cfg, seed=17, with_set=True)
        rng = np.random.default_rng(11)
        for trial in range(20):
            k = int(rng.integers(2, 9))
            y = rng.normal(size=(k, D))
            perm = rng.permutation(k)
            x_a = set_embed(store, Tensor(y), Segments(k)).data
            x_b = set_embed(store, Tensor(y[perm]), Segments(k)).data
            # the full-prefix summary sums the same terms in another order
            np.testing.assert_allclose(x_b[-1], x_a[-1], atol=1e-9)

    def test_k1_matches_direct_formula(self):
        cfg = make_cfg()
        store = make_store(cfg, seed=18, with_set=True)
        y = np.random.default_rng(12).normal(size=(1, D))
        x = set_embed(store, Tensor(y), Segments(1)).data
        u = y @ store["set.w_in"].data + store["set.b_in"].data
        h = np.maximum(u @ store["set.w_hidden"].data + store["set.b_hidden"].data, 0.0)
        o = h @ store["set.w_out"].data + store["set.b_out"].data
        np.testing.assert_allclose(x[0], np.maximum(o[0], 0.0), atol=1e-12)

    def test_incremental_sum(self):
        cfg = make_cfg()
        store = make_store(cfg, seed=19, with_set=True)
        y = np.random.default_rng(13).normal(size=(3, D))
        x = set_embed(store, Tensor(y), Segments(3)).data
        contrib = set_embed(store, Tensor(y[2:3]), Segments(1)).data[0]
        np.testing.assert_allclose(x[2] - x[1], contrib, atol=1e-12)

    def test_shapes_and_nonnegativity(self):
        cfg = make_cfg()
        store = make_store(cfg, seed=20, with_set=True)
        y = np.random.default_rng(14).normal(size=(5, D))
        x = set_embed(store, Tensor(y), Segments(5)).data
        assert x.shape == (5, D)
        assert np.all(x >= 0.0)  # sums of relu outputs
        # prefix sums never shrink
        assert np.all(np.diff(x, axis=0) >= -1e-15)
