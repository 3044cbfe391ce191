"""Release acceptance suite: one test and one printed summary line per
criterion. The slow data-driven criteria share a single trained model.

Runtimes worth knowing: the shared fixture trains on a 2000-sequence
synthetic corpus (a few minutes); the gradient-fidelity check runs central
differences over every parameter of a small full model (seconds).
"""

import math
import time
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import integrate

from actionflow.data import Action, Ctas, ClusterMap, Vocab, delete_random
from actionflow.encoder import embed_actions, set_embed
from actionflow.evaluation import (
    full_report,
    generation_eval,
    goal_eval,
    majority_mark_baseline,
    next_action_eval,
    teacher_forced,
)
from actionflow.heads import TimeDensity, log_density, sample_time
from actionflow.model import Model, ModelConfig
from actionflow.numerics import Tensor, finite_difference_check
from actionflow.objectives import discounted_goal_ce, hinge_sum, total_loss
from actionflow.synth import GoalTemplate, SynthSpec
from actionflow.synth import generate as synth_generate
from actionflow.training import TrainConfig, prepare, run_training, train

# ground truth for the recovery corpus: every mark has a lognormal gap
# whose median is one of exactly two durations, giving two clean clusters
FAST = 1.0
SLOW = 8.0
MARK_MEDIANS = {"a1": FAST, "a2": SLOW, "a3": FAST,
                "b1": SLOW, "b2": FAST, "b3": SLOW}

RECOVERY_EPOCHS = 12
RECOVERY_LR = 3e-3
RECOVERY_BUDGET_SECONDS = 900.0


def recovery_spec(count=2000, seed=13):
    mu = {name: math.log(v) for name, v in MARK_MEDIANS.items()}
    tpl_a = ["a1", "a2", "a3", "a1", "a2", "a3"]
    tpl_b = ["b1", "b2", "b3", "b1", "b2", "b3"]
    return SynthSpec(
        goals=[
            GoalTemplate(name="ga", template=tpl_a,
                         mu=[mu[m] for m in tpl_a], sigma=[0.25] * 6),
            GoalTemplate(name="gb", template=tpl_b,
                         mu=[mu[m] for m in tpl_b], sigma=[0.25] * 6),
        ],
        count=count, seed=seed)


@pytest.fixture(scope="module")
def trained():
    corpus, vocab = synth_generate(recovery_spec())
    tcfg = TrainConfig(epochs=RECOVERY_EPOCHS, lr=RECOVERY_LR, seed=0)
    prep = prepare(corpus, vocab, ModelConfig(clusters=2), tcfg)
    init_model = Model.init(prep.model_config, prep.vocab, prep.clusters,
                            seed=tcfg.seed)
    _, bd_init = total_loss(init_model, prep.train_aug, gamma=tcfg.gamma,
                            margin_weight=tcfg.margin_weight,
                            l2_coeff=tcfg.l2_coeff)
    started = time.perf_counter()
    model, entries = train(prep.train_aug, prep.vocab, prep.clusters,
                           prep.model_config, tcfg)
    seconds = time.perf_counter() - started
    _, bd_trained = total_loss(model, prep.train_aug, gamma=tcfg.gamma,
                               margin_weight=tcfg.margin_weight,
                               l2_coeff=tcfg.l2_coeff)
    return SimpleNamespace(model=model, prep=prep, entries=entries,
                           seconds=seconds,
                           margin_init=bd_init.margin_goal,
                           margin_trained=bd_trained.margin_goal)


@pytest.fixture
def announce(capsys):
    def _announce(number, name, ok, details):
        with capsys.disabled():
            print(f"criterion {number:2d} {name}: "
                  f"{'PASS' if ok else 'FAIL'} ({details})")
    return _announce


def small_model(variant="base", seed=0, d=4, heads=2, blocks=1, clusters=2,
                max_len=8, n_marks=3, **kwargs):
    names = [f"m{i}" for i in range(n_marks)]
    vocab = Vocab(names, ["g0", "g1"],
                  goal_marks={0: tuple(range(n_marks // 2 + 1)),
                              1: tuple(range(n_marks // 2, n_marks))})
    cm = ClusterMap(m=clusters,
                    mark_to_cluster={i: i % clusters for i in range(vocab.n_marks)})
    cfg = ModelConfig(d=d, heads=heads, blocks=blocks, clusters=clusters,
                      max_len=max_len, variant=variant, **kwargs)
    return Model.init(cfg, vocab, cm, seed=seed)


def random_sequence(rng, n_marks, length, goal=0, sid="s"):
    marks = rng.integers(0, n_marks, size=length)
    times = np.cumsum(rng.uniform(0.2, 1.5, size=length))
    return Ctas(id=sid, goal=goal,
                actions=[Action(int(m), float(t)) for m, t in zip(marks, times)])


def test_criterion_01_gradient_fidelity(announce):
    model = small_model(variant="plus", seed=21, clusters=2)
    rng = np.random.default_rng(21)
    marks = [0, 2, 1, 0, model.vocab.eos_id]
    times = np.cumsum(rng.uniform(0.3, 1.5, size=5))
    seq = Ctas(id="fd", goal=0,
               actions=[Action(m, float(t)) for m, t in zip(marks, times)])

    def loss_fn(_store):
        total, _ = total_loss(model, [seq], gamma=0.9, margin_weight=0.1,
                              l2_coeff=0.001)
        return total

    started = time.perf_counter()
    report = finite_difference_check(loss_fn, model.store)
    seconds = time.perf_counter() - started
    ok = report.max_rel_err < 1e-4 and seconds < 10.0
    announce(1, "gradient fidelity", ok,
             f"max rel err {report.max_rel_err:.2e} over "
             f"{len(report.per_param)} params in {seconds:.1f}s")
    assert report.max_rel_err < 1e-4
    assert seconds < 10.0


def test_criterion_02_causal_masking(announce):
    rng = np.random.default_rng(2)
    worst = 0.0
    for trial in range(100):
        model = small_model(seed=trial % 7, d=8, blocks=2, max_len=12)
        length = int(rng.integers(3, 9))
        prefix_end = int(rng.integers(0, length - 1))
        future = int(rng.integers(prefix_end + 1, length))
        marks = rng.integers(0, 3, size=length)
        times = np.cumsum(rng.uniform(0.2, 1.5, size=length))
        base = model.encode(marks, times).s.data.copy()
        marks2 = marks.copy()
        marks2[future] = (marks2[future] + 1) % 3
        times2 = times.copy()
        times2[future:] += 0.37  # keeps times increasing past the edit
        changed = model.encode(marks2, times2).s.data
        diff = np.max(np.abs(changed[:prefix_end + 1] - base[:prefix_end + 1]))
        worst = max(worst, diff)
        np.testing.assert_array_equal(changed[:prefix_end + 1],
                                      base[:prefix_end + 1])
    announce(2, "causal masking", worst == 0.0,
             f"100 prefix perturbations, max leak {worst:.1e}")
    assert worst == 0.0


def test_criterion_03_permutation_invariance(announce):
    rng = np.random.default_rng(3)
    worst = 0.0
    for trial in range(100):
        model = small_model(variant="plus", seed=trial % 5, d=8, max_len=12)
        length = int(rng.integers(2, 9))
        marks = rng.integers(0, 3, size=length)
        times = np.cumsum(rng.uniform(0.2, 1.5, size=length))
        perm = rng.permutation(length)
        y = embed_actions(model.store, marks, times)
        x = set_embed(model.store, y).data[-1]
        x_perm = set_embed(model.store, Tensor(y.data[perm])).data[-1]
        worst = max(worst, float(np.max(np.abs(x_perm - x))))
    assert worst < 1e-9

    identical = True
    for seed in range(5):
        base = small_model(variant="base", seed=seed, max_len=8)
        plus = small_model(variant="plus", seed=seed, max_len=8,
                           alpha_mark=0.0, alpha_time=0.0, alpha_goal=0.0)
        seq = random_sequence(np.random.default_rng(seed), 3, 5)
        fb = base.forward(seq.marks(), seq.times())
        fp = plus.forward(seq.marks(), seq.times())
        for attr in ("mark_prob", "goal_prob", "mu", "sigma2"):
            if getattr(fb, attr).data.tobytes() != getattr(fp, attr).data.tobytes():
                identical = False
    ok = worst < 1e-9 and identical
    announce(3, "order-invariant summary", ok,
             f"max perm drift {worst:.1e}; zero-blend bit-identity "
             f"{'holds' if identical else 'broken'}")
    assert identical


def test_criterion_04_lognormal_correctness(announce):
    rng = np.random.default_rng(4)
    worst_mass = 0.0
    for _ in range(20):
        td = TimeDensity(mu=float(rng.uniform(-1.0, 1.5)),
                         sigma2=float(rng.uniform(0.05, 0.8)))
        mass, _ = integrate.quad(lambda d: math.exp(log_density(td, d)),
                                 0.0, np.inf)
        worst_mass = max(worst_mass, abs(mass - 1.0))
    assert worst_mass < 1e-6

    worst_median = 0.0
    worst_mean = 0.0
    for _ in range(5):
        td = TimeDensity(mu=float(rng.uniform(-1.0, 1.5)),
                         sigma2=float(rng.uniform(0.05, 0.8)))
        draws = np.array([sample_time(td, rng) for _ in range(100_000)])
        med_err = abs(np.median(draws) / math.exp(td.mu) - 1.0)
        mean_err = abs(np.mean(draws) / math.exp(td.mu + td.sigma2 / 2) - 1.0)
        worst_median = max(worst_median, med_err)
        worst_mean = max(worst_mean, mean_err)
    ok = worst_mass < 1e-6 and worst_median < 0.01 and worst_mean < 0.02
    announce(4, "lognormal correctness", ok,
             f"unit-mass err {worst_mass:.1e}, median err {worst_median:.2%}, "
             f"mean err {worst_mean:.2%}")
    assert worst_median < 0.01
    assert worst_mean < 0.02


def test_criterion_05_loss_identities(announce):
    worst_ce = 0.0
    for seed in range(20):
        model = small_model(seed=seed)
        seq = random_sequence(np.random.default_rng(seed), 3,
                              int(3 + seed % 4), goal=seed % 2)
        fwd = model.forward(seq.marks(), seq.times())
        discounted = float(discounted_goal_ce(model, [seq], 1.0, fwd=fwd).data[0])
        plain = -float(np.sum(fwd.goal_logprob.data[:, seq.goal]))
        worst_ce = max(worst_ce, abs(discounted - plain))
        assert float(discounted_goal_ce(model, [seq], 0.0, fwd=fwd).data[0]) == 0.0
    assert worst_ce < 1e-12

    rng = np.random.default_rng(55)
    nonzero = 0
    for _ in range(1000):
        rows = int(rng.integers(2, 9))
        cols = int(rng.integers(1, 4))
        monotone = np.sort(rng.uniform(0.0, 1.0, size=(rows, cols)), axis=0)
        if float(hinge_sum(Tensor(monotone)).data[0]) != 0.0:
            nonzero += 1
    ok = worst_ce < 1e-12 and nonzero == 0
    announce(5, "loss identities", ok,
             f"gamma-1 gap {worst_ce:.1e}; {nonzero}/1000 monotone "
             f"sequences penalized")
    assert nonzero == 0


def test_criterion_06_parameter_recovery(trained, announce):
    prep = trained.prep
    model = trained.model
    per_cluster: dict[int, list[float]] = {r: [] for r in range(prep.clusters.m)}
    for seq in prep.test_raw:
        marks = seq.marks()
        fwd = model.forward(marks, seq.times())
        for k in range(len(marks) - 1):
            cluster = prep.clusters.mark_to_cluster[int(marks[k])]
            per_cluster[cluster].append(float(np.exp(fwd.mu.data[k, 0])))
    errors = {}
    for cluster, predictions in per_cluster.items():
        members = [prep.vocab.mark_name(mk)
                   for mk, c in prep.clusters.mark_to_cluster.items()
                   if c == cluster and mk != prep.vocab.eos_id]
        truths = {MARK_MEDIANS[m] for m in members}
        assert len(truths) == 1, f"cluster {cluster} mixes durations {truths}"
        truth = truths.pop()
        learned = float(np.median(predictions))
        errors[truth] = abs(learned / truth - 1.0)
    ok = all(err < 0.15 for err in errors.values()) \
        and trained.seconds < RECOVERY_BUDGET_SECONDS
    detail = ", ".join(f"target {t:g}: off by {e:.1%}"
                       for t, e in sorted(errors.items()))
    announce(6, "duration recovery", ok,
             f"{detail}; trained in {trained.seconds:.0f}s")
    for err in errors.values():
        assert err < 0.15
    assert trained.seconds < RECOVERY_BUDGET_SECONDS


def test_criterion_07_goal_detection(trained, announce):
    prep = trained.prep
    passes = teacher_forced(trained.model, prep.test_raw)
    gpa = goal_eval(passes)["gpa_at"]
    apa = next_action_eval(passes)["apa"]
    baseline = majority_mark_baseline(prep.train_raw, prep.test_raw)
    ok = gpa["1"] >= 0.95 and gpa["0.6"] >= 0.8 and apa - baseline >= 0.15
    announce(7, "goal detection", ok,
             f"gpa@1 {gpa['1']:.3f}, gpa@0.6 {gpa['0.6']:.3f}, "
             f"apa {apa:.3f} vs baseline {baseline:.3f}")
    assert gpa["1"] >= 0.95
    assert gpa["0.6"] >= 0.8
    assert apa - baseline >= 0.15


def test_criterion_08_early_detection_pressure(trained, announce):
    ratio = trained.margin_trained / trained.margin_init
    ok = ratio < 0.25
    announce(8, "early-detection pressure", ok,
             f"training-set goal margin fell to {ratio:.1%} of its "
             f"initial value")
    assert ratio < 0.25


def test_criterion_09_generation_quality(trained, announce):
    prep = trained.prep
    truths = list(prep.test_raw) + list(prep.train_raw[:1000 - len(prep.test_raw)])
    assert len(truths) == 1000
    result = generation_eval(trained.model, truths, seed=0)
    finished = sum(result["reasons"].values())
    cap = trained.model.config.max_len
    over_cap = sum(1 for r in result["per_sequence"] if r["gen_len"] > cap)
    ok = finished == 1000 and over_cap == 0 \
        and result["cl"] >= 0.5 and result["apa"] >= 0.6
    announce(9, "generation quality", ok,
             f"{finished}/1000 terminated, correct-length {result['cl']:.3f}, "
             f"mark fidelity {result['apa']:.3f}")
    assert finished == 1000
    assert over_cap == 0
    assert result["cl"] >= 0.5
    assert result["apa"] >= 0.6


def test_criterion_10_determinism(announce):
    def pipeline():
        corpus, vocab = synth_generate(recovery_spec(count=40, seed=3))
        mcfg = ModelConfig(d=8, heads=2, blocks=1, clusters=2)
        tcfg = TrainConfig(epochs=2, seed=1, lr=3e-3)
        model, prep, _ = run_training(corpus, vocab, mcfg, tcfg)
        report = full_report(model, prep.test_raw, seed=0,
                             config_echo={"model": model.config.to_dict(),
                                          "train": tcfg.to_dict()})
        return report.json_bytes()

    first = pipeline()
    second = pipeline()
    ok = first == second
    announce(10, "determinism", ok,
             f"two seed-fixed train+eval runs, {len(first)} report bytes "
             f"{'identical' if ok else 'differ'}")
    assert first == second


def test_criterion_11_deletion_robustness(announce):
    corpus, vocab = synth_generate(recovery_spec(count=150, seed=17))
    summaries = []
    for fraction in (0.4, 0.6):
        thinned = delete_random(corpus, fraction, seed=0)
        assert len(thinned) == len(corpus)
        for seq in thinned:
            seq.validate()
        mcfg = ModelConfig(d=8, heads=2, blocks=1, clusters=2)
        tcfg = TrainConfig(epochs=2, seed=0, lr=3e-3)
        model, prep, _ = run_training(thinned, vocab, mcfg, tcfg)
        report = full_report(model, prep.test_raw, seed=0)
        assert 0.0 <= report.apa <= 1.0
        assert report.mae >= 0.0 and math.isfinite(report.mae)
        assert all(0.0 <= v <= 1.0 for v in report.gpa_at.values())
        assert 0.0 <= report.cl <= 1.0
        summaries.append(f"{fraction:.0%} deleted -> apa {report.apa:.2f}")
    announce(11, "deletion robustness", True, "; ".join(summaries))
