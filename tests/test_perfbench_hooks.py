"""The benchmark's tracer and probe swap package attributes by name.

perfbench/tracing.py replaces ``owner.__dict__[attr]`` with a timing
wrapper, so renaming or deleting any hooked function breaks a traced
benchmark run. These tests fail first instead.
"""

import os
import sys

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "perfbench")


@pytest.fixture(scope="module")
def tracing():
    sys.path.insert(0, PERFBENCH)
    try:
        import tracing
    finally:
        sys.path.remove(PERFBENCH)
    return tracing


def test_every_layer_call_target_exists(tracing):
    missing = [f"{owner.__name__}.{attr}" for owner, attr, _, _ in tracing.LAYER_CALLS
               if attr not in owner.__dict__]
    assert missing == []


def test_probe_hook_targets_exist(tracing):
    training = tracing.training
    for owner, attr in ((training, "total_loss"), (training.Adam, "update"),
                        (training, "save_checkpoint")):
        assert attr in owner.__dict__, f"{owner.__name__}.{attr}"


def test_traced_smoke_run_records_every_span(tracing, tmp_path):
    """A tiny train, eval and generate under the Tracer.

    Each span's attribute reads call arguments by position (``encoder.encode``
    reads ``args[2]``, for one), so a moved argument fails here even though
    the hooked names still exist.
    """
    from actionflow import data, evaluation, generation, synth, training
    from actionflow.model import ModelConfig

    spec = synth.SynthSpec(
        goals=[
            synth.GoalTemplate(name="g0", template=["a", "b", "c"],
                               mu=[0.0, 0.5, 1.0], sigma=[0.3] * 3),
            synth.GoalTemplate(name="g1", template=["d", "e", "f"],
                               mu=[1.0, 0.0, 0.5], sigma=[0.3] * 3),
        ],
        count=12, seed=4)
    model_cfg = ModelConfig(d=4, heads=2, blocks=1, clusters=2, variant="plus")
    train_cfg = training.TrainConfig(epochs=1, batch_size=4, seed=0)
    corpus_path = tmp_path / "corpus.jsonl"
    tracer = tracing.Tracer().install()
    try:
        corpus, vocab = synth.generate(spec)
        data.write_corpus(corpus, vocab, corpus_path)
        corpus, vocab = data.load_corpus(corpus_path)
        prep = training.prepare(corpus, vocab, model_cfg, train_cfg)
        training.train(prep.train_aug, prep.vocab, prep.clusters, prep.model_config,
                       train_cfg, ckpt_dir=str(tmp_path / "run"))
        model = training.load_checkpoint(tmp_path / "run" / "final.json").model
        evaluation.full_report(model, prep.test_raw, with_generation=False)
        generation.generate(model, generation.GenRequest(goal=0, first_mark=0, mode="greedy"))
    finally:
        tracer.uninstall()
    missing = {name for _, _, name, _ in tracing.LAYER_CALLS} - set(tracer.name)
    assert missing == set()
    metrics = tracing.layer_metrics(tracer)
    assert metrics["model.forward_calls_per_eval_seq"] == 1
    assert metrics["numerics.tape_records_per_seq"] > 0
    assert metrics["encoder.rows_per_call"] > 0
