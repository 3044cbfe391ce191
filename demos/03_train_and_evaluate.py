"""Training a model and reading its evaluation report.

Runs the whole pipeline in-process on a small synthetic corpus: split,
cluster action durations, append terminal marks, train with Adam, then
score next-action prediction, early goal detection, and goal-conditioned
generation on the held-out split. Takes around half a minute.
"""

import math
import os

from actionflow.data import write_record
from actionflow.evaluation import full_report, majority_mark_baseline
from actionflow.model import ModelConfig
from actionflow.synth import GoalTemplate, SynthSpec, generate
from actionflow.training import TrainConfig, run_training

REPORT = os.path.join(os.path.dirname(__file__), "demo_report.json")


def corpus_spec():
    return SynthSpec(
        goals=[
            GoalTemplate(name="assemble", template=["pick", "align", "screw"],
                         mu=[0.0, math.log(4.0), 0.0],
                         sigma=[0.3, 0.3, 0.3], swap_pairs=[(0, 1)]),
            GoalTemplate(name="package", template=["fold", "tape", "label"],
                         mu=[math.log(4.0), 0.0, math.log(2.0)],
                         sigma=[0.3, 0.3, 0.3]),
        ],
        count=600, seed=21, swap_prob=0.1)


def main():
    corpus, vocab = generate(corpus_spec())
    model_cfg = ModelConfig(d=16, heads=2, blocks=2, clusters=3)
    train_cfg = TrainConfig(epochs=6, lr=3e-3, seed=0)

    print(f"training on {len(corpus)} sequences "
          f"({vocab.n_marks} marks, {vocab.n_goals} goals)...")
    model, prep, entries = run_training(corpus, vocab, model_cfg, train_cfg)
    for e in entries:
        print(f"  epoch {e['epoch']}: total {e['total']:8.4f} "
              f"(nll {e['nll']:7.4f}, goal {e['goal_ce']:6.4f}, "
              f"{e['seconds']:.1f}s)")

    print(f"\nduration clusters (marks sharing a typical gap):")
    for cluster in range(prep.clusters.m):
        members = [prep.vocab.mark_name(mk)
                   for mk, c in enumerate(prep.clusters.assignments)
                   if c == cluster]
        print(f"  cluster {cluster}: {members}")

    report = full_report(model, prep.test_raw, seed=0,
                         config_echo={"model": write_record(model.config),
                                      "train": write_record(train_cfg)})
    baseline = majority_mark_baseline(prep.train_raw, prep.test_raw)

    print(f"\nheld-out metrics over {report.transitions} transitions:")
    print(f"  next-mark accuracy:     {report.apa:.3f} "
          f"(majority baseline {baseline:.3f})")
    print(f"  mean abs time error:    {report.mae:.3f}")
    for frac, value in sorted(report.gpa_at.items()):
        print(f"  goal accuracy @ {frac:>3}:   {value:.3f}")
    print(f"  correct-length ratio:   {report.cl:.3f}")
    print(f"  generation stop reasons: {report.generation['reasons']}")

    report.save(REPORT)
    print(f"\nfull report (with per-sequence records) -> {REPORT}")


if __name__ == "__main__":
    main()
