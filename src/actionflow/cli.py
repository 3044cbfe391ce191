"""One executable for the whole workflow.

Subcommands: synth, train, eval, generate, gradcheck, sweep, ablate-delete.
Every failure prints one line to stderr of the form ``E_CODE: message`` and
exits nonzero; the codes are stable so scripts can branch on them:

* E_USAGE     bad flags or flag values, such as a negative ``--seed`` for
              any subcommand (exit 2)
* E_PARSE     malformed JSON / JSONL input
* E_DATA      schema-valid input violating data invariants, missing files
* E_CONFIG    invalid configuration values or unknown keys
* E_NO_CKPT   checkpoint path missing or unreadable, a field of the wrong
              type or out of range, a vector that is not base64 of a whole
              number of finite float64 values, or parameters that do not
              fit the model its config builds
* E_NUMERIC   a non-finite value in training, evaluation or generation
* E_GRADCHECK gradient check exceeded tolerance

Configuration comes from one JSON file with three optional sections:
``{"model": {...}, "train": {...}, "data": {...}}``. Flags override the
file. The data section knows ``corpus`` (path) and ``train_fraction``.

Log records of the ``actionflow`` loggers go to stderr as ``LEVEL: message``;
every subcommand takes ``--log-level`` (default WARNING) and ``-v`` (INFO:
epoch totals, the cluster-count notice, corpus loading).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import logging
import math
import os
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from .data import (Action, ClusterMap, Ctas, DataError, ParseError, Vocab,
                   append_eos, delete_random, load_corpus, read_record,
                   remap_corpus, write_corpus, write_record)
from .encoder import CapacityError
from .evaluation import (DEFAULT_PREFIXES, full_report, sensitivity_sweep,
                         write_sweep_csv)
from .generation import GenRequest, core_actions, generate
from .model import Model, ModelConfig
from .numerics import NumericError, ShapeError, finite_difference_check
from .objectives import total_loss
from .synth import SynthSpec, SynthSpecError
from .synth import generate as synth_generate
from .training import (Checkpoint, TrainConfig, TrainingDiverged, load_checkpoint,
                       prepare, train)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_USAGE = 2


class CliError(Exception):
    """Carries a machine-parsable code alongside the human message."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


# ---------------------------------------------------------------------------
# run configuration
# ---------------------------------------------------------------------------

@dataclass
class DataSection:
    """The run config's data section: default corpus path and split fraction."""

    corpus: str | None = None
    train_fraction: float = 0.8

    def validate(self) -> None:
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError(f"train_fraction must lie in (0, 1), got {self.train_fraction}")


@dataclass
class RunConfig:
    """Model + training + data settings from one JSON file."""

    model: ModelConfig = field(default_factory=ModelConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    data: DataSection = field(default_factory=DataSection)


def _read_json(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise CliError("E_DATA", f"no such file: {path}") from None
    except json.JSONDecodeError as e:
        raise CliError("E_PARSE", f"{path}: {e}") from None


def _load_run_config(args) -> RunConfig:
    """The run config with the --seed/--epochs flags applied, all validated
    before any command writes a file."""
    if getattr(args, "seed", None) is not None:
        _check_seed(args.seed)
    cfg = (read_record(RunConfig, _read_json(args.config), "run config") if args.config
           else RunConfig())
    overrides = {name: getattr(args, name) for name in ("seed", "epochs")
                 if getattr(args, name, None) is not None}
    if overrides:
        cfg.train = replace(cfg.train, **overrides)
        cfg.train.validate()
    return cfg


def _resolve_checkpoint(path) -> str:
    """Accept either a checkpoint file or a training output directory."""
    if os.path.isdir(path):
        for name in ("final.json", "best.json"):
            candidate = os.path.join(path, name)
            if os.path.isfile(candidate):
                return candidate
        raise CliError("E_NO_CKPT", f"no checkpoint file under {path}")
    if not os.path.isfile(path):
        raise CliError("E_NO_CKPT", f"no checkpoint at {path}")
    return path


def _load_checkpoint(path) -> Checkpoint:
    """Load a checkpoint file or directory; anything unreadable is E_NO_CKPT.

    Malformed JSON, a field of the wrong type or out of range, and a file
    whose parameters do not fit its model config all raise ValueError.
    """
    path = _resolve_checkpoint(path)
    try:
        return load_checkpoint(path)
    except ValueError as e:
        raise CliError("E_NO_CKPT",
                       f"unreadable checkpoint {path}: {type(e).__name__}: {e}") from None


def _check_seed(seed: int) -> None:
    """numpy's generators take only non-negative seeds; refuse others up front."""
    if seed < 0:
        raise CliError("E_USAGE", f"--seed must be non-negative, got {seed}")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_synth(args) -> int:
    spec = SynthSpec.from_dict(_read_json(args.spec))
    corpus, vocab = synth_generate(spec)
    write_corpus(corpus, vocab, args.out)
    print(f"wrote {len(corpus)} sequences to {args.out}")
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = _load_run_config(args)
    corpus, vocab = load_corpus(args.data)
    do_split = not args.no_split
    prep = prepare(corpus, vocab, cfg.model, cfg.train,
                   do_split=do_split, train_fraction=cfg.data.train_fraction)
    os.makedirs(args.out, exist_ok=True)
    if do_split:
        test_path = os.path.join(args.out, "test.jsonl")
        write_corpus(prep.test_raw, prep.vocab, test_path)
        print(f"held out {len(prep.test_raw)} sequences to {test_path}")
    model, entries = train(prep.train_aug, prep.vocab, prep.clusters,
                           prep.model_config, cfg.train, ckpt_dir=args.out)
    last = entries[-1]
    print(f"trained {cfg.train.epochs} epochs on {len(prep.train_raw)} sequences; "
          f"final total {last['total']:.6f} -> {os.path.join(args.out, 'final.json')}")
    return EXIT_OK


def _parse_prefixes(text: str) -> tuple[float, ...]:
    """Comma-separated fractions, each in (0, 1]; nan and inf are refused."""
    try:
        fractions = tuple(float(p) for p in text.split(",") if p.strip())
    except ValueError:
        raise CliError("E_USAGE", f"bad --prefixes value {text!r}") from None
    if not fractions:
        raise CliError("E_USAGE", "empty --prefixes value")
    for f in fractions:
        if not 0.0 < f <= 1.0:
            raise CliError("E_USAGE", f"--prefixes fractions must lie in (0, 1], got {f}")
    return fractions


def cmd_eval(args) -> int:
    _check_seed(args.seed)
    prefixes = _parse_prefixes(args.prefixes) if args.prefixes else DEFAULT_PREFIXES
    ckpt = _load_checkpoint(args.ckpt)
    model = ckpt.model
    raw, file_vocab = load_corpus(args.data)
    # ids in the file follow its own interning order; line them up by name
    test = remap_corpus(raw, file_vocab, model.vocab)
    echo = {"model": write_record(model.config),
            "train": None if ckpt.train_config is None else write_record(ckpt.train_config)}
    report = full_report(model, test, seed=args.seed, prefix_fractions=prefixes,
                         config_echo=echo, with_generation=not args.skip_generation)
    report.save(args.report)
    gpa = " ".join(f"gpa@{k}={v:.4f}" for k, v in sorted(report.gpa_at.items()))
    cl = "skipped" if report.cl is None else f"{report.cl:.4f}"
    print(f"apa={report.apa:.4f} mae={report.mae:.4f} {gpa} cl={cl} -> {args.report}")
    return EXIT_OK


def cmd_generate(args) -> int:
    if args.count < 1:
        raise CliError("E_USAGE", f"--count must be at least 1, got {args.count}")
    _check_seed(args.seed)
    ckpt = _load_checkpoint(args.ckpt)
    model = ckpt.model
    goal = model.vocab.goal_id(args.goal)
    first = model.vocab.mark_id(args.first_mark)
    if first == model.vocab.eos_id:
        raise CliError("E_DATA", "first mark cannot be the terminal mark")
    mode = "greedy" if args.greedy else "stochastic"
    sequences = []
    reasons = {}
    for i in range(args.count):
        rng = np.random.default_rng([args.seed, i])
        request = GenRequest(goal=goal, first_mark=first, first_t=args.first_t,
                             seed=args.seed, mode=mode)
        seq, reason = generate(model, request, rng=rng, seq_id=f"gen{i:06d}")
        core = core_actions(seq, model.vocab.eos_id)
        sequences.append(Ctas(id=seq.id, goal=seq.goal, actions=core))
        reasons[seq.id] = reason
    write_corpus(sequences, model.vocab, args.out)
    sidecar = f"{args.out}.reasons.json"
    with open(sidecar, "w", encoding="utf-8") as fh:
        json.dump({"version": 1, "reasons": reasons}, fh, sort_keys=True, indent=2)
        fh.write("\n")
    print(f"wrote {len(sequences)} sequences to {args.out} (reasons in {sidecar})")
    return EXIT_OK


def _gradcheck_model(cfg: RunConfig) -> tuple[Model, Ctas]:
    """A tiny self-contained model + sequence for checking gradients."""
    vocab = Vocab(["a", "b", "c"], ["g0", "g1"], goal_marks=[(0, 1), (1, 2)])
    m = cfg.model.clusters
    clusters = ClusterMap(m=m, assignments=[i % m for i in range(vocab.n_marks)])
    rng = np.random.default_rng([cfg.train.seed, 2])
    marks = [int(rng.integers(0, vocab.eos_id)) for _ in range(4)]
    times = np.cumsum(rng.uniform(0.2, 1.5, size=4))
    seq = Ctas(id="gradcheck", goal=0,
               actions=[Action(mk, float(t)) for mk, t in zip(marks, times)])
    seq = append_eos(seq, eos_gap=1.0, eos_id=vocab.eos_id)
    model_cfg = cfg.model
    if model_cfg.max_len is None:
        model_cfg = replace(model_cfg, max_len=len(seq.actions))
    model = Model.init(model_cfg, vocab, clusters, seed=cfg.train.seed)
    return model, seq


def cmd_gradcheck(args) -> int:
    if not 0.0 < args.tol < math.inf:  # a nan tolerance would pass every error
        raise CliError("E_USAGE", f"--tol must be finite and positive, got {args.tol}")
    cfg = _load_run_config(args)
    model, seq = _gradcheck_model(cfg)

    def loss_fn(_store):
        total, _ = total_loss(model, [seq], gamma=cfg.train.gamma,
                              margin_weight=cfg.train.margin_weight,
                              l2_coeff=cfg.train.l2_coeff)
        return total

    report = finite_difference_check(loss_fn, model.store)
    if report.max_rel_err > args.tol:
        raise CliError("E_GRADCHECK",
                       f"max relative error {report.max_rel_err:.3e} exceeds "
                       f"tolerance {args.tol:.3e} (worst: {report.worst_param})")
    print(f"gradcheck ok: max relative error {report.max_rel_err:.3e} "
          f"over {len(report.per_param)} parameters (tol {args.tol:.1e})")
    return EXIT_OK


def cmd_sweep(args) -> int:
    if args.workers < 1:
        raise CliError("E_USAGE", f"--workers must be at least 1, got {args.workers}")
    cfg = _load_run_config(args)
    grid = _read_json(args.grid)
    if not isinstance(grid, dict):
        raise CliError("E_CONFIG", "sweep grid must be a JSON object of key -> list")
    corpus_path = args.data or cfg.data.corpus
    if not corpus_path:
        raise CliError("E_CONFIG", "no corpus: pass --data or set data.corpus in the config")
    if not os.path.isfile(corpus_path):
        raise CliError("E_DATA", f"no such file: {corpus_path}")
    rows, keys = sensitivity_sweep(corpus_path, write_record(cfg.model),
                                   write_record(cfg.train), grid, workers=args.workers,
                                   train_fraction=cfg.data.train_fraction)
    write_sweep_csv(rows, keys, args.out)
    failed = sum(1 for r in rows if r["status"] != "ok")
    print(f"swept {len(rows)} points ({failed} failed) -> {args.out}")
    return EXIT_OK


def cmd_ablate_delete(args) -> int:
    _check_seed(args.seed)
    corpus, vocab = load_corpus(args.data)
    thinned = delete_random(corpus, args.fraction, seed=args.seed)
    write_corpus(thinned, vocab, args.out)
    kept = sum(len(s.actions) for s in thinned)
    total = sum(len(s.actions) for s in corpus)
    print(f"kept {kept}/{total} actions across {len(thinned)} sequences -> {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"E_USAGE: {message}\n")


LOG_LEVELS = ("DEBUG", "INFO", "WARNING", "ERROR")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="actionflow",
                     description="Train, evaluate, and sample action-sequence models.")
    logs = argparse.ArgumentParser(add_help=False)
    logs.add_argument("--log-level", choices=LOG_LEVELS, default="WARNING",
                      help="least severe log records printed to stderr (default WARNING)")
    logs.add_argument("-v", "--verbose", dest="log_level", action="store_const",
                      const="INFO", help="same as --log-level INFO")
    sub = parser.add_subparsers(dest="command", required=True)
    add_parser = functools.partial(sub.add_parser, parents=[logs])

    p = add_parser("synth", help="generate a synthetic corpus from a template spec")
    p.add_argument("--spec", required=True, help="synthesis spec JSON")
    p.add_argument("--out", required=True, help="output corpus JSONL")
    p.set_defaults(func=cmd_synth)

    p = add_parser("train", help="train a model on a corpus")
    p.add_argument("--data", required=True, help="corpus JSONL")
    p.add_argument("--config", help="run config JSON (model/train/data sections)")
    p.add_argument("--out", required=True, help="checkpoint directory")
    p.add_argument("--no-split", action="store_true",
                   help="train on the whole corpus instead of holding out 20%%")
    p.add_argument("--seed", type=int, help="override the training seed")
    p.add_argument("--epochs", type=int, help="override the epoch count")
    p.set_defaults(func=cmd_train)

    p = add_parser("eval", help="evaluate a checkpoint on a test corpus")
    p.add_argument("--ckpt", required=True, help="checkpoint file or training output directory")
    p.add_argument("--data", required=True, help="test corpus JSONL")
    p.add_argument("--report", required=True, help="output report JSON")
    p.add_argument("--prefixes", help="comma-separated goal-detection prefixes, e.g. 0.3,0.6")
    p.add_argument("--seed", type=int, default=0, help="generation rng seed")
    p.add_argument("--skip-generation", action="store_true",
                   help="skip the (slower) generation comparison")
    p.set_defaults(func=cmd_eval)

    p = add_parser("generate", help="sample sequences for a goal")
    p.add_argument("--ckpt", required=True, help="checkpoint file or training output directory")
    p.add_argument("--goal", required=True, help="goal name")
    p.add_argument("--first-mark", required=True, help="name of the seed action")
    p.add_argument("--first-t", type=float, default=0.0, help="time of the seed action")
    p.add_argument("--greedy", action="store_true", help="argmax marks and median gaps")
    p.add_argument("--count", type=int, default=1, help="number of sequences")
    p.add_argument("--seed", type=int, default=0, help="sampling rng seed")
    p.add_argument("--out", required=True, help="output JSONL (terminal mark stripped)")
    p.set_defaults(func=cmd_generate)

    p = add_parser("gradcheck", help="finite-difference check on a tiny random model")
    p.add_argument("--config", help="run config JSON")
    p.add_argument("--tol", type=float, default=1e-4, help="max allowed relative error")
    p.add_argument("--seed", type=int, help="override the init seed")
    p.set_defaults(func=cmd_gradcheck)

    p = add_parser("sweep", help="train and evaluate over a hyperparameter grid")
    p.add_argument("--config", help="run config JSON; data.corpus names the corpus")
    p.add_argument("--grid", required=True, help="grid JSON: {key: [values, ...]}")
    p.add_argument("--data", help="corpus JSONL (overrides data.corpus)")
    p.add_argument("--out", required=True, help="output CSV")
    p.add_argument("--workers", type=int, default=1, help="parallel training processes")
    p.set_defaults(func=cmd_sweep)

    p = add_parser("ablate-delete", help="randomly delete actions from a corpus")
    p.add_argument("--data", required=True, help="corpus JSONL")
    p.add_argument("--fraction", type=float, required=True, help="fraction of actions to delete")
    p.add_argument("--seed", type=int, default=0, help="deletion rng seed")
    p.add_argument("--out", required=True, help="output corpus JSONL")
    p.set_defaults(func=cmd_ablate_delete)

    return parser


@contextlib.contextmanager
def _log_to_stderr(level: str):
    """Print the package's log records of ``level`` and above to stderr,
    one ``LEVEL: message`` line each, while the block runs."""
    logger = logging.getLogger("actionflow")
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s: %(message)s"))
    previous = logger.level
    logger.addHandler(handler)
    logger.setLevel(level)
    try:
        yield
    finally:
        logger.removeHandler(handler)
        logger.setLevel(previous)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    with _log_to_stderr(args.log_level):
        return _run(args)


def _run(args) -> int:
    """Run the subcommand, mapping each failure to its code and exit status."""
    try:
        return args.func(args)
    except CliError as e:
        print(f"{e.code}: {e}", file=sys.stderr)
        return EXIT_USAGE if e.code == "E_USAGE" else EXIT_ERROR
    except ParseError as e:
        print(f"E_PARSE: {e}", file=sys.stderr)
        return EXIT_ERROR
    except DataError as e:
        print(f"E_DATA: {e}", file=sys.stderr)
        return EXIT_ERROR
    except (TrainingDiverged, NumericError) as e:
        print(f"E_NUMERIC: {e}", file=sys.stderr)
        return EXIT_ERROR
    except (SynthSpecError, CapacityError, ShapeError, ValueError) as e:
        print(f"E_CONFIG: {e}", file=sys.stderr)
        return EXIT_ERROR
    except FileNotFoundError as e:
        print(f"E_DATA: {e}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
