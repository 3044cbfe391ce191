"""actionflow benchmark: train, checkpoint, evaluate and generate end to end.

Run from the repository root:

    python3 perfbench/run.py --workload train_short --seed 1 --seconds 28 --trace 0

One process, one caller, closed loop: each call into the package starts only
when the previous one has returned. The set-up synthesizes the workload's
corpus from ``--seed``, writes it to a JSONL file, loads it back through
``load_corpus`` and prepares it, several times, and reports the median as
``setup_s``. After one untimed warm-up cycle, the measured loop repeats one
cycle until ``--seconds`` have passed and every percentile has enough
samples:

* train workloads: ``train`` a fresh model for the workload's epochs, then
  save or pick up its checkpoint;
* every workload: load the checkpoint and run ``full_report`` without
  generation on the test split, then load it again and send the workload's
  fixed batch of generation requests, as ``actionflow eval
  --skip-generation`` and ``actionflow generate --count`` would.

``infer_long`` trains its model inside the set-up instead, so its loop runs
no tape, backward pass or optimizer step; its training metrics come from
the set-up.

With ``--trace 0`` the run prints the end-to-end metrics of BENCHMARK.json.
With ``--trace 1`` every other set-up and cycle runs under the span tracer
and the run prints the per-layer metrics, plus the tracing overhead: traced
against untraced cycles of the same run. The last line of standard output
is always one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
Every call is checked (finite losses, byte-identical same-seed checkpoints
and reports, valid generated sequences); a failed check counts as a failed
call and the run goes on.

This file parses the arguments and prints; ``bench.py`` runs the workload,
``workloads.py`` defines the three workloads and ``tracing.py`` holds the
timing hooks and the span tracer. ``README.md`` explains the choices.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import logging
import os
import platform
import shutil
import sys
from pathlib import Path

# one BLAS thread: the model's matrices are 16 wide, so a second thread only
# adds wake-ups that the other core's load turns into noise
BLAS_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _name in BLAS_THREADS:
    os.environ[_name] = "1"

import numpy as np  # noqa: E402  (after the thread settings above)

ROOT = Path(__file__).resolve().parent.parent


def import_package() -> None:
    """Import actionflow from this checkout's src/, and only from there."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import actionflow
    except ImportError as e:
        raise SystemExit(f"perfbench: cannot import actionflow from {src}: {e}")
    if Path(actionflow.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"perfbench: actionflow imported from {actionflow.__file__}, "
                         f"not from {src}")


def provenance(args, workload) -> dict:
    import scipy
    head = "unknown"
    git = ROOT / ".git"
    with contextlib.suppress(OSError):
        ref = (git / "HEAD").read_text().strip()
        head = (git / ref[5:]).read_text().strip() if ref.startswith("ref: ") else ref
    return {
        "git_sha": head,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_env": {k: os.environ.get(k) for k in BLAS_THREADS},
        "machine": platform.machine(),
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def declared(kind: str) -> dict[str, str]:
    """Metric name -> unit, in BENCHMARK.json order, for one metric kind."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_package()
    from bench import UNGATED, Bench
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    # missing-follower warnings from clustering would repeat every set-up
    logging.getLogger("actionflow").setLevel(logging.ERROR)
    workload = WORKLOADS[args.workload]
    workdir = ROOT / ".perfbench_work" / f"{workload.name}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        bench = Bench(workload, args.seed, args.seconds, bool(args.trace), workdir)
        bench.run()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()
    if bench.report is None or bench.final_loss is None:
        print("perfbench: no complete cycle; nothing to report", file=sys.stderr)
        return 1
    info = provenance(args, workload)
    if args.trace:
        values = bench.per_layer()
        print(json.dumps({"provenance": info}))
        units = declared("per_layer")
        for name, unit in units.items():
            print(f"{name:48s} {values[name]:14.6g} {unit}")
    else:
        values, samples = bench.end_to_end()
        print(json.dumps({"provenance": info, "samples": samples}))
        units = declared("end_to_end")
        for name, unit in {**units, **UNGATED}.items():
            note = "" if name in units else "  (not in BENCHMARK.json)"
            print(f"{name:24s} {values[name]:14.6g} {unit:6s} n={samples[name]}{note}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(json.dumps({"correct": bench.failed == 0, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
