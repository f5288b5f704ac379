"""seqids benchmark: one workload per run, one JSON result on the last line.

Run it from the root of a seqids checkout:

    python3 bench/run.py --workload train_flagship --seed 1 --seconds 25 --trace 0

``--trace 0`` runs the workload once and reports the end-to-end metrics.
``--trace 1`` runs it twice, untraced and then with spans around every
layer's public functions, and reports the per-layer metrics plus the tracing
overhead (traced minus untraced value of each end-to-end metric). Each half
gets half of ``--seconds``; the training workload always runs its full epoch.

The package is imported from ``src/`` of the checkout that holds this
script, never from an installed copy. Scratch files go to ``.bench_state/``
in that checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# The thread cap must be in the environment before numpy loads its BLAS.
NPROC = len(os.sched_getaffinity(0))
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(NPROC)


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny shrinks every input; the smoke test uses it")
    return ap.parse_args(argv)


def _import_seqids():
    if not (SRC / "seqids" / "__init__.py").is_file():
        sys.exit(f"bench: no seqids package under {SRC}; run from a seqids checkout")
    sys.path.insert(0, str(SRC))
    import seqids
    if Path(seqids.__file__).resolve().parent != SRC / "seqids":
        sys.exit(f"bench: imported seqids from {seqids.__file__}, not from {SRC}")
    return seqids


def _environment(np) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"machine": f"{platform.system()} {platform.machine()}, {NPROC} cpus",
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "blas_threads": NPROC, "dtype": "float64"}


def _report_checks(checks) -> None:
    grouped: dict[str, list] = {}
    for name, ok, detail in checks:
        grouped.setdefault(name, []).append((ok, detail))
    for name, results in grouped.items():
        bad = [d for ok, d in results if not ok]
        detail = bad[0] if bad else results[-1][1]
        print(f"check {name}: {'ok' if not bad else 'FAILED'} "
              f"({len(results) - len(bad)}/{len(results)}) {detail}")


def main(argv=None) -> int:
    args = _parse(argv)
    seqids = _import_seqids()
    import numpy as np

    import spans
    import workloads as W

    if args.workload not in W.WORKLOADS:
        sys.exit(f"bench: unknown workload {args.workload!r}; pick one of {sorted(W.WORKLOADS)}")
    seqids.set_default_dtype("float64")
    size = W.TINY if args.size == "tiny" else W.FULL
    run = W.WORKLOADS[args.workload]
    print("env " + json.dumps(_environment(np), sort_keys=True))
    print(f"workload {args.workload}: closed loop, 1 caller. {W.WHY[args.workload]}")

    state = ROOT / ".bench_state"
    state.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=state))
    try:
        seconds = args.seconds / 2 if args.trace else args.seconds
        plain = run(W.Context(args.seed, seconds, size, tmp, state))
        passes = [plain]
        if args.trace:
            tracer = spans.Tracer()
            patches = spans.install(tracer, seqids)
            try:
                traced = run(W.Context(args.seed, seconds, size, tmp, state, tracer))
            finally:
                patches.restore()
            passes.append(traced)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    for p, label in zip(passes, ("untraced", "traced")):
        _report_checks(p.checks)
        for name, value in p.metrics.items():
            alias = W.ALIASES[args.workload].get(name, name)
            print(f"{label} {alias} = {value:.6g} {W.E2E_UNITS[name]}  [{name}]")
        for name, value in p.extra.items():
            alias = W.ALIASES[args.workload].get(name, name)
            print(f"{label} {alias} = {value!r} {W.EXTRA_UNITS[name]}  [{name}, unbounded]")

    if args.trace:
        metrics = {name: 0.0 for name in W.PER_LAYER_UNITS}
        metrics.update(traced.layer)
        for name in W.E2E_UNITS:
            metrics[f"overhead.{name}"] = traced.metrics[name] - plain.metrics[name]
        units = W.PER_LAYER_UNITS
    else:
        metrics, units = plain.metrics, W.E2E_UNITS
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
