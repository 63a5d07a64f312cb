"""Run one kerrcat benchmark workload and print its metrics.

    python3 perfbench/run.py --workload lifetime --seed 1 --seconds 10 --trace 0

Run from the root of a kerrcat source tree; the program is imported from
``src/``. One process imports kerrcat (timed as set-up), then repeats whole
rounds of the workload's calls until ``--seconds`` have passed (at least
one round), checks the outputs against computations made apart from the
program, and prints as its last line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (wall_s, setup_s,
peak_rss_mib). With ``--trace 1`` the run makes one untraced round and one
traced round, and reports the per-layer metrics of the traced round plus
the tracing overhead. The environment, every check and (traced) every span
are written to ``perfbench/out/``. See perfbench/README.md.

Set-up is timed from the first statement of this script, which runs as the
process starts, to the end of ``kerrcat.warmup()``. Only the standard
library is imported before kerrcat, so it includes importing numpy and scipy.
"""
import time

START = time.perf_counter()

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
# The keys of workloads.WORKLOADS, named here because that module imports
# numpy, which must not load before the set-up is timed.
WORKLOAD_NAMES = ("lifetime", "chevron", "experiments")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def run_round(steps: list, tracer=None):
    """Make every call of one round; returns (seconds inside the calls,
    {op: value}, {op: traceback} for ops whose call or reading raised)."""
    wall, values, errors = 0.0, {}, {}
    for step in steps:
        span = tracer.open(f"op {step.name}") if tracer else None
        t0 = time.perf_counter()
        try:
            try:
                ret = step.call()
            finally:
                wall += time.perf_counter() - t0
                if tracer:
                    tracer.close(span)
            values.update(step.read(ret))
        except Exception:  # a failing call fails its operations, not the run
            errors.update({op: traceback.format_exc() for op in step.ops})
    return wall, values, errors


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS numpy loaded, if it is OpenBLAS."""
    import ctypes
    try:
        with open("/proc/self/maps") as f:
            libs = {line.split()[-1] for line in f if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(kc, workload: str) -> dict:
    import numpy as np
    import scipy

    import workloads
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "backend": kc.backend(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": blas_threads()},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "truncation_dims": workloads.truncation_dims(kc)[workload],
    }


def run_rounds(wl, kc, args, work: Path):
    """Untraced: whole rounds until --seconds have passed. Traced: one
    untraced round, then one traced round. Returns (round walls, per-round
    {op: value}, {op: traceback}, the tracer or None)."""
    import spans
    walls, rounds, errors = [], [], {}
    tracer = None
    start = time.perf_counter()
    while True:
        k = len(walls)
        if args.trace and k == 1:
            tracer = spans.Tracer()
            tracer.install(kc)
        try:
            wall, values, errs = run_round(wl.steps(kc, args.seed, work / f"round{k}"), tracer)
        finally:
            if tracer:
                tracer.uninstall()
        walls.append(wall)
        rounds.append(values)
        errors.update(errs)
        if tracer or (not args.trace and time.perf_counter() - start >= args.seconds):
            return walls, rounds, errors, tracer


def check_rounds(wl, kc, args, work: Path, ops: list, rounds: list, errors: dict) -> list:
    """Every check of the run: the workload's checks on the first round, and
    that every later round reproduced it. An operation left unchecked fails."""
    from workloads import Check
    if errors:
        checks = [Check(op, False, "call or reading raised:\n" + tb) for op, tb in errors.items()]
    else:
        try:
            checks = wl.checks(kc, args.seed, rounds[0], work)
        except Exception:  # a crashing check is a failed check
            checks = [Check(None, False, "check raised:\n" + traceback.format_exc())]
    same = all(r == rounds[0] for r in rounds[1:])
    checks.append(Check(None, same, f"{len(rounds)} rounds reproduce round 1: {same}"))
    checked = {c.op for c in checks}
    return checks + [Check(op, False, "no output checked") for op in ops if op not in checked]


def traced_metrics(kc, tracer, walls: list, checks: list) -> dict:
    """Per-layer metrics of the traced round, plus the tracing overhead;
    appends the step-count consistency checks to checks."""
    import spans
    from workloads import Check
    rhs_counted = kc.backend() == "numpy"
    layer = spans.layer_metrics(tracer, rhs_counted)
    layer["trace.wall_s"] = (walls[1], "s")
    layer["trace.overhead_s"] = (walls[1] - walls[0], "s")
    if rhs_counted:
        for stepper in spans.STEPPERS:
            rej = layer[f"{stepper}.steps_rejected"][0]
            attempted = layer[f"{stepper}.steps_accepted"][0] + rej
            checks.append(Check(None, 0 <= rej <= attempted,
                                f"{stepper}: 0 <= steps_rejected {rej} "
                                f"<= steps_attempted {attempted}"))
    return layer


def main(argv=None) -> int:
    args = parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import kerrcat as kc
    kc.warmup()
    setup_s = time.perf_counter() - START

    import workloads
    wl = workloads.WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT))
    try:
        walls, rounds, errors, tracer = run_rounds(wl, kc, args, work)
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        ops = [op for step in wl.steps(kc, args.seed, work / "round0") for op in step.ops]
        checks = check_rounds(wl, kc, args, work, ops, rounds, errors)
        if args.trace:
            metrics = traced_metrics(kc, tracer, walls, checks)
        else:
            metrics = {"wall_s": (statistics.median(walls), "s"),
                       "setup_s": (setup_s, "s"),
                       "peak_rss_mib": (peak_rss_mib, "MiB")}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed_ops = {c.op for c in checks if c.op is not None and not c.ok}
    correct = (all(c.ok for c in checks if c.op is None)
               and failed_ops <= workloads.KNOWN_FAULTS)
    result = {
        "correct": correct,
        "attempted": len(ops) * len(rounds),
        "failed": len(failed_ops) * len(rounds),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(kc, args.workload),
              "round_walls_s": walls, **result,
              "checks": [{"op": c.op, "ok": c.ok, "detail": c.detail} for c in checks]}
    if tracer:
        record["spans"] = [s.as_json() for s in tracer.spans]
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")

    for c in checks:
        if not c.ok:
            print(f"FAILED {c.op or '(round)'}: {c.detail}", file=sys.stderr)
    print(f"{args.workload}: {len(walls)} round(s) {', '.join(f'{w:.3f}' for w in walls)} s; "
          f"environment, checks and spans in {path}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
