"""Benchmark: seeded gasnetsim workloads through the public library path.

Run from the repository root:

    python3 bench/run.py --workload day5 --seed 1 --seconds 20 --trace 0

Each operation is one full scenario simulation: parse_network ->
parse_scenario -> assemble -> jac_colors (set-up), simulate, write_timeseries.
Operations run in cycles over the workload's cases until --seconds have
passed and at least MIN_STEPS steps were timed; every output is checked.

--trace 0 prints the end-to-end metrics, measured with coarse spans only.
--trace 1 alternates untraced and fully traced cycles on the same inputs and
prints the per-layer metrics of the traced cycles plus the tracing overhead.
The last stdout line is one JSON object {correct, attempted, failed, metrics}.
Details (environment, per-operation fingerprints, spans) go to bench/out/.
"""

import os

# Pinned before numpy loads, for steady timings; recorded in every result.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
MIN_STEPS = 100      # so step_ms_p90 has at least ten steps beyond it
# set-up + steady repetitions (the ``steady`` command) before the timed cycles,
# for setup_s and steady_s: at least REPS_MIN, then more until REPS_S have passed
REPS_MIN, REPS_MAX, REPS_S = 3, 20, 5.0
WARMUP_STEPS = 2
MAX_WALL_S = 150.0   # stop starting new cycles after this, whatever else holds


def import_program():
    """Import gasnetsim from this checkout's src/, and from nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import gasnetsim
    except ImportError as exc:
        sys.exit(f"bench: cannot import gasnetsim from {src}: {exc}")
    if src not in Path(gasnetsim.__file__).resolve().parents:
        sys.exit(f"bench: gasnetsim resolved outside {src}: {gasnetsim.__file__}")
    return gasnetsim


gn = import_program()

import numpy as np  # noqa: E402

from checks import check_operation, fingerprint  # noqa: E402
from harness import Spans, layer_metrics, operation  # noqa: E402
from workloads import WORKLOADS, shorten  # noqa: E402


def environment():
    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy_version, "blas_threads": BLAS_THREADS,
            "machine": platform.machine()}


def run(workload: str, seed: int, seconds: float, trace: bool):
    cases = WORKLOADS[workload](seed)
    OUT.mkdir(exist_ok=True)
    csv_path = {c.label: OUT / f"{workload}-{c.label}.csv" for c in cases}

    # one untimed warm-up operation: first calls into BLAS, scipy, numpy paths
    operation(Spans(), shorten(cases[0], WARMUP_STEPS), False, csv_path[cases[0].label])

    reps = Spans()
    steady_only = gn.SolverConfig(t_end=0.0)
    t0 = time.perf_counter()
    while reps.op_id + 1 < REPS_MIN or (
            reps.op_id + 1 < REPS_MAX and time.perf_counter() - t0 < REPS_S):
        reps.op_id += 1
        case = cases[reps.op_id % len(cases)]
        gc.collect()
        operation(reps, case, False, csv_path[case.label], steady_only)

    spans = Spans()
    ops = []      # (op id, case, detail, failure messages, fingerprint)
    t_start = time.perf_counter()
    cycles = 0
    while True:
        detail = trace and cycles % 2 == 1
        for case in cases:
            spans.op_id += 1
            gc.collect()  # every operation starts from the same heap state
            try:
                ts = operation(spans, case, detail, csv_path[case.label])
            except Exception as exc:  # an operation that raises counts as failed
                traceback.print_exc()
                ops.append((spans.op_id, case, detail, [f"{type(exc).__name__}: {exc}"], None))
                continue
            ops.append((spans.op_id, case, detail,
                        check_operation(ts, case.network, case.scenario), fingerprint(ts)))
        cycles += 1
        elapsed = time.perf_counter() - t_start
        if trace:
            enough = cycles % 2 == 0
        else:
            enough = spans.name.count("timeloop.step") >= MIN_STEPS
        if elapsed >= MAX_WALL_S or (enough and elapsed >= seconds):
            break
    return spans, ops, reps


def end_to_end(spans: Spans, ops, reps: Spans):
    op, name, dur, _, _ = spans.arrays()
    _, rep_name, rep_dur, _, _ = reps.arrays()
    good = [o for o, _, detail, fails, fp in ops if not detail and fp is not None]
    by_op = {o: {} for o in good}
    for o, nm, d in zip(op, name, dur):
        if o in by_op and nm in ("op", "setup", "timeloop.simulate", "timeloop.steady"):
            by_op[o][nm] = d
    t_end = {o: json.loads(case.scenario)["t_end"] for o, case, *_ in ops}
    steps_ms = 1e3 * dur[np.isin(op, good) & (name == "timeloop.step")]
    rates = [t_end[o] / (v["timeloop.simulate"] - v["timeloop.steady"])
             for o, v in by_op.items()]
    deciles = statistics.quantiles(steps_ms, n=10)
    return {
        "setup_s": (statistics.median(
            [*rep_dur[rep_name == "setup"], *(v["setup"] for v in by_op.values())]), "s"),
        "steady_s": (statistics.median(
            [*rep_dur[rep_name == "timeloop.steady"],
             *(v["timeloop.steady"] for v in by_op.values())]), "s"),
        "run_s": (statistics.median(v["op"] for v in by_op.values()), "s"),
        "sim_rate": (statistics.median(rates), "s/s"),
        "step_ms_p50": (deciles[4], "ms"),
        "step_ms_p90": (deciles[8], "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }, len(steps_ms)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    env = environment()
    spans, ops, reps = run(args.workload, args.seed, args.seconds, bool(args.trace))
    attempted = len(ops)
    failed = sum(1 for *_, fails, _ in ops if fails)
    for o, case, _, fails, _ in ops:
        for msg in fails:
            print(f"FAILED op {o} ({case.label}): {msg}", file=sys.stderr)

    op, name, dur, _, _ = spans.arrays()
    run_s = {detail: [float(dur[(op == o) & (name == "op")][0])
                      for o, _, d, _, fp in ops if d == detail and fp is not None]
             for detail in (False, True)}
    if args.trace:
        traced = [o for o, _, d, _, fp in ops if d and fp is not None]
        metrics = layer_metrics(spans, traced)
        metrics["trace.overhead"] = (
            statistics.median(run_s[True]) / statistics.median(run_s[False]), "ratio")
        n_steps = None
    else:
        metrics, n_steps = end_to_end(spans, ops, reps)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{attempted} operations, {failed} failed"
          + (f", {n_steps} timed steps" if n_steps is not None else ""))
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    for key, (value, unit) in metrics.items():
        print(f"{key} {value:.6g} {unit}")
    print(f"fail_share {failed / attempted:.6g} (failed/attempted)")
    if args.trace:
        print(f"run_s untraced {statistics.median(run_s[False]):.6g} s, "
              f"traced {statistics.median(run_s[True]):.6g} s")

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans.write_csv(OUT / f"{stem}-spans.csv")
    detail_doc = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "operations": [{"op": o, "case": case.label, "traced": d, "failures": fails,
                        "fingerprint": fp} for o, case, d, fails, fp in ops],
    }
    (OUT / f"{stem}.json").write_text(json.dumps(detail_doc, indent=1) + "\n")

    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
