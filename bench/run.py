"""Closed-loop benchmark of spilqr: time to (P*, K*) per op.

Run from the repository root::

    python3 bench/run.py --workload mb-dense --seed 1 --seconds 45 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 45

One client in one process sends the next op when the previous one
returns.  Case ``i`` of a run's pool is drawn from ``(seed, workload, i)``
and timed up to four times, and its fastest time counts; every returned
``P`` is checked against ``scipy.linalg.solve_discrete_are``.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` runs every
case once untraced and once traced and reports per-layer means.  The last
line of standard output is one JSON object; a per-run record with sample
counts and the machine is written under ``.bench_out/``.
"""

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("mb-dense", "mf-long", "power-cli")

SETUP_SAMPLES = 5
MIN_CASES = 100       # solve_ms.p90 needs ten samples beyond it
# Each case is timed up to this many times and its fastest time counts:
# the host's speed drifts by up to 2x within a minute, and the fastest
# of runs spread over the whole run misses more of its slow spells.
REPEATS = 4
# Cases in a run's pool per second of --seconds, so that REPEATS passes
# take about --seconds at the seed commit on an unloaded 2-core Xeon VM.
POOL_RATE = {"mb-dense": 6.0, "mf-long": 9.5, "power-cli": 5.0}
WALL_LIMIT_S = 140.0  # stop timing here even before the last pass
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# One BLAS thread: on a shared 2-core host, a second thread makes every
# op wait for whichever core a neighbour is using (p50 doubled under one
# busy neighbour process), and it buys nothing at these sizes.
BLAS_THREADS = 1


def fail(message):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def prepare():
    """Pin BLAS to ``BLAS_THREADS`` and import spilqr from ``src/``.
    Must run before numpy is imported: BLAS reads its thread count when
    it loads."""
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before the BLAS thread cap")
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    if not (SRC / "spilqr" / "__init__.py").is_file():
        fail(f"no spilqr sources under {SRC}")
    sys.path.insert(0, str(SRC))


def timed_call(workload, case, tracer=None, op_id=None):
    """Run one op; returns (seconds, result or raised exception)."""
    t0 = time.perf_counter()
    try:
        if tracer is None:
            raw = workload.call(case)
        else:
            raw = tracer.run_op(op_id, workload.call, case)
    except Exception as exc:  # a failed op is a result, not a crash
        raw = exc
    return time.perf_counter() - t0, raw


# ---------------------------------------------------------------------------
# set-up time

def setup_probe(workload_name, seed):
    """Time ``import spilqr`` plus one warm-up op in this fresh process."""
    t0 = time.perf_counter()
    import spilqr  # noqa: F401
    imported = time.perf_counter() - t0
    import cases
    workdir = OUT / f"setup-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = cases.make(workload_name, str(workdir))
        case = wl.case(*cases.warmup_inputs(
            seed, WORKLOADS.index(workload_name)), 0)
        warm, _ = timed_call(wl, case)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"setup_s": imported + warm}))


def measure_setup(workload_name, seed):
    """Median over fresh processes of import plus warm-up time."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--setup-probe",
             "--workload", workload_name, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            fail(f"set-up probe failed:\n{proc.stderr}")
        samples.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return statistics.median(samples), samples


# ---------------------------------------------------------------------------
# machine record

def machine_record():
    import numpy as np
    import scipy
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ.get(var) for var in BLAS_ENV},
        "git_commit": git_commit(),
    }


def git_commit():
    """HEAD of the checkout, read from ``.git`` without leaving it."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


# ---------------------------------------------------------------------------
# the run

@dataclass
class Ops:
    """What the timed loop saw.  Times are each case's fastest run, in
    seconds; cases the wall-time limit cut off are left out."""
    best_s: list
    traced_best_s: list
    outcomes: Counter   # verdicts of the first pass
    errors: Counter     # failure kinds of the first pass
    unsteady: Counter   # repeats whose verdict changed
    timed: int          # ops timed, traced ones included
    busy: float         # their summed time


def take_ops(wl, index, args, tr):
    """The timed loop over a pool of cases built beforehand.

    The pool holds ``POOL_RATE`` cases per second of ``--seconds``, at
    least ``MIN_CASES``.  The loop runs the whole pool, in order, up to
    ``REPEATS`` times, and stops early once the summed op time reaches
    ``--seconds`` -- but never before the first pass is done.  A traced
    run times each case once plain and once traced per pass.  Verdicts
    are counted on the first pass, so how many ops a run attempts and
    fails depends on the seed alone, and a later pass must repeat each
    case's verdict.
    """
    import cases
    size = max(MIN_CASES, round(args.seconds * POOL_RATE[wl.name]))
    pool = [wl.case(*cases.op_inputs(args.seed, index, i), i)
            for i in range(size)]
    first = [None] * size
    best, traced_best = [math.inf] * size, [math.inf] * size
    ops = Ops([], [], Counter(), Counter(), Counter(), 0, 0.0)
    wall0 = time.perf_counter()
    for i in range(REPEATS * size):
        if (i >= size and ops.busy >= args.seconds) or \
                time.perf_counter() - wall0 > WALL_LIMIT_S:
            break
        k = i % size
        # In a traced run, alternate which of the pair goes first.
        modes = [False] if tr is None else [i % 2 == 1, i % 2 == 0]
        for traced in modes:
            if traced:
                tr.install()
                dt, raw = timed_call(wl, pool[k], tr, i)
                tr.uninstall()
                traced_best[k] = min(traced_best[k], dt)
            else:
                dt, raw = timed_call(wl, pool[k])
                best[k] = min(best[k], dt)
            ops.timed += 1
            ops.busy += dt
            status, detail = cases.verdict(wl, pool[k], raw)
            if first[k] is None:
                first[k] = status
            elif status != first[k]:
                ops.unsteady[f"case {k}: {first[k]} then {status}"] += 1
            if i < size:
                ops.outcomes[status] += 1
                if status != "ok":
                    ops.errors[f"{status}: {detail}"] += 1
    ops.best_s = [t for t in best if t < math.inf]
    ops.traced_best_s = [t for t in traced_best if t < math.inf]
    return ops


def run(args):
    setup_s, setup_samples = measure_setup(args.workload, args.seed)

    import numpy as np
    import cases
    import tracer as tracing

    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = cases.make(args.workload, str(workdir))
        index = WORKLOADS.index(args.workload)
        warm = wl.case(*cases.warmup_inputs(args.seed, index), 0)
        cases.verdict(wl, warm, timed_call(wl, warm)[1])
        tr = tracing.Tracer() if args.trace else None
        ops = take_ops(wl, index, args, tr)
        if tr is not None:
            tr.dump(OUT / f"{args.workload}-seed{args.seed}-spans.json")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    outcomes = ops.outcomes
    attempted = sum(outcomes.values())
    failed = outcomes["error"] + outcomes["wrong"]
    ms = np.array(ops.best_s) * 1e3
    samples = len(ms)
    if tr is None:
        metrics = {
            "solve_ms.p50": (float(np.median(ms)), "ms", samples),
            "solve_ms.p90": (float(np.percentile(ms, 90)), "ms", samples),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF)
                            .ru_maxrss / 1024.0, "MB", 1),
            "setup_s": (setup_s, "s", len(setup_samples)),
        }
    else:
        traced_cases = len(ops.traced_best_s)
        # Means over every traced op: half of those timed.
        metrics = {name: (value, unit_of(name), ops.timed // 2)
                   for name, value in tr.metrics().items()}
        metrics["trace_overhead_ratio"] = (
            float(np.median(ops.traced_best_s) / np.median(ops.best_s)
                  - 1.0), "ratio", traced_cases)
    report = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "attempted": attempted, "failed": failed,
        "failed_ratio": failed / attempted,
        "wrong_ratio": outcomes["wrong"] / attempted,
        # Not in BENCHMARK.json: on mf-long a rare ~0.7 s stall sets it.
        "solves_per_s": outcomes["ok"] / (ms.sum() / 1e3),
        "failures": dict(ops.errors),
        "unsteady_repeats": dict(ops.unsteady),
        "ops_timed": ops.timed, "op_time_s": ops.busy,
        "setup_samples_s": setup_samples,
        "metrics": {k: {"value": v, "unit": u, "samples": n}
                    for k, (v, u, n) in metrics.items()},
        "machine": machine_record(),
    }
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json",
              "w") as f:
        json.dump(report, f, indent=2)
        f.write("\n")

    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{attempted} ops judged, {ops.timed} timed in {ops.busy:.2f} s")
    for name, (value, unit, n) in metrics.items():
        print(f"  {name:<44} {value:>14.6g} {unit:<6} (n={n})")
    print(f"  {'solves_per_s':<44} {report['solves_per_s']:>14.6g} "
          f"{'1/s':<6} (n={samples})")
    print(f"  {'failed_ratio':<44} {report['failed_ratio']:>14.6g} "
          f"{'ratio':<6} ({failed}/{attempted})")
    print(f"  {'wrong_ratio':<44} {report['wrong_ratio']:>14.6g} "
          f"{'ratio':<6} ({outcomes['wrong']}/{attempted})")
    for what, count in sorted(ops.errors.items()):
        print(f"  failure x{count}: {what}")
    for what, count in sorted(ops.unsteady.items()):
        print(f"  verdict changed on a repeat x{count}: {what}")
    return {
        "correct": outcomes["wrong"] == 0 and not ops.unsteady,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u, _) in metrics.items()},
    }


def unit_of(metric):
    if metric.endswith("_ms"):
        return "ms"
    if metric.endswith("_ratio"):
        return "ratio"
    return "count"


def run_all(args):
    """Each workload in its own process, one after the other."""
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.splitlines()
        for line in lines[:-1]:
            print(line)
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            fail(f"workload {name} exited with code {proc.returncode}")
        results[name] = json.loads(lines[-1])
    return results


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        print(json.dumps(run_all(args)))
        return
    prepare()
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return
    print(json.dumps(run(args)))


if __name__ == "__main__":
    main()
