#!/usr/bin/env python3
"""Benchmark of the `bcn` command line, one workload per run.

    python3 benchmark/run.py --workload reduced_ode --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory.  Each run repeats whole rounds of the workload's `bcn`
operations (see workloads.py), one at a time in this single-threaded
process, until the operations have taken ``--seconds`` of wall time.  The
outputs of every round are checked against an independent reference
(checks.py) while the clock is stopped.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` wraps the
package's layers (tracer.py) and prints per-layer call counts and self
times instead.  The last line of standard output is one JSON object; a
full run record goes to ``.bench_build/records/``.
"""

import os

# set before numpy is imported, here and in every child process
THREADS = {var: "1" for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                                "NUMEXPR_NUM_THREADS")}
os.environ.update(THREADS)

import argparse                     # noqa: E402
import contextlib                   # noqa: E402
import io                           # noqa: E402
import json                         # noqa: E402
import platform                     # noqa: E402
import resource                     # noqa: E402
import statistics                   # noqa: E402
import subprocess                   # noqa: E402
import sys                          # noqa: E402
import time                         # noqa: E402
import traceback                    # noqa: E402
from dataclasses import dataclass, field  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import numpy as np                  # noqa: E402

import checks                       # noqa: E402
import reference                    # noqa: E402
import workloads                    # noqa: E402
from tracer import Tracer           # noqa: E402

SETUP_SPAWNS = 7
SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); "
              "from bcn_ruijsenaars.cli import build_parser; build_parser()")


@dataclass
class Result:
    code: object
    stdout: str
    stderr: str
    seconds: float
    files: dict = field(default_factory=dict)

    def output(self):
        return self.code, self.stdout, self.stderr, self.files


def execute(cli, argv, files=()) -> Result:
    """One `bcn` call through the public entry point, output captured."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:          # argparse rejects the flags
            code = exc.code
        except Exception:                  # a crash is a failed operation
            code = "exception"
            traceback.print_exc()
    seconds = time.perf_counter() - t0
    written = {}
    for path in files:
        if os.path.exists(path):
            with open(path) as fh:
                written[path] = fh.read()
            os.remove(path)
    return Result(code, out.getvalue(), err.getvalue(), seconds, written)


def reference_kernel() -> float:
    """Seconds taken by 25 evaluations of the reference flow at n = 4."""
    z = np.array([2.4, 1.6, 0.8, 0.0, 0.3, -0.2, 0.1, 0.4])
    t0 = time.perf_counter()
    for _ in range(25):
        reference.flow_rhs(z, 0.6, 0.44, 1.07)
    return time.perf_counter() - t0


def setup_seconds() -> float:
    """Wall time of a fresh interpreter importing the package and building the parser."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_CODE, SRC], check=True,
                   stdin=subprocess.DEVNULL, env=dict(os.environ, **THREADS))
    return time.perf_counter() - t0


def git_sha():
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def kind_rates(ops, best, failed) -> dict:
    """Work per second of each operation kind, from each operation's best time."""
    totals = {}
    for op, secs, bad in zip(ops, best, failed):
        if not bad:
            work, t = totals.get(op.kind, (0.0, 0.0))
            totals[op.kind] = (work + op.work, t + secs)
    return {workloads.KIND_UNITS[k][0]: {"value": work / t,
                                         "unit": f"{workloads.KIND_UNITS[k][1]}/s"}
            for k, (work, t) in sorted(totals.items())}


def wall_ref(times, probes) -> float:
    """Sum over operations of the median over rounds of each operation's time
    divided by the mean of the reference-kernel times just before and after it."""
    ratios = [[t / (0.5 * (kernel[i] + kernel[i + 1])) for i, t in enumerate(row)]
              for row, kernel in zip(times, probes)]
    return sum(statistics.median(col) for col in zip(*ratios))


def check(checker, op, res) -> list:
    """Problems of one operation's output; a known fault must fail as it does today."""
    if res.code == 0:
        return checker.run(op.argv, res.stdout, res.files)
    if op.fault is not None:
        return checks.fault(res, op.fault)
    print(f"operation failed: {' '.join(op.argv)}\n{res.stderr}", file=sys.stderr)
    return []


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("reduced_ode", "exact_flow", "point_sweep"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "bcn_ruijsenaars", "cli.py")):
        print(f"error: no bcn_ruijsenaars package under {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, SRC)
    import bcn_ruijsenaars
    from bcn_ruijsenaars import cli

    if os.path.dirname(os.path.abspath(bcn_ruijsenaars.__file__)) != \
            os.path.join(SRC, "bcn_ruijsenaars"):
        print(f"error: imported {bcn_ruijsenaars.__file__}, not the checkout's",
              file=sys.stderr)
        return 2
    os.makedirs(workloads.OUT_DIR, exist_ok=True)

    checker = checks.Checker()
    tracer = Tracer() if args.trace else None
    ops = workloads.round_ops(args.workload, args.seed)
    first, times, probes, layer_rounds, problems, setup = None, [], [], [], [], []
    measured, peak_rss_mib, failed = 0.0, None, 0
    while not times or measured < args.seconds:
        if tracer:
            tracer.install()
        results, kernel = [], [reference_kernel()]
        for op in ops:
            results.append(execute(cli, op.argv, op.files))
            kernel.append(reference_kernel())
        probes.append(kernel)
        if tracer:
            tracer.uninstall()
            layer_rounds.append(tracer.take())
        times.append([r.seconds for r in results])
        measured += sum(times[-1])
        failed += sum(r.code != 0 for r in results)
        if first is None:
            # before the checks load scipy
            peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            first = results
            for op, res in zip(ops, results):
                problems += [f"{' '.join(op.argv)[:160]}: {msg}"
                             for msg in check(checker, op, res)]
        else:
            problems += [f"{' '.join(op.argv)[:160]}: output differs from the first round"
                         for op, a, b in zip(ops, first, results)
                         if a.output() != b.output()]
        if not args.trace and len(setup) < SETUP_SPAWNS:
            setup.append(setup_seconds())
    while not args.trace and len(setup) < SETUP_SPAWNS:
        setup.append(setup_seconds())

    rounds = len(times)
    best = [min(col) for col in zip(*times)]
    walls = [sum(row) for row in times]
    op_failed = [res.code != 0 for res in first]
    summary = {"wall_s": sum(best), "wall_ref": wall_ref(times, probes)}
    if tracer:
        fastest = walls.index(min(walls))
        metrics = {"trace.wall_s": {"value": walls[fastest], "unit": "s"}}
        for name, (calls, self_s) in layer_rounds[fastest].items():
            metrics[f"{name}.calls"] = {"value": calls, "unit": "count"}
            metrics[f"{name}.self_s"] = {"value": self_s, "unit": "s"}
        self_sum = sum(s for _, s in layer_rounds[fastest].values())
        if self_sum > walls[fastest]:
            problems.append(f"self times sum to {self_sum} s, above the traced wall")
        if tracer.missing:
            print(f"untraced (not found): {tracer.missing}", file=sys.stderr)
    else:
        metrics = {"setup_s": {"value": statistics.median(setup), "unit": "s"},
                   "wall_ref": {"value": summary["wall_ref"], "unit": "ref"},
                   "peak_rss_mib": {"value": peak_rss_mib, "unit": "MiB"}}
    for msg in problems:
        print(f"check failed: {msg}", file=sys.stderr)

    import scipy
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "correct": not problems, "problems": problems,
        "attempted": rounds * len(ops), "failed": failed, "rounds": rounds,
        "metrics": metrics, "summary": summary,
        "operation_rates": kind_rates(ops, best, op_failed),
        "round_wall_s": walls, "kernel_s": probes, "setup_runs_s": setup,
        "peak_rss_mib": peak_rss_mib,
        "untraced_layers": tracer.missing if tracer else [],
        "operations": [{"argv": list(op.argv), "kind": op.kind,
                        "known_fault": op.fault and op.fault.why, "exit": res.code,
                        "seconds": [row[i] for row in times]}
                       for i, (op, res) in enumerate(zip(ops, first))],
        "git_sha": git_sha(), "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)), "cpu_model": cpu_model(),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "thread_env": THREADS,
    }
    rec_dir = os.path.join(ROOT, ".bench_build", "records")
    os.makedirs(rec_dir, exist_ok=True)
    rec_path = os.path.join(rec_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}"
                                     f"-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}.json")
    with open(rec_path, "w") as fh:
        json.dump(record, fh, indent=1)
    print(f"run record: {rec_path}", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": rounds * len(ops),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
