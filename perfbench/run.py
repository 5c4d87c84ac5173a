"""cascade-lab benchmark: CLI workloads timed end to end, one process each.

Usage (from the root of a checkout):
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload (see workloads.py) is a sequence of CLI invocations. They run
one after another, each in a fresh interpreter started by this driver, never
two at a time (a closed loop with one client). BLAS/OpenMP pools are pinned
to one thread and CASCADE_LAB_THREADS is left unset, which means 1 and is
what users get. Every ``--out`` goes to a temporary directory under
perfbench/results/, removed at the end.

--trace 0 repeats the workload while another iteration fits in S seconds (at
least once) and reports medians over the iterations:
  wall_s       spawn-to-exit wall time, summed over the invocations;
  cpu_s        user plus system CPU seconds of those processes;
  setup_s      per invocation, process spawn until build_experiment first
               returns, summed; the median over at least SETUP_ROUNDS
               rounds, topped up with set-up-only probe processes;
  peak_rss_mb  the highest peak RSS among all the run's processes.

--trace 1 runs the same untraced loop, then the workload once more with the
span tracer (tracer.py) installed, and reports the per-layer metrics plus the
tracing overhead (traced wall time minus the untraced median).

Every invocation and every output check is one operation; the last stdout
line is {"correct", "attempted", "failed", "metrics"}. Details of the run go
to perfbench/results/<workload>-seed<N>-trace<T>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

from tracer import METRIC_UNITS, layer_metrics
from workloads import DEFAULT_SEED, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PACKAGE = os.path.join(ROOT, "src", "cascade_lab")
RESULTS = os.path.join(HERE, "results")
CHILD = os.path.join(HERE, "child.py")

SETUP_ROUNDS = 5
CHILD_TIMEOUT_S = 150
PINNED_ENV = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                     "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                                     "NUMEXPR_NUM_THREADS")}
THREADS_ENV = "CASCADE_LAB_THREADS"


class Process:
    """Outcome of one child process: exit code, timings, rusage and record."""

    def __init__(self, label, mode, code, wall_s, cpu_s, rss_mb, record, spawned_at):
        self.label, self.mode, self.code = label, mode, code
        self.wall_s, self.cpu_s, self.rss_mb = wall_s, cpu_s, rss_mb
        self.record = record
        built_at = record.get("built_at")
        self.setup_s = built_at - spawned_at if built_at is not None else None
        module = record.get("module") or ""
        self.from_checkout = os.path.abspath(module).startswith(PACKAGE + os.sep)

    @property
    def ok(self):
        if self.mode == "setup":
            return self.setup_s is not None and self.from_checkout
        return self.code == 0 and self.from_checkout


def spawn(mode, label, argv, work_dir, env):
    record_path = os.path.join(work_dir, f"{label}.{mode}.record.json")
    log_path = os.path.join(work_dir, f"{label}.{mode}.log")
    cmd = [sys.executable, CHILD, mode, record_path, *argv]
    with open(log_path, "wb") as log:
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.monotonic() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    record = {}
    if os.path.exists(record_path):
        with open(record_path, encoding="utf-8") as fh:
            record = json.load(fh)
    return Process(label, mode, proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                   usage.ru_maxrss / 1024.0, record, t0)


class Iteration:
    """One pass over a workload's invocations, followed by its output checks."""

    def __init__(self, workload, seed, mode, scratch, env):
        self.work_dir = tempfile.mkdtemp(prefix="iter-", dir=scratch)
        self.procs = [spawn(mode, label, argv, self.work_dir, env)
                      for label, argv in workload.invocations(self.work_dir, seed)]
        try:
            self.checks = workload.checks(self.work_dir, seed)
        except (OSError, KeyError, IndexError, TypeError, ValueError, ZeroDivisionError) as exc:
            self.checks = [(f"outputs unreadable: {exc!r}", False)]

    @property
    def wall_s(self):
        return sum(p.wall_s for p in self.procs)

    @property
    def cpu_s(self):
        return sum(p.cpu_s for p in self.procs)

    @property
    def setup_s(self):
        setups = [p.setup_s for p in self.procs]
        return sum(setups) if None not in setups else None

    def probe_setup(self, workload, seed, env):
        """Re-run each invocation only up to the end of its set-up."""
        return [spawn("setup", label, argv, self.work_dir, env)
                for label, argv in workload.invocations(self.work_dir, seed)]

    def ops(self):
        return [(f"{p.label} exit {p.code}", p.ok) for p in self.procs] + self.checks


def child_env(scratch):
    env = dict(os.environ)
    env.update(PINNED_ENV)
    env.pop(THREADS_ENV, None)
    env["TMPDIR"] = scratch
    return env


def measure(workload, seed, seconds, scratch, env):
    """Untraced iterations while another one fits in the time budget."""
    start = time.monotonic()
    iterations = []
    while True:
        iterations.append(Iteration(workload, seed, "run", scratch, env))
        elapsed = time.monotonic() - start
        if elapsed * (len(iterations) + 1) / len(iterations) > seconds:
            return iterations


def end_to_end(workload, seed, iterations, env):
    setups = [it.setup_s for it in iterations if it.setup_s is not None]
    probes = []
    while len(setups) < SETUP_ROUNDS:
        round_ = iterations[-1].probe_setup(workload, seed, env)
        probes.extend(round_)
        if not all(p.ok for p in round_):
            break
        setups.append(sum(p.setup_s for p in round_))
    procs = [p for it in iterations for p in it.procs] + probes
    metrics = {
        "wall_s": statistics.median(it.wall_s for it in iterations),
        "cpu_s": statistics.median(it.cpu_s for it in iterations),
        "setup_s": statistics.median(setups) if setups else None,
        "peak_rss_mb": max(p.rss_mb for p in procs),
    }
    units = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
    ops = [(f"setup probe {p.label}", p.ok) for p in probes]
    detail = {"setup_rounds_s": setups, "probes": len(probes)}
    return metrics, units, ops, detail


def traced(workload, seed, iterations, scratch, env):
    it = Iteration(workload, seed, "trace", scratch, env)
    dumps = [(p.label, p.record.get("trace"), p.record.get("import_s", 0.0)) for p in it.procs]
    if any(d is None for _, d, _ in dumps):
        return None, it, {}
    metrics = layer_metrics(dumps)
    rerun_s = sum(d["rerun_s"] for _, d, _ in dumps)
    untraced = statistics.median(x.wall_s for x in iterations)
    metrics["trace.wall_s"] = it.wall_s - rerun_s
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - untraced
    units = dict(METRIC_UNITS, **{"trace.wall_s": "s", "trace.overhead_s": "s"})
    detail = {"spans": {label: d["spans"] for label, d, _ in dumps},
              "hot": {label: d["hot"] for label, d, _ in dumps},
              "untraced_targets": sorted({m for _, d, _ in dumps for m in d["missing"]}),
              "nproc_rerun_s": rerun_s}
    return (metrics, units), it, detail


def environment(procs):
    versions = next((p.record["versions"] for p in procs if "versions" in p.record), {})
    return {
        "python": versions.get("python"), "numpy": versions.get("numpy"),
        "scipy": versions.get("scipy"), "nproc": len(os.sched_getaffinity(0)),
        "pinned": PINNED_ENV, THREADS_ENV: "unset (1)",
        "loop": "closed, one invocation at a time",
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(PACKAGE, "cli.py")):
        print(f"benchmark: no program at {PACKAGE}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    os.makedirs(RESULTS, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="tmp-", dir=RESULTS)
    env = child_env(scratch)
    try:
        iterations = measure(workload, args.seed, args.seconds, scratch, env)
        ops = [op for it in iterations for op in it.ops()]
        detail = {}
        if args.trace:
            result, it, detail = traced(workload, args.seed, iterations, scratch, env)
            ops += it.ops()
            procs = it.procs
            if result is None:
                print("benchmark: a traced invocation left no trace", file=sys.stderr)
                return 1
            metrics, units = result
        else:
            metrics, units, probe_ops, detail = end_to_end(workload, args.seed, iterations, env)
            ops += probe_ops
            procs = [p for it in iterations for p in it.procs]
            if metrics["setup_s"] is None:
                print("benchmark: no invocation finished its set-up", file=sys.stderr)
                return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    failed = [name for name, ok in ops if not ok]
    env_block = environment(procs)
    summary = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env_block,
        "ops_total": len(ops), "ops_failed": len(failed), "failed_ops": failed,
        "iterations": [{"wall_s": it.wall_s, "cpu_s": it.cpu_s, "setup_s": it.setup_s,
                        "invocations": {p.label: {"wall_s": p.wall_s, "cpu_s": p.cpu_s,
                                                  "rss_mb": p.rss_mb, "setup_s": p.setup_s,
                                                  "exit": p.code} for p in it.procs}}
                       for it in iterations],
        "metrics": metrics,
    }
    summary.update(detail)
    path = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)
        fh.write("\n")

    print("environment: " + json.dumps(env_block, sort_keys=True))
    print(f"{args.workload}: {len(iterations)} untraced iteration(s), "
          f"ops_failed {len(failed)} of ops_total {len(ops)}" +
          (f" ({'; '.join(failed)})" if failed else ""))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
