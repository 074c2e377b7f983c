"""Closed-loop benchmark of the gpcubes command line.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout.  One client issues one operation at
a time, each in a fresh interpreter (child.py) that imports the package from
src/ and calls gpcubes.cli.main on the workload's graph, so every operation
pays start-up and any in-process cache as a CLI user does.  Every operation's
certificate is checked against golden.json.

With --trace 0 the run measures set-up several times, then repeats the
workload while another operation fits in --seconds, and reports the
end-to-end metrics as medians.  With --trace 1 it runs the workload
untraced and then traced (tracer.py), pair after pair while another pair
fits, and reports the per-layer metrics.  Stopping before an operation that
would not fit keeps a run's length near --seconds however fast the host is.
Human-readable lines come first; the last line of standard output is the
result as one JSON object.  Bytecode and scratch files go to .bench_build/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

from tracer import LAYER_METRICS
from workloads import WORKLOADS, graph_text, hash_seed, load_golden, variant_of, verify

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PACKAGE = os.path.join(ROOT, "src", "gpcubes", "cli.py")
BUILD_DIR = os.path.join(ROOT, ".bench_build")

# Fresh set-up-only starts per untraced run, on top of one per operation:
# a single start varies by a third (0.15-0.26 s), a median far less.
SETUP_STARTS = 7
CHILD_TIMEOUT_S = 150

END_TO_END = (("setup_s", "s"), ("verdict_s", "s"), ("peak_rss_mb", "MiB"))


def child_env(seed):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = hash_seed(seed)
    # compiled once by the warm-up start, then read by every timed start
    env["PYTHONPYCACHEPREFIX"] = os.path.join(BUILD_DIR, "pycache")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


class Runner:
    """Starts the child processes of one run and counts their failures."""

    def __init__(self, workload, seed, workdir):
        self.workload = workload
        self.seed = seed
        self.env = child_env(seed)
        self.graph = os.path.join(workdir, "input.graph")
        self.out = os.path.join(workdir, "output.json")
        with open(self.graph, "w") as fh:
            fh.write(graph_text(workload, seed))
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def child(self, mode):
        """One operation in a fresh interpreter: its measurements, with the
        CLI's output under "output", or None when the process failed."""
        self.attempted += 1
        if os.path.exists(self.out):
            os.remove(self.out)
        cmd = [sys.executable, os.path.join(HERE, "child.py"), mode, self.graph, self.out]
        cmd += self.workload.argv
        try:
            proc = subprocess.run(
                cmd,
                cwd=ROOT,
                env=self.env,
                capture_output=True,
                text=True,
                timeout=CHILD_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return self._fail("%s operation exceeded %d s" % (mode, CHILD_TIMEOUT_S))
        lines = proc.stdout.splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            return self._fail(
                "%s operation exited %d without measurements: %s"
                % (mode, proc.returncode, proc.stderr.strip()[-500:])
            )
        if os.path.realpath(result["package"]) != os.path.realpath(PACKAGE):
            return self._fail("imported gpcubes from %s, not src/" % result["package"])
        if mode != "setup" and result["exit_code"] == 0:
            with open(self.out) as fh:
                result["output"] = fh.read()
        return result

    def operation(self, mode, golden):
        """child() plus the correctness gate on the CLI's output."""
        result = self.child(mode)
        if result is None:
            return None
        problems = verify(
            self.workload, self.seed, result["exit_code"], result.get("output", ""), golden
        )
        if problems:
            return self._fail("; ".join(problems))
        return result

    def _fail(self, problem):
        self.failed += 1
        self.problems.append(problem)
        print("FAILED: %s" % problem, file=sys.stderr)
        return None


def reference_loop_ms():
    """Median time of a fixed pure-Python loop: a host-speed diagnostic."""
    times = []
    for _ in range(5):
        t = time.perf_counter()
        x = 0
        for i in range(200_000):
            x += i * i
        times.append(time.perf_counter() - t)
    return statistics.median(times) * 1000


def repeat_until(deadline, operation):
    """Results of operation() repeated while the next call, lasting as long
    as the median call so far, would end by the deadline; at least one call.
    Failed calls (None) are left out."""
    results = []
    durations = []
    while not durations or time.perf_counter() + statistics.median(durations) <= deadline:
        start = time.perf_counter()
        result = operation()
        durations.append(time.perf_counter() - start)
        if result is not None:
            results.append(result)
    return results


def describe(values):
    return "median of %d (min %.4g, max %.4g)" % (len(values), min(values), max(values))


def measure_untraced(runner, golden, deadline):
    setups = [r["setup_s"] for r in (runner.child("setup") for _ in range(SETUP_STARTS)) if r]
    samples = repeat_until(deadline, lambda: runner.operation("run", golden))
    setups += [r["setup_s"] for r in samples]
    if not samples or not setups:
        return None
    series = {
        "setup_s": setups,
        "verdict_s": [r["verdict_s"] for r in samples],
        "peak_rss_mb": [r["peak_rss_mb"] for r in samples],
    }
    metrics = {}
    for name, unit in END_TO_END:
        metrics[name] = {"value": statistics.median(series[name]), "unit": unit}
        print("%-14s %12.6g %-4s %s" % (name, metrics[name]["value"], unit, describe(series[name])))
    return metrics


def traced_pair(runner, golden):
    """An untraced operation and then a traced one, or None if either failed.
    Back to back, the two see nearly the same host speed."""
    base = runner.operation("run", golden)
    traced = runner.operation("trace", golden)
    return None if base is None or traced is None else (base, traced)


def measure_traced(runner, golden, deadline):
    pairs = repeat_until(deadline, lambda: traced_pair(runner, golden))
    if not pairs:
        return None
    overhead = statistics.median(t["verdict_s"] - b["verdict_s"] for b, t in pairs)
    # one whole operation, the median by time, so its layers add up to it
    traced = sorted((t for _, t in pairs), key=lambda r: r["verdict_s"])
    median = traced[(len(traced) - 1) // 2]
    verdict = median["verdict_s"]
    measured = dict(median["layers"])
    measured["cli.import_s"] = median["import_s"]
    measured["trace.verdict_s"] = verdict
    measured["trace.overhead_s"] = overhead
    metrics = {}
    for name, unit, _, moves, workloads in LAYER_METRICS:
        metrics[name] = {"value": measured[name], "unit": unit}
        print(
            "%-28s %14.6g %-5s moves %s on %s"
            % (name, measured[name], unit, moves, ", ".join(workloads))
        )
    self_total = sum(v["value"] for k, v in metrics.items() if k.endswith(".self_s"))
    print(
        "layer self times sum to %.4f s of traced verdict_s %.4f s (median of %d traced, "
        "%d spans); tracing overhead %.4f s (median over %d untraced-traced pairs)"
        % (self_total, verdict, len(traced), median["spans"], overhead, len(pairs))
    )
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind so that subprocess.run kills and reaps the child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(PACKAGE):
        print("error: no gpcubes sources at %s" % PACKAGE, file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    golden = load_golden()
    workdir = os.path.join(BUILD_DIR, "run-%d" % os.getpid())
    os.makedirs(workdir, exist_ok=True)
    try:
        runner = Runner(workload, args.seed, workdir)
        runner.child("setup")  # warm-up: fills the bytecode cache, untimed
        print(
            "workload %s, seed %d (variant %d, PYTHONHASHSEED %s), %g s, trace %d"
            % (workload.name, args.seed, variant_of(args.seed), runner.env["PYTHONHASHSEED"],
               args.seconds, args.trace)
        )
        print("host reference loop %.2f ms (diagnostic, not a metric)" % reference_loop_ms())
        deadline = time.perf_counter() + args.seconds
        measure = measure_traced if args.trace else measure_untraced
        metrics = measure(runner, golden, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(
        "fail_rate %.4g (%d of %d operations failed)"
        % (runner.failed / runner.attempted, runner.failed, runner.attempted)
    )
    if metrics is None:
        print("error: no operation succeeded: %s" % runner.problems[-3:], file=sys.stderr)
        return 1
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
