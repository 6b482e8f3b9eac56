"""Layered CLI benchmark for groupoidlab.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the program is taken from ./src.  Each
command of the workload runs as a fresh `python -m groupoidlab.cli ...
--json` process, one at a time (a closed loop with one client).  Every
output is checked against a reference computed before timing by
perfbench/refs.py.  The last line of standard output is one JSON object
{"correct", "attempted", "failed", "metrics"}; the line before it is the
run record (machine, Python, kernel backend, source revision).

--trace 0 repeats passes over the command list while another pass
fits in --seconds, with a round of `moments --n 1` over the workload's
graphs before each pass, and reports the end-to-end metrics:
  wall_s         mean wall time of a pass (the commands' times summed)
  cpu_s          mean over passes of the children's user+sys time
                 (os.wait4)
  setup_s        median wall time of the `moments --n 1` commands
  peak_rss_mb    largest child ru_maxrss
The three times are host-speed scaled: this process times a fixed
pure-Python loop (host_speed) before and after each child, and the
child's times are multiplied by SPEED_REF_S / the mean of the two loop
times.  They read as seconds on a host where the loop takes
SPEED_REF_S.  The harness pins itself, and so its children, to one CPU,
so that the loop samples the CPU the child ran on.  On a shared host
whose speed drifts by tens of percent within seconds, this more than
halves the run-to-run spread.  The unscaled figures are in the run
record.
--trace 1 runs the same commands in one child process through
cli.main and reports the per-layer metrics of perfbench/tracer.py.

The exit code is 0 when every command matched its reference, 1 when
any failed, 2 when the program cannot be found or run at all.  The
record is printed after the measurement, as the line before the result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import inputs  # noqa: E402
import refs  # noqa: E402
import tracer  # noqa: E402

# Measured as users get it by default: no forced pure backend, no thread
# fan-out, bytecode caches written.
STRIPPED_ENV = ("GROUPOIDLAB_PURE", "GROUPOID_LAB_THREADS", "PYTHONDONTWRITEBYTECODE")
DEADLINE_S = 170.0
END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# Reference time of the host_speed loop: the scaled times read as seconds
# on a host where the loop takes this long.
SPEED_REF_S = 0.010

PROBE = (
    "import json, platform\n"
    "from groupoidlab import _kernel, operators\n"
    "print(json.dumps({'backend': _kernel.backend_name(),"
    " 'basis_budget': operators.BASIS_BUDGET,"
    " 'python': platform.python_version()}))\n"
)


class Failure(Exception):
    """The program could not be run at all."""


def child_env(root: str) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in STRIPPED_ENV}
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


class Runner:
    """Runs CLI commands as child processes and checks their output."""

    def __init__(self, root, env, work, deadline):
        self.root, self.env, self.work, self.deadline = root, env, work, deadline
        self.attempted = 0
        self.failed = 0

    def spawn(self, program):
        """Run one child to completion; returns (wall s, rusage, exit
        code, stdout, stderr).  A child still running at the deadline
        is killed."""
        out_path = os.path.join(self.work, "stdout")
        err_path = os.path.join(self.work, "stderr")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(program, stdout=out, stderr=err, env=self.env, cwd=self.root)
            timer = threading.Timer(max(1.0, self.deadline - time.monotonic()), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        # reaped by os.wait4 already, so Popen must not wait for it again
        proc.returncode = os.waitstatus_to_exitcode(status)
        with open(out_path, encoding="utf-8", errors="replace") as fh:
            stdout = fh.read()
        with open(err_path, encoding="utf-8", errors="replace") as fh:
            stderr = fh.read()
        return wall, usage, proc.returncode, stdout, stderr

    def run(self, argv, ref):
        """One CLI command, counted and checked.  Returns (wall s,
        user+sys s, max RSS in MB)."""
        wall, usage, code, stdout, stderr = self.spawn(
            [sys.executable, "-m", "groupoidlab.cli", *argv, "--json"]
        )
        self.tally(argv, ref, code, stdout, stderr)
        return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0

    def tally(self, argv, ref, code, stdout, stderr):
        self.attempted += 1
        reason = check(argv, ref, code, stdout, stderr)
        if reason:
            self.failed += 1
            print(f"FAILED {' '.join(argv)}: {reason}", file=sys.stderr)


def check(argv, ref, code, stdout, stderr):
    """Why the output of one command is wrong, or None when it matches
    the reference (exit code, result, status; diagnostics are not
    compared)."""
    exp_code, exp_result, exp_status = ref
    if "Traceback (most recent call last)" in stdout + stderr:
        return "printed a traceback"
    if code != exp_code:
        return f"exit code {code}, expected {exp_code}"
    lines = stdout.strip().splitlines()
    try:
        report = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return "output is not JSON"
    if not isinstance(report, dict):
        return "no JSON report"
    if report.get("status") != exp_status:
        return f"status {report.get('status')!r}, expected {exp_status!r}"
    if refs.normalized(argv, report.get("result")) != exp_result:
        return "result differs from the reference"
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def _revision(root: str) -> dict:
    """Git commit when the checkout is a repository, and a digest of the
    program's source either way."""
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for base, dirs, files in os.walk(src):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith((".py", ".pyx")):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    commit = None
    if os.path.isdir(os.path.join(root, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def probe(runner: Runner) -> dict:
    _, _, code, stdout, stderr = runner.spawn([sys.executable, "-c", PROBE])
    if code != 0:
        raise Failure(f"cannot import groupoidlab from ./src: {stderr.strip()[-300:]}")
    return json.loads(stdout)


def host_speed() -> float:
    """Seconds this process takes for a fixed pure-Python loop: a sample
    of the host's current speed, independent of the program."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(100_000):
        acc += i * i % 7
    return time.perf_counter() - t0


def timed(runner, cmds, graphs, expect, seconds) -> tuple:
    """Passes over cmds, each after a round of set-up commands, while a
    further pass still fits in `seconds`; the first round only warms
    up.  Returns (metrics, unscaled figures)."""

    last = host_speed()

    def measure(argv):
        """(scaled wall, scaled user+sys, max RSS, wall, loop s); the loop
        time after one child is the one before the next."""
        nonlocal last
        before = last
        wall, cpu, rss = runner.run(argv, expect[tuple(argv)])
        last = host_speed()
        speed = (before + last) / 2
        scale = SPEED_REF_S / speed
        return wall * scale, cpu * scale, rss, wall, speed

    def setup_round():
        return [measure(["moments", *g, "--n", "1"]) for g in graphs]

    setup_round()  # warm-up: every module imported, bytecode written
    setup, passes = [], []
    start = time.perf_counter()
    longest = 0.0
    while not passes or time.perf_counter() - start + longest < seconds:
        t0 = time.perf_counter()
        setup.extend(setup_round())
        passes.append([measure(argv) for argv in cmds])
        longest = max(longest, time.perf_counter() - t0)
    mean, median = statistics.fmean, statistics.median
    metrics = {
        "wall_s": mean(sum(c[0] for c in p) for p in passes),
        "cpu_s": mean(sum(c[1] for c in p) for p in passes),
        "setup_s": median(c[0] for c in setup),
        "peak_rss_mb": max(c[2] for p in passes for c in p),
    }
    unscaled = {
        "passes": len(passes),
        "wall_s": mean(sum(c[3] for c in p) for p in passes),
        "setup_s": median(c[3] for c in setup),
        "host_speed_s": median(c[4] for p in passes for c in p),
    }
    return metrics, unscaled


def traced(runner, cmds, expect, seconds, trace_path) -> dict:
    commands = [argv + ["--json"] for argv in cmds]
    spec_path = os.path.join(runner.work, "trace-spec.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump({"commands": commands, "seconds": seconds}, fh)
    _, _, code, _, stderr = runner.spawn(
        [sys.executable, os.path.join(HERE, "tracer.py"), spec_path, trace_path]
    )
    if code != 0:
        raise Failure(f"traced pass failed: {stderr.strip()[-500:]}")
    with open(trace_path, encoding="utf-8") as fh:
        trace = json.load(fh)
    for p in trace["passes"]:
        for argv, (rc, stdout, stderr) in zip(cmds, p["outputs"]):
            runner.tally(argv, expect[tuple(argv)], rc, stdout, stderr)
    return tracer.layer_metrics(trace, commands)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    root = os.getcwd()
    build = os.path.join(root, ".bench_build")
    for needed in ("src/groupoidlab/cli.py", "fixtures/example-6-2.json"):
        if not os.path.isfile(os.path.join(root, needed)):
            print(f"run from the repository root: {needed} not found", file=sys.stderr)
            return 2
    # one CPU for the harness and every child: host_speed then samples
    # the CPU the child ran on, and the scheduler cannot migrate it
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    os.makedirs(build, exist_ok=True)
    work = tempfile.mkdtemp(prefix="perfbench-", dir=build)
    try:
        runner = Runner(root, child_env(root), work, deadline)
        info = probe(runner)
        # graph paths relative to the checkout, as a user would type them
        cmds, graphs = inputs.workload(args.workload, args.seed, os.path.relpath(work, root))
        cache = {}
        setup_cmds = [["moments", *g, "--n", "1"] for g in graphs]
        expect = {
            tuple(c): refs.expected(cache, c, info["basis_budget"]) for c in cmds + setup_cmds
        }
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "nproc": os.cpu_count(),
            "pinned_cpu": cpu,
            "cpu_model": _cpu_model(),
            "python": info["python"],
            "backend": info["backend"],
            **_revision(root),
            "commands": [" ".join(c) for c in cmds],
        }
        if args.trace:
            trace_path = os.path.join(build, f"trace-{args.workload}.json")
            metrics = traced(runner, cmds, expect, args.seconds, trace_path)
            units = {name: unit for name, unit, _ in tracer.LAYER_METRICS}
        else:
            metrics, record["unscaled"] = timed(runner, cmds, graphs, expect, args.seconds)
            units = END_TO_END
        print(json.dumps({"record": record}), flush=True)
    except Failure as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(
        json.dumps(
            {
                "correct": runner.failed == 0,
                "attempted": runner.attempted,
                "failed": runner.failed,
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            }
        ),
        flush=True,
    )
    return 1 if runner.failed else 0


if __name__ == "__main__":
    sys.exit(main())
