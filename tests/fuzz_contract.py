"""Seeded fuzzer of the CLI's exit-code contract; not a pytest module.

Each case is an argv drawn from cli.COMMANDS itself, so a new flag is
fuzzed without an edit here: every required flag and, with odds 1/2,
every other one; a choice from its choices, a graph from fixtures/, an
integer from INTEGERS, a label list from LABELS.  Each case runs in a
fresh process, one at a time, with its address space capped at 600 MB
(on the child only) and a 10 s timeout.  A case is printed when it
exits outside 0/2/3/4/5/6, prints a traceback, or runs over 5 s, and,
for a --json case that exits 0, 5 or 6, when its report (the last
stdout line) breaks the report contract: a status that does not match
the exit code, no inputs in a graph command's report, or a truncated
report without a note.

    PYTHONPATH=src python tests/fuzz_contract.py --seed 1 --cases 200

The exit code is 1 when any case was printed.
"""

import argparse
import json
import os
import random
import resource
import subprocess
import sys
import time

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
sys.path.insert(0, os.path.join(ROOT, "src"))

from groupoidlab import cli  # noqa: E402

FIXTURES = sorted(
    os.path.join("fixtures", f) for f in os.listdir(os.path.join(ROOT, "fixtures"))
)
INTEGERS = (-1, 0, 1, 2, 3, 5, 8, 13, 20, 40, 100, 10**3, 10**4, 10**6, 10**9, 10**18)
LABELS = (-3, -2, -1, 0, 1, 2, 3, 10**9)
ROOTS = ("v", "v1", "a", "nope", "")
CONTRACT = {0, 2, 3, 4, 5, 6}
STATUS = {0: "ok", 5: "truncated", 6: "verification-mismatch"}
SLOW_S, TIMEOUT_S, ADDRESS_SPACE = 5, 10, 600 * 2**20


def draw_value(rng, option, kwargs) -> str:
    """One value for a value-taking flag, by its option, choices or type."""
    if "choices" in kwargs:
        return rng.choice(kwargs["choices"])
    if option == "--graph":
        return rng.choice(FIXTURES)
    if option == "--root":
        return rng.choice(ROOTS)
    kind = kwargs.get("type")
    if kind is cli._index_list:
        return ",".join(str(rng.choice(LABELS)) for _ in range(rng.choice((1, 2, 3, 4, 8))))
    if kind is cli._label_pair:
        return f"{rng.choice(LABELS)},{rng.choice(LABELS)}"
    return str(rng.choice(INTEGERS))


def draw_argv(rng) -> list:
    name = rng.choice(sorted(cli.COMMANDS))
    argv = [name]
    for option, kwargs in cli.COMMANDS[name][2]:
        if not kwargs.get("required") and rng.random() < 0.5:
            continue
        argv.append(option)
        if "action" not in kwargs:  # store_true and store_const take no value
            argv.append(draw_value(rng, option, kwargs))
    return argv


def cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))


def run_case(argv) -> str | None:
    """Why the case breaks the contract, or None when it keeps it."""
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "groupoidlab.cli", *argv],
            capture_output=True, text=True, cwd=ROOT, timeout=TIMEOUT_S,
            preexec_fn=cap_address_space,
            env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")),
        )
    except subprocess.TimeoutExpired:
        return f"no exit within {TIMEOUT_S} s"
    took = time.perf_counter() - start
    if proc.returncode not in CONTRACT:
        return f"exit {proc.returncode}: {proc.stderr.strip().splitlines()[-1:]}"
    if "Traceback" in proc.stderr:
        return f"traceback, exit {proc.returncode}"
    if took > SLOW_S:
        return f"exit {proc.returncode} after {took:.1f} s"
    if "--json" in argv and proc.returncode in STATUS:
        return report_fault(argv, proc.returncode, proc.stdout)
    return None


def report_fault(argv, code, stdout) -> str | None:
    """Why the JSON report on stdout breaks the report contract, or None."""
    try:
        report = json.loads(stdout.splitlines()[-1])
    except (IndexError, ValueError):
        return f"exit {code} without a JSON report"
    if report.get("status") != STATUS[code]:
        return f"exit {code} with status {report.get('status')!r}"
    if "--graph" in argv and "inputs" not in report:
        return f"exit {code}: a graph command's report without inputs"
    if code == 5 and not report.get("diagnostics", {}).get("notes"):
        return "exit 5: a truncated report without a note"
    return None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--cases", type=int, default=200)
    args = parser.parse_args()
    rng = random.Random(args.seed)
    flagged = 0
    for i in range(args.cases):
        argv = draw_argv(rng)
        why = run_case(argv)
        if why:
            flagged += 1
            print(f"case {i}: {why}: {' '.join(argv)}", flush=True)
    print(f"seed {args.seed}: {flagged} of {args.cases} cases flagged")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
