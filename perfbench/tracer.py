"""Traced in-process passes and the per-layer metrics built from them.

Run as a child process:  python3 perfbench/tracer.py SPEC OUT

SPEC is a JSON file {"commands": [argv, ...], "seconds": s}.  The child
imports groupoidlab.cli (timed: cli.import_s), runs one warm-up pass,
then alternates an untraced and a traced pass through cli.main(argv)
while another such pair still fits in s seconds.  During a traced
pass, wrappers defined here surround the public entry points each
module exposes at the call sites the CLI uses; the program's source is
not touched.  Each span is [id, parent id, name, command index, start,
end], and counts recorded at the same boundaries are summed per
(span name, command, key).  Both stay in memory and OUT (JSON) is
written once, at the end.

A layer's time metric is its self time: the duration of its spans minus
the part covered by their child spans.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import statistics
import sys
import time
import traceback
from array import array

import inputs

# (module, attribute, span name, counter of the return value, count
# after the pass)
WRAPPED = (
    ("groupoidlab.graphio", "parse_graph_file", "graphio.parse", None, False),
    ("groupoidlab.cli", "validate_graph", "graphs.shadow", None, False),
    ("groupoidlab.cli", "shadow", "graphs.shadow", None, False),
    ("groupoidlab.labeling", "assign_weights", "labeling.assign", None, False),
    ("groupoidlab._kernel", "kernel_graph", "kernel.flatten", None, False),
    ("groupoidlab._kernel", "tally_words", "kernel.tally",
     lambda out: {"words": out[1], "hits": sum(out[0])}, False),
    ("groupoidlab.moments", "w_m_set", "moments.word_set", None, False),
    ("groupoidlab.operators", "build_basis", "operators.basis",
     lambda b: {"size": len(b), "vertices": b.n_vertices}, False),
    ("groupoidlab.operators", "total_labeling_operator", "operators.build",
     lambda op: {"nnz": op.nnz()}, True),
    ("groupoidlab.operators", "SparseOperator.power", "operators.power", None, False),
    ("groupoidlab.operators", "SparseOperator.__matmul__", "operators.matmul", None, False),
    ("groupoidlab.moments", "enumerate_nc", "ncpartitions.enum",
     lambda ps: {"partitions": len(ps)}, False),
    ("groupoidlab.ncpartitions", "enumerate_nc", "ncpartitions.enum",
     lambda ps: {"partitions": len(ps)}, False),
    ("groupoidlab.moments", "moebius", "ncpartitions.moebius", None, False),
    ("groupoidlab.ncpartitions", "moebius", "ncpartitions.moebius", None, False),
    ("groupoidlab.moments", "expectation_pi", "moments.e_pi",
     lambda d: {"nonzero": int(not d.is_zero)}, False),
    ("groupoidlab.moments", "cumulant_of", "moments.cumulant", None, False),
    ("groupoidlab.moments", "cumulant_via_wc", "moments.cumulant_wc", None, False),
    ("groupoidlab.moments", "check_freeness", "moments.freeness",
     lambda r: {"tuples": r.tuples_checked}, False),
    ("groupoidlab.automaton", "build_tree", "automaton.tree",
     lambda t: {"nodes": len(t.nodes())}, True),
    ("groupoidlab.automaton", "is_fractaloid", "automaton.fractaloid", None, False),
)

# (metric, unit, better); every one is reported on every workload, as 0
# only where a pass does not reach the layer, which inputs.COVERAGE
# prevents.
LAYER_METRICS = (
    ("cli.import_s", "s", "lower"),
    ("cli.main_s", "s", "lower"),
    ("cli.slowest_cmd_s", "s", "lower"),
    ("graphio.parse_s", "s", "lower"),
    ("graphs.shadow_s", "s", "lower"),
    ("labeling.assign_s", "s", "lower"),
    ("kernel.flatten_s", "s", "lower"),
    ("cli.emit_s", "s", "lower"),
    ("cli.emit_bytes", "B", "lower"),
    ("automaton.tree_s", "s", "lower"),
    ("automaton.tree_nodes", "count", "lower"),
    ("automaton.fractaloid_s", "s", "lower"),
    ("kernel.tally_s", "s", "lower"),
    ("kernel.tally_calls", "count", "lower"),
    ("kernel.words", "count", "lower"),
    ("kernel.words_per_s", "1/s", "higher"),
    ("kernel.hit_ratio", "ratio", "higher"),
    ("kernel.words_growth_x", "ratio", "lower"),
    ("moments.word_set_s", "s", "lower"),
    ("operators.basis_s", "s", "lower"),
    ("operators.basis_size", "count", "lower"),
    ("operators.build_s", "s", "lower"),
    ("operators.nnz", "count", "lower"),
    ("operators.power_s", "s", "lower"),
    ("operators.matmul_s", "s", "lower"),
    ("operators.matmul_calls", "count", "lower"),
    ("operators.useful_col_ratio", "ratio", "higher"),
    ("ncpartitions.enum_s", "s", "lower"),
    ("ncpartitions.partitions", "count", "lower"),
    ("ncpartitions.moebius_s", "s", "lower"),
    ("moments.e_pi_s", "s", "lower"),
    ("moments.e_pi_calls", "count", "lower"),
    ("moments.e_pi_nonzero_ratio", "ratio", "higher"),
    ("moments.cumulant_s", "s", "lower"),
    ("moments.cumulant_wc_s", "s", "lower"),
    ("moments.freeness_s", "s", "lower"),
    ("moments.freeness_tuples", "count", "lower"),
    ("trace.overhead_x", "ratio", "lower"),
)


def growth_pair(commands) -> tuple:
    """Command indices (n, n-1) of the `moments` commands on example-6-2
    with the largest n whose n-1 is also in the list: the two lengths of
    kernel.words_growth_x."""
    at = {}
    for i, argv in enumerate(commands):
        if argv[0] == "moments" and argv[1:3] == inputs.fixture("example-6-2"):
            at[int(argv[argv.index("--n") + 1])] = i
    n = max(k for k in at if k - 1 in at)
    return at[n], at[n - 1]


class Recorder:
    """Span store for one traced pass.  Spans live in flat arrays and
    counts in one small dict, so keeping them adds next to no work for
    the cyclic garbage collector while the program runs."""

    def __init__(self):
        self.names = []
        self.parent = array("q")
        self.cmd_of = array("q")
        self.start = array("d")
        self.end = array("d")
        self.counts = {}  # (span name, command index, key) -> sum
        self.stack = []
        self.cmd = -1
        self.deferred = []

    def call(self, name, fn, args, kwargs, counter=None, deferred=False):
        sid = len(self.names)
        self.names.append(name)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.cmd_of.append(self.cmd)
        self.end.append(0.0)
        self.stack.append(sid)
        self.start.append(time.perf_counter())
        try:
            out = fn(*args, **kwargs)
        finally:
            self.end[sid] = time.perf_counter()
            self.stack.pop()
        if counter is not None:
            if deferred:
                # costly counts wait for the end of the pass, so counting
                # adds nothing to the enclosing span's self time
                self.deferred.append((name, self.cmd, counter, out))
            else:
                self.count(name, self.cmd, counter(out))
        return out

    def count(self, name, cmd, values):
        for key, v in values.items():
            k = (name, cmd, key)
            self.counts[k] = self.counts.get(k, 0) + v

    def finish(self):
        for name, cmd, counter, out in self.deferred:
            self.count(name, cmd, counter(out))
        self.deferred = []

    def spans(self):
        """[id, parent id or -1, name, command index, start, end]."""
        return [
            [i, self.parent[i], self.names[i], self.cmd_of[i], self.start[i], self.end[i]]
            for i in range(len(self.names))
        ]


def _owner(module, attr):
    obj = importlib.import_module(module)
    *path, name = attr.split(".")
    for part in path:
        obj = getattr(obj, part)
    return obj, name


def install(rec: Recorder):
    """Wrap every entry point in WRAPPED; returns the undo list."""
    undo = []
    for module, attr, span, counter, deferred in WRAPPED:
        owner, name = _owner(module, attr)
        original = owner.__dict__[name]

        def wrapper(*args, _fn=original, _span=span, _counter=counter, _deferred=deferred, **kwargs):
            return rec.call(_span, _fn, args, kwargs, _counter, _deferred)

        setattr(owner, name, wrapper)
        undo.append((owner, name, original))
    cli = importlib.import_module("groupoidlab.cli")
    emit = cli._emit

    def emit_wrapper(args, report):
        before = sys.stdout.tell()
        out = rec.call("cli.emit", emit, (args, report), {})
        rec.count("cli.emit", rec.cmd, {"bytes": sys.stdout.tell() - before})
        return out

    cli._emit = emit_wrapper
    undo.append((cli, "_emit", emit))
    return undo


def uninstall(undo):
    for owner, name, original in reversed(undo):
        setattr(owner, name, original)


def run_pass(cli, commands, rec: Recorder | None = None) -> tuple:
    """One pass; returns (wall seconds, [[exit code, stdout, stderr], ...])."""
    outputs = []
    t0 = time.perf_counter()
    for i, argv in enumerate(commands):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                if rec is None:
                    code = cli.main(argv)
                else:
                    rec.cmd = i
                    code = rec.call("cli.main", cli.main, (argv,), {})
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception:
                traceback.print_exc()
                code = 1
        outputs.append([code, out.getvalue(), err.getvalue()])
    return time.perf_counter() - t0, outputs


def self_times(spans) -> dict:
    """Span id -> duration minus the union of its children's intervals,
    clipped to the span."""
    children = {}
    for s in spans:
        if s[1] >= 0:
            children.setdefault(s[1], []).append((s[4], s[5]))
    out = {}
    for s in spans:
        start, end = s[4], s[5]
        covered, reach = 0.0, start
        for a, b in sorted(children.get(s[0], ())):
            a, b = max(a, reach), min(b, end)
            if b > a:
                covered += b - a
                reach = b
        out[s[0]] = (end - start) - covered
    return out


def pass_metrics(spans, counts, commands) -> dict:
    """Per-layer metrics of one traced pass; counts holds [span name,
    command index, key, sum].  trace.overhead_x and cli.import_s are
    filled in by the caller."""
    m = {name: 0 for name, _, _ in LAYER_METRICS}
    calls, sums, words_by_cmd = {}, {}, {}
    for s in spans:
        calls[s[2]] = calls.get(s[2], 0) + 1
    for name, cmd, key, v in counts:
        sums[name, key] = sums.get((name, key), 0) + v
        if (name, key) == ("kernel.tally", "words"):
            words_by_cmd[cmd] = v
    for sid, t in self_times(spans).items():
        key = spans[sid][2] + "_s"
        if key in m:
            m[key] += t
    m["cli.slowest_cmd_s"] = max((s[5] - s[4] for s in spans if s[2] == "cli.main"), default=0)
    m["cli.emit_bytes"] = sums.get(("cli.emit", "bytes"), 0)
    m["automaton.tree_nodes"] = sums.get(("automaton.tree", "nodes"), 0)
    words = sums.get(("kernel.tally", "words"), 0)
    m["kernel.tally_calls"] = calls.get("kernel.tally", 0)
    m["kernel.words"] = words
    m["kernel.words_per_s"] = words / m["kernel.tally_s"] if m["kernel.tally_s"] else 0
    m["kernel.hit_ratio"] = sums.get(("kernel.tally", "hits"), 0) / words if words else 0
    hi, lo = growth_pair(commands)
    if words_by_cmd.get(lo):
        m["kernel.words_growth_x"] = words_by_cmd.get(hi, 0) / words_by_cmd[lo]
    size = sums.get(("operators.basis", "size"), 0)
    m["operators.basis_size"] = size
    m["operators.nnz"] = sums.get(("operators.build", "nnz"), 0)
    m["operators.matmul_calls"] = calls.get("operators.matmul", 0)
    m["operators.useful_col_ratio"] = sums.get(("operators.basis", "vertices"), 0) / size if size else 0
    m["ncpartitions.partitions"] = sums.get(("ncpartitions.enum", "partitions"), 0)
    e_pi = calls.get("moments.e_pi", 0)
    m["moments.e_pi_calls"] = e_pi
    m["moments.e_pi_nonzero_ratio"] = sums.get(("moments.e_pi", "nonzero"), 0) / e_pi if e_pi else 0
    m["moments.freeness_tuples"] = sums.get(("moments.freeness", "tuples"), 0)
    return m


def layer_metrics(trace: dict, commands) -> dict:
    """Medians over the traced passes of a tracer output."""
    traced = [p for p in trace["passes"] if p["traced"]]
    plain = [p["wall_s"] for p in trace["passes"] if not p["traced"] and not p["warmup"]]
    per_pass = [pass_metrics(p["spans"], p["counts"], commands) for p in traced]
    m = {name: statistics.median(pm[name] for pm in per_pass) for name, _, _ in LAYER_METRICS}
    m["cli.import_s"] = trace["import_s"]
    m["trace.overhead_x"] = statistics.fmean(p["wall_s"] for p in traced) / statistics.fmean(plain)
    return m


def main(spec_path, out_path):
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    t0 = time.perf_counter()
    from groupoidlab import cli

    import_s = time.perf_counter() - t0
    commands = spec["commands"]
    passes = []

    def record(rec, warmup, wall, outputs):
        passes.append({"recorder": rec, "warmup": warmup, "wall_s": wall, "outputs": outputs})

    record(None, True, *run_pass(cli, commands))
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        record(None, False, *run_pass(cli, commands))
        rec = Recorder()
        undo = install(rec)
        try:
            wall, outputs = run_pass(cli, commands, rec)
        finally:
            uninstall(undo)
        rec.finish()
        record(rec, False, wall, outputs)
        now = time.perf_counter()
        if now - start + (now - t0) >= spec["seconds"]:
            break
    for p in passes:
        rec = p.pop("recorder")
        p["traced"] = rec is not None
        p["spans"] = rec.spans() if rec else []
        p["counts"] = [[*k, v] for k, v in rec.counts.items()] if rec else []
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"import_s": import_s, "passes": passes}, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
