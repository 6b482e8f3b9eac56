"""Self-tests of the benchmark harness.

    PYTHONPATH=src python3 -m pytest -q perfbench

They check that wrong output is counted as a failure, the self-time
arithmetic, that the reference routes agree with the program's own
second routes on small inputs, and that BENCHMARK.json matches the
metrics the harness reports.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import inputs  # noqa: E402
import refs  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

FIXTURES = [f"fixtures/{name}.json" for name in inputs.FIXTURES]


@pytest.fixture
def work():
    build = os.path.join(ROOT, ".bench_build")
    os.makedirs(build, exist_ok=True)
    path = tempfile.mkdtemp(prefix="selftest-", dir=build)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _runner(work):
    return run.Runner(ROOT, run.child_env(ROOT), work, time.monotonic() + 60)


LATTICE = ["lattice", "--max-label", "1", "--length", "2"]


def test_correct_output_passes(work):
    r = _runner(work)
    r.run(LATTICE, refs.expected({}, LATTICE, 100_000))
    assert (r.attempted, r.failed) == (1, 0)


def test_wrong_reference_counts_as_failure(work):
    r = _runner(work)
    code, result, status = refs.expected({}, LATTICE, 100_000)
    r.run(LATTICE, (code, dict(result, count="3"), status))
    r.run(LATTICE, (5, result, "truncated"))
    assert (r.attempted, r.failed) == (2, 2)


def test_traceback_counts_as_failure(work):
    r = _runner(work)
    ref = refs.expected({}, LATTICE, 100_000)
    report = {"command": "lattice", "result": ref[1], "status": "ok"}
    script = (
        "import json, traceback\n"
        f"print(json.dumps({report!r}))\n"
        "try:\n    1 / 0\nexcept ZeroDivisionError:\n    traceback.print_exc()\n"
    )
    _, _, code, stdout, stderr = r.spawn([sys.executable, "-c", script])
    assert code == 0
    r.tally(LATTICE, ref, code, stdout, stderr)
    assert (r.attempted, r.failed) == (1, 1)
    assert run.check(LATTICE, ref, code, stdout, "") is None


def test_self_time_on_hand_built_tree():
    # main [0, 10] > e_pi [1, 4] > moebius [2, 3];  main > e_pi [5, 6]
    spans = [
        [0, -1, "cli.main", 0, 0.0, 10.0],
        [1, 0, "moments.e_pi", 0, 1.0, 4.0],
        [2, 1, "ncpartitions.moebius", 0, 2.0, 3.0],
        [3, 0, "moments.e_pi", 0, 5.0, 6.0],
    ]
    assert tracer.self_times(spans) == {0: 6.0, 1: 2.0, 2: 1.0, 3: 1.0}
    commands = [list(c) for c in inputs.COVERAGE]
    m = tracer.pass_metrics(spans, [["moments.e_pi", 0, "nonzero", 1]], commands)
    assert m["cli.main_s"] == 6.0
    assert m["cli.slowest_cmd_s"] == 10.0
    assert m["moments.e_pi_s"] == 3.0
    assert m["ncpartitions.moebius_s"] == 1.0
    assert m["moments.e_pi_calls"] == 2
    assert m["moments.e_pi_nonzero_ratio"] == 0.5
    assert m["kernel.tally_s"] == 0


def test_words_growth_uses_the_largest_pair(work):
    cmds, _ = inputs.workload("enum-moments", 0, work)
    hi, lo = tracer.growth_pair(cmds)
    assert (cmds[hi][-1], cmds[lo][-1]) == ("10", "9")
    cmds, _ = inputs.workload("small-batch", 0, work)
    hi, lo = tracer.growth_pair(cmds)
    assert cmds[hi][3:5] == ["--n", "6"] and cmds[lo][3:] == ["--n", "5"]


def test_self_time_clips_overlapping_children():
    spans = [
        [0, -1, "cli.main", 0, 0.0, 10.0],
        [1, 0, "graphio.parse", 0, 1.0, 5.0],
        [2, 0, "graphs.shadow", 0, 4.0, 12.0],
    ]
    assert tracer.self_times(spans)[0] == pytest.approx(1.0)


def _lg(path):
    from groupoidlab import graphio, graphs, labeling

    g, labels = graphio.parse_graph_file(os.path.join(ROOT, path))
    mode = "explicit" if labels else "vertex"
    return labeling.assign_weights(graphs.shadow(g), mode, explicit=labels)


def _diag(d):
    return {v: str(c) for v, c in d.coeffs}


@pytest.mark.parametrize("path", FIXTURES)
def test_closed_walks_match_operator_oracle(path):
    from groupoidlab import operators

    g = refs.load_graph(os.path.join(ROOT, path))
    lg = _lg(path)
    for n in range(1, 7):
        oracle = operators.oracle_expectation_power(lg, n, n)
        assert refs.closed_walks(g, n) == [oracle[v] for v in g.vertices]


@pytest.mark.parametrize("name", ["example-6-2", "one-loop", "two-loop", "circulant-3"])
def test_cumulants_match_both_program_routes(name):
    from groupoidlab import moments

    path = f"fixtures/{name}.json"
    g = refs.load_graph(os.path.join(ROOT, path))
    lg = _lg(path)
    for n in range(1, 7):
        k = refs._diag(g, refs.cumulant(g, [None] * n))
        assert k == _diag(moments.cumulant_direct(lg, n)) == _diag(moments.cumulant_via_wc(lg, n))
    assert refs._diag(g, refs.closed_walks(g, 6)) == _diag(moments.moment_via_cumulants(lg, 6))


def test_joint_matches_program():
    from groupoidlab import moments

    path = "fixtures/example-6-2.json"
    g = refs.load_graph(os.path.join(ROOT, path))
    lg = _lg(path)
    rng = random.Random(7)
    for _ in range(12):
        idx = [rng.choice((1, -1, 2, -2)) for _ in range(rng.randint(2, 6))]
        assert refs._diag(g, refs.joint_moment(g, idx)) == _diag(moments.joint_moment(lg, idx))
        assert refs._diag(g, refs.cumulant(g, idx)) == _diag(moments.joint_cumulant(lg, idx))


def test_nc_and_lattice_match_program():
    from groupoidlab import labeling, ncpartitions

    for n in range(1, 8):
        mine = {tuple(p): refs.moebius_to_top(p, n) for p in refs.nc_partitions(n)}
        theirs = {pi.blocks: ncpartitions.moebius(pi) for pi in ncpartitions.enumerate_nc(n)}
        assert mine == theirs
    ref = refs.expected({}, ["lattice", "--max-label", "2", "--length", "6"], 0)
    assert ref[1]["count"] == str(labeling.count_axis_paths(2, 6))


def test_oracle_truncation_reference():
    g = refs.load_graph(os.path.join(ROOT, "fixtures/three-loop.json"))
    # 1 + 6 (1 + 5 + ... + 5^6): the basis passes 100000 at length 7
    assert refs.reduced_path_count(g, 6) == 23437 and refs.reduced_path_count(g, 7) == 117187


def test_inputs_are_seeded(work):
    a = os.path.join(work, "a")
    b = os.path.join(work, "b")
    os.makedirs(a)
    os.makedirs(b)
    for wl in inputs.WORKLOADS:
        ca, _ = inputs.workload(wl, 3, a)
        cb, _ = inputs.workload(wl, 3, b)
        assert [[x.replace(a, b) for x in c] for c in ca] == cb
    for name in os.listdir(a):
        with open(os.path.join(a, name)) as fa, open(os.path.join(b, name)) as fb:
            assert fa.read() == fb.read()
    for seed in range(10):
        g = inputs.enum_graph(random.Random(f"enum-moments:{seed}"))
        words = inputs.walk_count(g, inputs.ENUM_LENGTH)
        assert abs(words / inputs.ENUM_WALKS - 1) < inputs.ENUM_TOLERANCE


def test_small_batch_covers_all_labeling_modes(work):
    cmds, graphs = inputs.workload("small-batch", 0, work)
    cache = {}
    for c in cmds:
        refs.expected(cache, c, 100_000)
    assert {g.mode for g in cache.values()} == {"vertex", "explicit", "multiedge"}


def test_benchmark_json_matches_harness():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(inputs.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(
        tracer.LAYER_METRICS
    )
    assert {m["name"] for m in spec["end_to_end"]} == set(run.END_TO_END)


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_traced_run_reaches_every_layer(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {name for name, _, _ in tracer.LAYER_METRICS}
    assert [k for k, v in result["metrics"].items() if v["value"] <= 0] == []


def test_refuses_to_run_without_the_program(work):
    shutil.copytree(HERE, os.path.join(work, "perfbench"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), work)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "small-batch", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=work, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
