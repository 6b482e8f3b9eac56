import ast
import csv
import hashlib
import io
import json
import os
import random
import re
import resource
import subprocess
import sys
import time

import pytest

from groupoidlab import cli

ROOT = os.path.join(os.path.dirname(__file__), "..")
FIX = os.path.join(ROOT, "fixtures")


def fx(name):
    return os.path.join(FIX, f"{name}.json")


def run(argv):
    buf = io.StringIO()
    old = sys.stdout
    sys.stdout = buf
    try:
        code = cli.main(argv)
    finally:
        sys.stdout = old
    return code, buf.getvalue()


def run_json(argv):
    code, out = run(argv + ["--json"])
    return code, (json.loads(out) if out.strip() else None)


def test_moments_noloop_table():
    code, out = run(["moments", "--graph", fx("example-6-2-noloop"), "--n", "2"])
    assert code == 0
    assert "v1: 3" in out and "v2: 2" in out and "v3: 1" in out


def test_moments_full_fixture_matches_oracle_and_notes():
    code, rep = run_json(
        ["moments", "--graph", fx("example-6-2"), "--n", "2", "--verify"]
    )
    assert code == 0
    assert rep["result"]["diagonal"] == {"v1": "3", "v2": "4", "v3": "1"}
    assert rep["diagnostics"]["oracle"] == {"v1": "3", "v2": "4", "v3": "1"}
    notes = rep["diagnostics"]["notes"]
    assert any("loop-edge words" in n for n in notes)


def test_moments_balance_mode_reports_both_counts():
    code, rep = run_json(
        ["moments", "--graph", fx("two-loop"), "--n", "4", "--mode", "balance"]
    )
    assert code == 0
    assert rep["result"]["diagonal"] == {"v": "36"}
    assert rep["diagnostics"]["reduction_count"] == 28
    assert rep["diagnostics"]["balance_count"] == 36
    assert any("reduction and balance counts differ" in n for n in rep["diagnostics"]["notes"])


def test_moments_csv():
    code, out = run(
        ["moments", "--graph", fx("example-6-2"), "--n", "2", "--format", "csv"]
    )
    assert code == 0
    assert out.splitlines() == ["vertex,coefficient", "v1,3", "v2,4", "v3,1"]


def test_oracle_subcommand():
    code, rep = run_json(
        ["oracle", "--graph", fx("example-6-2"), "--n", "4", "--max-len", "6"]
    )
    assert code == 0
    assert set(rep["result"]["diagonal"]) == {"v1", "v2", "v3"}


def test_verify_flag_passes_on_fixtures():
    for name in ["circulant-3", "one-loop", "single-edge"]:
        code, _ = run_json(["moments", "--graph", fx(name), "--n", "3", "--verify"])
        assert code == 0


def test_cumulants_subcommand():
    code, rep = run_json(
        ["cumulants", "--graph", fx("one-loop"), "--n", "4", "--formula", "both"]
    )
    assert code == 0
    assert rep["result"]["diagonal"] == {"v": "-2"}
    assert rep["result"]["wc"] == {"v": "-2"}
    assert rep["diagnostics"]["formulas_agree"] is True


def test_joint_subcommand():
    code, rep = run_json(
        ["joint", "--graph", fx("two-loop"), "--indices", "1,-1"]
    )
    assert code == 0
    assert rep["result"]["diagonal"] == {"v": "1"}
    assert rep["result"]["cumulant"] == {"v": "1"}


def test_freeness_subcommand():
    code, rep = run_json(
        ["freeness", "--graph", fx("two-loop"), "--families", "1,2", "--max-n", "4"]
    )
    assert code == 0
    assert rep["result"]["free_to_order"] is True
    assert rep["result"]["max_abs_coefficient"] == "0"
    assert rep["result"]["families_diagram_distinct"] is True


@pytest.mark.parametrize("mutation", ["skip-every-tuple", "drop-a-partition"])
def test_freeness_that_loses_a_term_is_a_mismatch(monkeypatch, capsys, mutation):
    # the tuples of one family go through the same skips and Moebius
    # sums as the mixed ones, and their closed form is nonzero on the
    # alternating tuples: a route that loses a term cannot pass
    from groupoidlab import moments

    if mutation == "skip-every-tuple":
        monkeypatch.setattr(moments, "cumulant_of", lambda *a, **k: moments.DiagonalElement.zero())
    else:
        balanced = moments._balanced
        monkeypatch.setattr(moments, "_balanced", lambda parts, codes: balanced(parts, codes)[1:])
    argv = ["freeness", "--graph", fx("two-loop"), "--families", "1,2", "--max-n", "4"]
    code, rep = run_json(argv)
    assert code == 6
    assert rep["status"] == "verification-mismatch" and rep["result"] == {}
    assert rep["diagnostics"]["notes"][-1] == (
        "freeness: the Moebius sum of (1, -1) disagrees with the closed form"
    )
    assert capsys.readouterr().err == ""


def test_fractaloid_subcommand():
    code, rep = run_json(
        ["fractaloid", "--graph", fx("circulant-3"), "--depth", "4"]
    )
    assert code == 0
    assert rep["result"]["fractaloid"] is True
    code, rep = run_json(
        ["fractaloid", "--graph", fx("example-6-2"), "--depth", "4"]
    )
    assert code == 0
    assert rep["result"]["fractaloid"] is False
    assert rep["result"]["witness"] is not None


def test_tree_emits_dot():
    code, out = run(["tree", "--graph", fx("single-edge"), "--depth", "2"])
    assert code == 0
    assert out.startswith("digraph")


def test_tree_at_large_depth(capsys):
    # depth far beyond the interpreter's recursion limit
    code, out = run(["tree", "--graph", fx("single-edge"), "--depth", "1500"])
    assert code == 0
    assert capsys.readouterr().err == ""
    assert len(re.findall(r"^  n\d+ \[label=", out, re.MULTILINE)) == 1501


def test_lattice_subcommand():
    code, out = run(["lattice", "--max-label", "1", "--length", "6"])
    assert code == 0
    assert "count: 20" in out


def test_nc_subcommand():
    code, rep = run_json(["nc", "--n", "4"])
    assert code == 0
    assert rep["result"]["count"] == 14
    assert rep["result"]["moebius_sum"] == 0


def test_exit_io():
    code, _ = run(["moments", "--graph", "/nonexistent.json", "--n", "2"])
    assert code == 2


def test_exit_parse_malformed_json(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    code, _ = run(["moments", "--graph", str(p), "--n", "2"])
    assert code == 3


UNDECODABLE = {
    "deep.json": b"[" * 100_000,
    "latin-1.json": '{"vertices": ["\xe9"], "edges": []}'.encode("latin-1"),
    "long-int.json": b"[" + b"7" * 5000 + b"]",
}


@pytest.mark.parametrize("fmt", [[], ["--json"]], ids=["text", "json"])
def test_undecodable_files_are_parse_errors(tmp_path, fmt):
    # nested past the recursion limit, not UTF-8, or an integer past the
    # digit limit: json cannot decode any of them
    for name, data in UNDECODABLE.items():
        p = tmp_path / name
        p.write_bytes(data)
        code, out, err = run_contract(["moments", "--graph", str(p), "--n", "2", *fmt])
        assert (code, out) == (3, ""), name
        assert err.startswith("parse error: ") and err.count("\n") == 1, (name, err)


def test_exit_parse_missing_src(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"vertices": ["a"], "edges": [{"id": "e", "dst": "a"}]}))
    code, _ = run(["moments", "--graph", str(p), "--n", "2"])
    assert code == 3


# An edge id names its forward signed edge and "~" + id its shadow, so
# an id "~a" next to an id "a" would give two letters one name.
TILDE_RUNS = (
    ["moments", "--n", "2", "--words"],
    ["tree", "--depth", "1"],
)


@pytest.mark.parametrize("argv", TILDE_RUNS, ids=[a[0] for a in TILDE_RUNS])
@pytest.mark.parametrize("fmt", [[], ["--json"]], ids=["text", "json"])
def test_edge_ids_must_not_start_with_a_tilde(tmp_path, argv, fmt):
    p = tmp_path / "tilde.json"
    p.write_text(json.dumps({"vertices": ["v"], "edges": [
        {"id": "a", "src": "v", "dst": "v"},
        {"id": "~a", "src": "v", "dst": "v"},
    ]}))
    got = run_contract(argv[:1] + ["--graph", str(p)] + argv[1:] + fmt)
    assert got == (3, "", 'schema error: edges[1].id: must not start with "~"\n')


def test_exit_validation_disconnected(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"vertices": ["a", "b"], "edges": []}))
    code, _ = run(["moments", "--graph", str(p), "--n", "2"])
    assert code == 4


def test_exit_budget_partial(tmp_path):
    code, rep = run_json(
        ["moments", "--graph", fx("two-loop"), "--n", "6", "--budget", "10"]
    )
    assert code == 5
    assert rep["diagnostics"]["truncated"] is True
    assert rep["status"] == "truncated"


def test_truncated_moments_drop_the_counts_note():
    # a count that ran out is not compared, and not printed: no "counts
    # differ" note and no balance_count.  The requested count is the one
    # that ran out, so the run is truncated.
    code, rep = run_json(
        ["moments", "--graph", fx("two-loop"), "--n", "8", "--mode", "balance", "--budget", "50"]
    )
    assert code == 5
    assert rep["diagnostics"]["truncated"] is True
    assert not any("differ" in n for n in rep["diagnostics"]["notes"])
    assert rep["diagnostics"]["notes"][-1] == "the balance count at n=8 ran out of --budget"
    assert "balance_count" not in rep["diagnostics"]
    assert rep["diagnostics"]["reduction_count"] == 2092


def test_exit_verify_mismatch(monkeypatch):
    # force a mismatch by patching the oracle
    from groupoidlab import operators

    monkeypatch.setattr(
        operators,
        "oracle_expectation_power",
        lambda lg, n, L, budget=None: {"v": 999},
    )
    code, rep = run_json(["moments", "--graph", fx("one-loop"), "--n", "2", "--verify"])
    assert code == 6
    assert rep["status"] == "verification-mismatch"


def test_verify_past_the_basis_budget_keeps_the_moments(monkeypatch, capsys):
    # the DP has finished when the oracle's basis runs out: the report
    # keeps its moments and counts, and the note is the oracle's
    monkeypatch.chdir(ROOT)
    argv = ["moments", "--graph", "fixtures/one-loop.json", "--n", "2", "--verify",
            "--basis-budget", "1"]
    assert run(argv) == (5, (
        "command: moments\n"
        "graph: fixtures/one-loop.json  |V|=1 |E|=1 N=1 labeling=vertex\n"
        "diagonal: {v: 2}\n"
        "mode: reduction\n"
        "n: 2\n"
        "balance_count: 2\n"
        "note: basis exceeds budget 1 at length 1\n"
        "reduction_count: 2\n"
        "truncated: True\n"
        "status: truncated\n"
    ))
    assert run(argv + ["--json"]) == (5, (
        '{"command": "moments", "diagnostics": {"balance_count": 2, "notes": ["basis '
        'exceeds budget 1 at length 1"], "reduction_count": 2, "truncated": true}, '
        '"inputs": {"edges": 1, "graph": "fixtures/one-loop.json", "labeling": "vertex", '
        '"max_label": 1, "vertices": 1}, "result": {"diagonal": {"v": "2"}, "mode": '
        '"reduction", "n": 2}, "status": "truncated"}\n'
    ))
    code, rep = run_json(argv[:5] + ["--mode", "balance", "--verify", "--basis-budget", "1"])
    assert code == 5 and rep["result"] == {"diagonal": {"v": "2"}, "mode": "balance", "n": 2}
    assert capsys.readouterr().err == ""


TWO_LOOP_NOTE = (
    "For max label N >= 2 the balance-condition count exceeds the reduction count "
    "(36 vs 28 at n = 4 on the two-loop graph); the reduction count is the one "
    "matching the operator oracle."
)


@pytest.mark.parametrize("budget", [5, 20])
def test_verify_of_a_truncated_count_is_skipped(budget, capsys, monkeypatch):
    # a partial reduction count has nothing to be checked against: no
    # oracle runs, a note says so, and the run is truncated, not a mismatch
    from groupoidlab import operators

    def no_oracle(*args, **kwargs):
        raise AssertionError("the oracle ran")

    monkeypatch.setattr(operators, "oracle_expectation_power", no_oracle)
    argv = ["moments", "--graph", fx("two-loop"), "--n", "8", "--verify", "--budget", str(budget)]
    skipped = "verification skipped: the reduction count at n=8 is truncated"
    assert run(argv) == (5, (
        "command: moments\n"
        "graph: " + fx("two-loop") + "  |V|=1 |E|=2 N=2 labeling=vertex\n"
        "diagonal: {}\n"
        "mode: reduction\n"
        "n: 8\n"
        f"note: {TWO_LOOP_NOTE}\n"
        "note: the reduction count at n=8 ran out of --budget\n"
        "note: the balance count at n=8 ran out of --budget\n"
        f"note: {skipped}\n"
        "truncated: True\n"
        "status: truncated\n"
    ))
    code, rep = run_json(argv)
    assert code == 5 and rep["status"] == "truncated"
    assert "oracle" not in rep["diagnostics"]
    assert rep["diagnostics"]["notes"][-1] == skipped
    assert "reduction_count" not in rep["diagnostics"]
    # the skipped check keeps the run truncated in either mode
    code, rep = run_json(argv + ["--mode", "balance"])
    assert code == 5 and rep["diagnostics"]["notes"][-1] == skipped
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("name, n", [
    ("two-loop", 18), ("two-loop", 19), ("three-loop", 12), ("three-loop", 13),
    ("example-6-2", 24),
])
def test_verify_charges_the_basis_it_walks(name, n):
    # the oracle walks the basis of length n // 2, and that basis is
    # charged: 39,365 elements for two-loop at n = 19
    code, rep = run_json(["moments", "--graph", fx(name), "--n", str(n), "--verify"])
    assert code == 0
    oracle = rep["diagnostics"]["oracle"]
    assert {v: c for v, c in oracle.items() if c != "0"} == rep["result"]["diagonal"]


@pytest.mark.parametrize("name, n, moment, balance, length, notes", [
    ("two-loop", 20, 2240795848, 34134779536, 10, [TWO_LOOP_NOTE]),
    ("three-loop", 14, 52718616, 936369720, 7, []),
])
def test_verify_past_the_walked_basis_keeps_the_moments(
    monkeypatch, name, n, moment, balance, length, notes
):
    monkeypatch.chdir(ROOT)
    argv = ["moments", "--graph", f"fixtures/{name}.json", "--n", str(n), "--verify"]
    notes = [*notes, (
        f"reduction and balance counts differ at n={n} ({moment} vs {balance}); the "
        "reduction count is the one matching the operator oracle."
    ), f"basis exceeds budget 100000 at length {length}"]
    edges = {"two-loop": 2, "three-loop": 3}[name]
    assert run(argv) == (5, (
        "command: moments\n"
        f"graph: fixtures/{name}.json  |V|=1 |E|={edges} N={edges} labeling=vertex\n"
        f"diagonal: {{v: {moment}}}\n"
        "mode: reduction\n"
        f"n: {n}\n"
        f"balance_count: {balance}\n"
        + "".join(f"note: {note}\n" for note in notes)
        + f"reduction_count: {moment}\n"
        "truncated: True\n"
        "status: truncated\n"
    ))
    assert run(argv + ["--json"]) == (5, (
        f'{{"command": "moments", "diagnostics": {{"balance_count": {balance}, '
        f'"notes": {json.dumps(notes)}, "reduction_count": {moment}, "truncated": true}}, '
        f'"inputs": {{"edges": {edges}, "graph": "fixtures/{name}.json", "labeling": '
        f'"vertex", "max_label": {edges}, "vertices": 1}}, "result": {{"diagonal": '
        f'{{"v": "{moment}"}}, "mode": "reduction", "n": {n}}}, "status": "truncated"}}\n'
    ))


def test_json_output_deterministic():
    argv = ["moments", "--graph", fx("example-6-2"), "--n", "4", "--json"]
    outs = {run(argv)[1] for _ in range(3)}
    assert len(outs) == 1


def test_moments_words_export():
    code, rep = run_json(
        ["moments", "--graph", fx("example-6-2"), "--n", "2", "--words"]
    )
    assert code == 0
    words = rep["result"]["words"]
    assert ["e22:1", "~e22:1"] in words
    assert ["~e12:1", "e12:1"] in words
    assert len(words) == 8


def test_moments_words_at_large_n(capsys):
    # word length far beyond the interpreter's recursion limit
    code, rep = run_json(
        ["moments", "--graph", fx("single-edge"), "--n", "2000", "--words"]
    )
    assert code == 0
    assert rep["result"]["diagonal"] == {"v1": "1", "v2": "1"}
    assert len(rep["result"]["words"]) == 2
    assert capsys.readouterr().err == ""


def test_labeling_override_changes_n():
    code, rep = run_json(
        ["moments", "--graph", fx("example-6-2"), "--n", "2", "--labeling", "vertex"]
    )
    assert code == 0
    assert rep["inputs"]["max_label"] == 3
    assert rep["inputs"]["labeling"] == "vertex"


NC_4_JSON = (
    '{"command": "nc", "diagnostics": {"truncated": false}, "result": '
    '{"catalan": 14, "count": 14, "moebius_row": ['
    '{"blocks": [[1], [2], [3], [4]], "mu": -5}, '
    '{"blocks": [[1], [2], [3, 4]], "mu": 2}, '
    '{"blocks": [[1], [2, 3], [4]], "mu": 2}, '
    '{"blocks": [[1], [2, 4], [3]], "mu": 1}, '
    '{"blocks": [[1], [2, 3, 4]], "mu": -1}, '
    '{"blocks": [[1, 2], [3], [4]], "mu": 2}, '
    '{"blocks": [[1, 2], [3, 4]], "mu": -1}, '
    '{"blocks": [[1, 3], [2], [4]], "mu": 1}, '
    '{"blocks": [[1, 4], [2], [3]], "mu": 2}, '
    '{"blocks": [[1, 4], [2, 3]], "mu": -1}, '
    '{"blocks": [[1, 2, 3], [4]], "mu": -1}, '
    '{"blocks": [[1, 2, 4], [3]], "mu": -1}, '
    '{"blocks": [[1, 3, 4], [2]], "mu": -1}, '
    '{"blocks": [[1, 2, 3, 4]], "mu": 1}], '
    '"moebius_sum": 0, "n": 4}, "status": "ok"}\n'
)

CUMULANTS_4_JSON = (
    '{"command": "cumulants", "diagnostics": {"formulas_agree": true, "notes": '
    '["The published moment word list for this graph omits the loop-edge words '
    "(e22:1, ~e22:1) and (~e22:1, e22:1); the reduction count and the operator "
    "oracle both include them, giving {v1: 3, v2: 4, v3: 1} at n = 2 instead of "
    'the published {v1: 3, v2: 2, v3: 1}."], "truncated": false}, '
    '"inputs": {"edges": 4, "graph": "fixtures/example-6-2.json", '
    '"labeling": "explicit", "max_label": 2, "vertices": 3}, '
    '"result": {"diagonal": {"v1": "-3", "v2": "-4", "v3": "-1"}, '
    '"formula": "both", "n": 4, "wc": {"v1": "-3", "v2": "-4", "v3": "-1"}}, '
    '"status": "ok"}\n'
)


JOINT_EXAMPLE_6_2_JSON = (
    '{"command": "joint", "diagnostics": {"notes": ["The published moment '
    "word list for this graph omits the loop-edge words (e22:1, ~e22:1) and "
    "(~e22:1, e22:1); the reduction count and the operator oracle both "
    "include them, giving {v1: 3, v2: 4, v3: 1} at n = 2 instead of the "
    'published {v1: 3, v2: 2, v3: 1}."], "truncated": false}, "inputs": '
    '{"edges": 4, "graph": "fixtures/example-6-2.json", "labeling": '
    '"explicit", "max_label": 2, "vertices": 3}, "result": {"cumulant": '
    '{"v1": "-2", "v2": "-1"}, "diagonal": {"v1": "5", "v2": "2"}, '
    '"indices": [1, -1, 1, -1]}, "status": "ok"}\n'
)

CUMULANTS_TWO_LOOP_6_JSON = (
    '{"command": "cumulants", "diagnostics": {"formulas_agree": true, '
    '"notes": ["For max label N >= 2 the balance-condition count exceeds the '
    "reduction count (36 vs 28 at n = 4 on the two-loop graph); the reduction "
    'count is the one matching the operator oracle."], "truncated": false}, '
    '"inputs": {"edges": 2, "graph": "fixtures/two-loop.json", "labeling": '
    '"vertex", "max_label": 2, "vertices": 1}, "result": {"diagonal": '
    '{"v": "8"}, "formula": "both", "n": 6, "wc": {"v": "8"}}, '
    '"status": "ok"}\n'
)


def test_nc_json_bytes_pinned():
    assert run(["nc", "--n", "4", "--json"]) == (0, NC_4_JSON)


# sha256 of nc's stdout, recorded while mu still came from a second
# pass over each partition: the walk that carries mu prints the same
NC_SHA256 = {
    (1, "text"): "8388f38536093b8f1067b8438880a476749fc60892f7045231d1bf0ff5936eaa",
    (1, "json"): "873a4fe0820107af36fe48f61dff48b146f96cfa4515ac94ac6d2db6f1918c33",
    (2, "text"): "ac7bfda17c4dd3bb81e6cf4674d9eefff5831d2dc133cd54da6ddcd283feb284",
    (2, "json"): "8db944b269a0f1922c1484d34be5ba24376a7c32b3329c2c711c0766ee0af1a3",
    (3, "text"): "c4e86bafa3017038c7bab30a071e0e0ec5af990a98b1b9fa46018d54173eb2a8",
    (3, "json"): "3706050eeec70038d102d48557b658d3d78cf63d5e2740a3979f61a1d7ff6e8f",
    (7, "text"): "1f1b136938d0631de6fa4c42cfb15d6d04dc5e50a5cb1a624a7e3e6d10fa7026",
    (7, "json"): "cd6c51b9def563e98d6f9ae38e4aa7e667d76b36b32583f1d57a72ea9bc26f39",
    (10, "text"): "9b121e92dbba50497ddf52c71430e6c38ce974b4eeebe5ee0cdce1f9de78ef57",
    (10, "json"): "307ce045b1b6634eba35673cfe41dd19cf71aa7b3d12b009ea9d5543594f2dd7",
}


@pytest.mark.parametrize("n, fmt", sorted(NC_SHA256), ids=[f"{n}-{f}" for n, f in sorted(NC_SHA256)])
def test_nc_bytes_pinned_by_hash(n, fmt):
    code, out = run(["nc", "--n", str(n)] + (["--json"] if fmt == "json" else []))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == NC_SHA256[n, fmt]


def test_cumulants_json_bytes_pinned(monkeypatch):
    monkeypatch.chdir(ROOT)
    argv = ["cumulants", "--graph", "fixtures/example-6-2.json", "--n", "4",
            "--formula", "both", "--json"]
    assert run(argv) == (0, CUMULANTS_4_JSON)
    argv = ["cumulants", "--graph", "fixtures/two-loop.json", "--n", "6",
            "--formula", "both", "--json"]
    assert run(argv) == (0, CUMULANTS_TWO_LOOP_6_JSON)


def test_joint_json_bytes_pinned(monkeypatch):
    monkeypatch.chdir(ROOT)
    argv = ["joint", "--graph", "fixtures/example-6-2.json", "--indices",
            "1,-1,1,-1", "--json"]
    assert run(argv) == (0, JOINT_EXAMPLE_6_2_JSON)


ORACLE_TWO_LOOP_7_JSON = (
    '{"command": "oracle", "diagnostics": {"notes": ["For max label N >= 2 the '
    "balance-condition count exceeds the reduction count (36 vs 28 at n = 4 on "
    "the two-loop graph); the reduction count is the one matching the operator "
    'oracle."], "truncated": false}, "inputs": {"edges": 2, "graph": '
    '"fixtures/two-loop.json", "labeling": "vertex", "max_label": 2, '
    '"vertices": 1}, "result": {"diagonal": {"v": "0"}, "max_len": 7, "n": 7}, '
    '"status": "ok"}\n'
)

ORACLE_THREE_LOOP_8_JSON = (
    '{"command": "oracle", "diagnostics": {"notes": ["basis exceeds budget '
    '100000 at length 7"], "truncated": true}, "inputs": {"edges": 3, "graph": '
    '"fixtures/three-loop.json", "labeling": "vertex", "max_label": 3, '
    '"vertices": 1}, "result": {}, "status": "truncated"}\n'
)


def test_oracle_json_bytes_pinned(monkeypatch):
    monkeypatch.chdir(ROOT)
    argv = ["oracle", "--graph", "fixtures/two-loop.json", "--n", "7",
            "--max-len", "7", "--json"]
    assert run(argv) == (0, ORACLE_TWO_LOOP_7_JSON)
    argv = ["oracle", "--graph", "fixtures/three-loop.json", "--n", "8",
            "--max-len", "8", "--json"]
    assert run(argv) == (5, ORACLE_THREE_LOOP_8_JSON)


GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
@pytest.mark.parametrize("budget, code", [(None, 0), (50, 5)], ids=["full", "budget50"])
def test_moments_words_bytes_pinned(monkeypatch, capsys, fmt, budget, code):
    # the words are signed-edge indices until the printer names them
    monkeypatch.chdir(ROOT)
    argv = ["moments", "--graph", "fixtures/example-6-2.json", "--n", "4", "--words",
            "--format", fmt]
    name = "moments-example-6-2-n4-words"
    if budget is not None:
        argv += ["--budget", str(budget)]
        name += f"-budget{budget}"
    with open(os.path.join(GOLDEN, f"{name}.{fmt}"), encoding="utf-8") as fh:
        want = fh.read()
    assert run(argv) == (code, want)
    assert capsys.readouterr().err == ""


TREE_GOLDENS = (
    ("tree-two-loop-depth3", ["tree", "--graph", "fixtures/two-loop.json", "--depth", "3"]),
    ("tree-example-6-2-root-v2-depth2",
     ["tree", "--graph", "fixtures/example-6-2.json", "--root", "v2", "--depth", "2"]),
)


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("name, argv", TREE_GOLDENS, ids=[name for name, _ in TREE_GOLDENS])
def test_tree_bytes_pinned(monkeypatch, capsys, name, argv, fmt):
    # the goldens were written by the object-built tree and its renderer
    monkeypatch.chdir(ROOT)
    with open(os.path.join(GOLDEN, f"{name}.{fmt}"), encoding="utf-8") as fh:
        want = fh.read()
    assert run(argv + ["--format", fmt]) == (0, want)
    assert capsys.readouterr().err == ""


JOINT_TRUNCATED_NOTE = "joint moment (1, -1, 1, -1, 1, -1, 1, -1): DP budget exhausted"
EXAMPLE_6_2_NOTE = (
    "The published moment word list for this graph omits the loop-edge words "
    "(e22:1, ~e22:1) and (~e22:1, e22:1); the reduction count and the operator "
    "oracle both include them, giving {v1: 3, v2: 4, v3: 1} at n = 2 instead of the "
    "published {v1: 3, v2: 2, v3: 1}."
)
JOINT_TRUNCATED_TEXT = f"""command: joint
graph: fixtures/example-6-2.json  |V|=3 |E|=4 N=2 labeling=explicit
diagonal: {{v1: 34}}
note: {EXAMPLE_6_2_NOTE}
note: {JOINT_TRUNCATED_NOTE}
truncated: True
status: truncated
"""
JOINT_TRUNCATED_JSON = (
    '{"command": "joint", "diagnostics": {"notes": ["' + EXAMPLE_6_2_NOTE + '", "'
    + JOINT_TRUNCATED_NOTE + '"], "truncated": true}, "inputs": {"edges": 4, "graph": '
    '"fixtures/example-6-2.json", "labeling": "explicit", "max_label": 2, "vertices": 3}, '
    '"result": {"diagonal": {"v1": "34"}}, "status": "truncated"}\n'
)


@pytest.mark.parametrize("fmt, want", [([], JOINT_TRUNCATED_TEXT), (["--json"], JOINT_TRUNCATED_JSON)],
                         ids=["text", "json"])
def test_truncated_joint_bytes_pinned(monkeypatch, capsys, fmt, want):
    # the interval DP finishes v1 at budget 122 (see test_moments); the
    # partial result is the diagonal alone
    monkeypatch.chdir(ROOT)
    argv = ["joint", "--graph", "fixtures/example-6-2.json", "--indices",
            "1,-1,1,-1,1,-1,1,-1", "--budget", "122", *fmt]
    assert run(argv) == (5, want)
    assert capsys.readouterr().err == ""


def test_nc_budget_exhaustion_exits_5(capsys):
    # NC(13) is past NC_BUDGET = 12: a truncated report, not an error
    note = "n=13 exceeds the NC enumeration budget 12"
    for argv, notes in (
        (["nc", "--n", "13"], [note]),
        # checked before any of the 4^n index tuples is built; the
        # report keeps the file's note
        (["freeness", "--graph", fx("two-loop"), "--families", "1,2", "--max-n", "13"],
         [TWO_LOOP_NOTE, note]),
    ):
        code, rep = run_json(argv)
        assert code == 5, argv
        assert rep["status"] == "truncated"
        assert rep["diagnostics"] == {"truncated": True, "notes": notes}
        code, out = run(argv)
        assert code == 5
        assert "status: truncated" in out and note in out
        assert capsys.readouterr().err == ""


def test_cumulants_past_nc_budget_exact(capsys):
    # the closed form enumerates no partition: k_14 = outdeg(v) (-1)^6 C_6
    code, rep = run_json(["cumulants", "--graph", fx("one-loop"), "--n", "14"])
    assert code == 0
    assert rep["result"]["diagonal"] == {"v": "264"}
    code, rep = run_json(["cumulants", "--graph", fx("one-loop"), "--n", "13"])
    assert code == 0
    assert rep["result"]["diagonal"] == {}
    assert capsys.readouterr().err == ""


def test_joint_past_nc_budget_exact(capsys):
    argv = ["joint", "--graph", fx("two-loop"), "--indices", ",".join(["1,-1"] * 7)]
    code, rep = run_json(argv)
    assert code == 0
    assert rep["result"]["diagonal"] == {"v": "1"}
    assert rep["result"]["cumulant"] == {"v": "132"}
    code, rep = run_json(
        ["joint", "--graph", fx("one-loop"), "--indices", ",".join(["1", "-1"] * 6 + ["1"])]
    )
    assert code == 0
    assert rep["result"]["diagonal"] == {} and rep["result"]["cumulant"] == {}
    assert capsys.readouterr().err == ""


def test_joint_past_nc_budget_keeps_the_moment(capsys):
    # the joint cumulant has no NC budget left to run out of: 14 letters
    # give the moment and the closed-form cumulant (-1)^6 C_6
    argv = ["joint", "--graph", fx("two-loop"), "--indices", ",".join(["1,-1"] * 7)]
    code, rep = run_json(argv)
    assert code == 0
    assert rep["result"] == {
        "cumulant": {"v": "132"},
        "diagonal": {"v": "1"},
        "indices": [1, -1] * 7,
    }
    assert rep["diagnostics"]["truncated"] is False
    code, out = run(argv)
    assert code == 0
    assert out.splitlines()[2:] == [
        "cumulant: {v: 132}",
        "diagonal: {v: 1}",
        "indices: " + json.dumps([1, -1] * 7),
        "note: For max label N >= 2 the balance-condition count exceeds the "
        "reduction count (36 vs 28 at n = 4 on the two-loop graph); the "
        "reduction count is the one matching the operator oracle.",
        "truncated: False",
        "status: ok",
    ]
    assert capsys.readouterr().err == ""


def test_cumulants_both_past_nc_budget_keeps_the_direct_value(capsys):
    # the wc route still runs out of the NC budget at n = 14; the
    # finished closed-form value is the partial result
    argv = ["cumulants", "--graph", fx("one-loop"), "--n", "14", "--formula", "both"]
    note = "n=14 exceeds the NC enumeration budget 12"
    code, rep = run_json(argv)
    assert code == 5
    assert rep["result"] == {"diagonal": {"v": "264"}, "formula": "both", "n": 14}
    assert rep["diagnostics"] == {"truncated": True, "notes": [note]}
    code, out = run(argv)
    assert code == 5
    assert out.splitlines() == [
        "command: cumulants",
        f"graph: {fx('one-loop')}  |V|=1 |E|=1 N=1 labeling=vertex",
        "diagonal: {v: 264}",
        "formula: both",
        "n: 14",
        f"note: {note}",
        "truncated: True",
        "status: truncated",
    ]
    # the wc route alone has no value to report
    code, rep = run_json(argv[:-1] + ["wc"])
    assert code == 5
    assert rep["result"] == {"formula": "wc", "n": 14}
    assert capsys.readouterr().err == ""


def test_hostile_cumulant_orders(capsys):
    # huge orders end in a budget report, not a traceback or a hang:
    # the closed form's order and the joint moment's interval tables
    # are checked before anything is built
    for argv, note in (
        (["cumulants", "--graph", fx("one-loop"), "--n", "20000"],
         "n=20000 exceeds the cumulant order budget 10000"),
        (["joint", "--graph", fx("two-loop"), "--indices", ",".join(["1,-1"] * 5000)],
         "DP budget exhausted"),
    ):
        code, rep = run_json(argv)
        assert code == 5, argv
        assert rep["status"] == "truncated"
        assert rep["diagnostics"]["notes"][-1].endswith(note)
        assert capsys.readouterr().err == ""


def test_tree_past_the_node_budget_exits_5(capsys):
    # three-loop at depth 7: 1 + 6 + ... + 6^7 nodes, refused unbuilt;
    # deeper trees stop being counted at depth 7
    for depth, note in (
        ("7", "tree of 335923 nodes exceeds the node budget 100000"),
        ("20000", "tree of more than 335923 nodes exceeds the node budget 100000"),
    ):
        argv = ["tree", "--graph", fx("three-loop"), "--depth", depth]
        code, rep = run_json(argv)
        assert code == 5
        assert rep["result"] == {}
        assert rep["diagnostics"] == {"truncated": True, "notes": [note]}
        code, out = run(argv)
        assert code == 5
        assert out.splitlines() == [
            "command: tree",
            f"graph: {fx('three-loop')}  |V|=1 |E|=3 N=3 labeling=vertex",
            f"note: {note}",
            "truncated: True",
            "status: truncated",
        ]
        assert capsys.readouterr().err == ""


def write_path_graph(directory) -> str:
    """The path of a new file in directory holding the 3-vertex path
    a -> b -> c."""
    path = directory / "path.json"
    path.write_text(json.dumps({"vertices": ["a", "b", "c"], "edges": [
        {"id": "ab", "src": "a", "dst": "b"}, {"id": "bc", "src": "b", "dst": "c"},
    ]}))
    return str(path)


def test_oracle_past_the_digit_limit_exits_5(tmp_path, capsys):
    # a path's basis stays small at any length, so only the digit limit
    # stops a long moment from printing
    graph = ["--graph", write_path_graph(tmp_path)]
    code, rep = run_json(["oracle", *graph, "--n", "20000", "--max-len", "20000"])
    assert code == 0 and len(rep["result"]["diagonal"]["a"]) < sys.get_int_max_str_digits()
    code, rep = run_json(["oracle", *graph, "--n", "30000", "--max-len", "30000"])
    assert code == 5
    assert rep["result"] == {}
    assert rep["diagnostics"] == {"truncated": True, "notes": [
        f"oracle n=30000: a moment passes the {sys.get_int_max_str_digits()}-digit "
        "limit for printing an integer"
    ]}
    assert capsys.readouterr().err == ""


def test_lattice_budgets_exit_5(capsys):
    for argv, note in (
        # the recurrence's terms are charged to --budget up front
        (["lattice", "--max-label", "5", "--length", "2000", "--budget", "1000"],
         "lattice N=5 k=2000: 1505504 recurrence terms exceed the budget 1000"),
        # 2^30000 has more digits than str() converts
        (["lattice", "--max-label", "1", "--length", "30000"],
         "lattice k=30000: a count of up to (2N)^k = 2^30000 may pass the "
         f"{sys.get_int_max_str_digits()}-digit limit for printing an integer"),
        (["lattice", "--max-label", "1000000000", "--length", "100000000"],
         "lattice k=100000000: a count of up to (2N)^k = 2000000000^100000000 may "
         f"pass the {sys.get_int_max_str_digits()}-digit limit for printing an integer"),
    ):
        code, rep = run_json(argv)
        assert code == 5, argv
        assert rep["result"] == {}
        assert rep["diagnostics"] == {"truncated": True, "notes": [note]}
        assert capsys.readouterr().err == ""
    # odd lengths count 0 at any size
    code, rep = run_json(["lattice", "--max-label", "1", "--length", "30001"])
    assert code == 0 and rep["result"]["count"] == "0"


def test_lattice_pinned_count():
    # checked separately as k! [x^(k/2)] (sum_m x^m / m!^2)^N in exact
    # rationals
    code, rep = run_json(["lattice", "--max-label", "12", "--length", "60"])
    assert code == 0
    assert rep["result"]["count"] == (
        "129819358854936648696892292190621795227972793646557166046085610967874011136"
    )


def test_cumulants_both_past_the_word_budget_keeps_the_direct_value(capsys):
    argv = ["cumulants", "--graph", fx("one-loop"), "--n", "6", "--formula", "both",
            "--budget", "10"]
    code, rep = run_json(argv)
    assert code == 5
    assert rep["result"] == {"diagonal": {"v": "4"}, "formula": "both", "n": 6}
    assert rep["diagnostics"]["notes"] == ["cumulant_via_wc: enumeration budget exhausted"]
    assert capsys.readouterr().err == ""


# Every way a graph command runs out of a budget, each on a graph with a
# file note (two-loop) and on example-6-2: the one report keeps the
# inputs, the file's notes first, then the budget's.
OUT_OF_BUDGET = (
    ["moments", "--n", "8", "--budget", "5"],
    ["moments", "--n", "4", "--verify", "--basis-budget", "1"],
    ["moments", "--n", "4", "--words", "--budget", "20"],
    ["cumulants", "--n", "14", "--formula", "both"],
    ["cumulants", "--n", "8", "--formula", "wc", "--budget", "3"],
    ["joint", "--indices=1,-1,1,-1", "--budget", "3"],
    ["oracle", "--n", "8", "--max-len", "8", "--basis-budget", "10"],
    ["fractaloid", "--depth", "100000", "--budget", "100"],
    ["tree", "--depth", "40"],
    ["freeness", "--families", "1,2", "--max-n", "13"],
)


@pytest.mark.parametrize("name", ["two-loop", "example-6-2"])
@pytest.mark.parametrize("argv", OUT_OF_BUDGET, ids=" ".join)
def test_a_truncated_run_reports_what_it_did(name, argv, capsys):
    graph = ["--graph", fx(name)]
    code, rep = run_json([argv[0], *graph, *argv[1:]])
    assert code == 5 and rep["status"] == "truncated"
    assert rep["diagnostics"]["truncated"] is True
    assert rep["inputs"] == run_json(["fractaloid", *graph, "--depth", "1"])[1]["inputs"]
    file_notes = {"two-loop": [TWO_LOOP_NOTE], "example-6-2": [EXAMPLE_6_2_NOTE]}[name]
    notes = rep["diagnostics"]["notes"]
    assert notes[: len(file_notes)] == file_notes and len(notes) > len(file_notes)
    # a count that ran out is a note, never a partial sum
    for mode in ("reduction", "balance"):
        if any(note.startswith(f"the {mode} count at ") for note in notes):
            assert f"{mode}_count" not in rep["diagnostics"]
    assert capsys.readouterr().err == ""


def test_only_the_requested_count_decides_the_status(capsys):
    # the reduction count finishes at n = 400 and the balance count runs
    # out: a note takes the place of its count, and the run is ok
    code, rep = run_json(["moments", "--graph", fx("two-loop"), "--n", "400"])
    assert code == 0 and rep["status"] == "ok"
    assert rep["diagnostics"]["notes"] == [
        TWO_LOOP_NOTE, "the balance count at n=400 ran out of --budget"
    ]
    assert "balance_count" not in rep["diagnostics"]
    assert rep["diagnostics"]["reduction_count"] == int(rep["result"]["diagonal"]["v"])
    # words that run out keep the words found so far, and the diagonal
    # is the DP's, not their tally
    argv = ["moments", "--graph", fx("two-loop"), "--n", "20", "--verify", "--words",
            "--budget", "100000"]
    code, rep = run_json(argv)
    assert code == 5
    assert rep["result"]["diagonal"] == {"v": "2240795848"}
    assert rep["result"]["words"] and (rep["result"]["n"], rep["result"]["mode"]) == (20, "reduction")
    assert rep["diagnostics"]["notes"][-2:] == [
        "word set n=20: letter budget exhausted", "basis exceeds budget 100000 at length 10"
    ]
    assert capsys.readouterr().err == ""


def test_kept_words_stop_at_their_cap(monkeypatch, capsys):
    # whatever --budget is, the words kept hold at most KEPT_LETTERS letters
    from groupoidlab import _kernel

    monkeypatch.setattr(_kernel, "KEPT_LETTERS", 40)
    argv = ["moments", "--graph", fx("example-6-2"), "--n", "4", "--words",
            "--budget", str(10**18)]
    code, rep = run_json(argv)
    assert code == 5 and rep["status"] == "truncated"
    assert rep["diagnostics"]["notes"][-1] == (
        "word set n=4: the words kept pass the cap of 40 letters"
    )
    monkeypatch.setattr(_kernel, "KEPT_LETTERS", 10**7)
    full = run_json(argv)[1]["result"]["words"]
    assert rep["result"]["words"] == full[:10]
    # the diagonal is the DP's either way
    assert rep["result"]["diagonal"] == run_json(argv[:5])[1]["result"]["diagonal"]
    assert capsys.readouterr().err == ""


def test_balance_count_no_longer_truncates_moments(capsys):
    # the half-walk balance count fits where the full-length walk ran out
    code, rep = run_json(
        ["moments", "--graph", fx("two-loop"), "--n", "8", "--budget", "300"]
    )
    assert code == 0
    assert rep["diagnostics"]["reduction_count"] == 2092
    assert rep["diagnostics"]["balance_count"] == 4900
    assert capsys.readouterr().err == ""


def run_contract(argv):
    """(exit code, stdout, stderr) of one in-process run; argparse usage
    errors end in SystemExit, any other exception is a traceback and
    fails the calling test."""
    out, err = io.StringIO(), io.StringIO()
    old = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    finally:
        sys.stdout, sys.stderr = old
    return code, out.getvalue(), err.getvalue()


def test_bad_index_lists_are_usage_errors():
    for argv in (
        ["joint", "--graph", fx("two-loop"), "--indices", "1,x"],
        ["freeness", "--graph", fx("two-loop"), "--families", "1,x"],
        ["freeness", "--graph", fx("two-loop"), "--families", "1"],
        ["freeness", "--graph", fx("two-loop"), "--families", "1,2,3"],
    ):
        code, out, err = run_contract(argv)
        assert code == 2, argv
        assert out == "" and "Traceback" not in err
        assert f"error: argument {argv[3]}: " in err


def test_unread_flags_are_usage_errors():
    # each subcommand declares only the common flags it reads
    for argv in (
        ["oracle", "--graph", fx("one-loop"), "--n", "2", "--max-len", "2", "--budget", "5"],
        ["freeness", "--graph", fx("two-loop"), "--families", "1,2", "--budget", "1"],
        ["tree", "--graph", fx("one-loop"), "--depth", "1", "--budget", "5"],
        ["nc", "--n", "3", "--budget", "5"],
        ["cumulants", "--graph", fx("one-loop"), "--n", "2", "--basis-budget", "5"],
        ["joint", "--graph", fx("one-loop"), "--indices", "1,-1", "--basis-budget", "5"],
        ["fractaloid", "--graph", fx("one-loop"), "--basis-budget", "5"],
        ["lattice", "--max-label", "1", "--length", "2", "--basis-budget", "5"],
        ["freeness", "--graph", fx("two-loop"), "--families", "1,2", "--format", "csv"],
        ["fractaloid", "--graph", fx("one-loop"), "--format", "csv"],
        ["tree", "--graph", fx("one-loop"), "--depth", "1", "--format", "csv"],
        ["lattice", "--max-label", "1", "--length", "2", "--format", "csv"],
        ["nc", "--n", "3", "--format", "csv"],
    ):
        code, out, err = run_contract(argv)
        assert code == 2, argv
        assert out == "" and "Traceback" not in err


def test_deep_fractaloid_exits_5(monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    limit = sys.get_int_max_str_digits()
    for argv, note in (
        # the node counts pass the digit limit long before depth 20000;
        # counting stops at the first level past it
        (["fractaloid", "--graph", "fixtures/example-6-2.json", "--depth", "20000"],
         f"fractaloid depth=20000: a node count passes the {limit}-digit limit "
         "for printing an integer"),
        (["fractaloid", "--graph", "fixtures/three-loop.json", "--depth", "300000"],
         f"fractaloid depth=300000: a node count passes the {limit}-digit limit "
         "for printing an integer"),
        # depth x signed edges, charged up front: one walk serves every root
        (["fractaloid", "--graph", "fixtures/example-6-2.json", "--depth", "10", "--budget", "79"],
         "fractaloid depth=10: 80 walk steps exceed the budget 79"),
    ):
        code, out = run(argv)
        assert code == 5, argv
        graph = argv[2]
        inputs = {
            "fixtures/example-6-2.json": "|V|=3 |E|=4 N=2 labeling=explicit",
            "fixtures/three-loop.json": "|V|=1 |E|=3 N=3 labeling=vertex",
        }[graph]
        file_notes = [EXAMPLE_6_2_NOTE] if "example-6-2" in graph else []
        assert out.splitlines() == [
            "command: fractaloid",
            f"graph: {graph}  {inputs}",
            *(f"note: {n}" for n in file_notes),
            f"note: {note}",
            "truncated: True",
            "status: truncated",
        ]
        assert capsys.readouterr().err == ""
    # the whole budget is enough
    argv = ["fractaloid", "--graph", fx("example-6-2"), "--depth", "10", "--budget", "80"]
    assert run(argv)[0] == 0


BIG = str(10**9)

# Hostile sizes for every subcommand, with the exit code each must give.
# `moments --words` charges each letter it tries or keeps, so it stops
# within its budget at any n.  At n = 10^9 and the default budget,
# `moments` stops at once: each count charges up front what it cannot
# finish (test_kernel).  Left out, as they run far longer than a test
# should: `moments` at n = 10^6, or `--n 20000` on two-loop, at the
# default budget.  There the reduction count stops at once, but the
# balance count spends its 10^7 transitions on big integers for several
# seconds.
HUGE_N_MOMENTS = tuple(
    ["moments", "--graph", fx(name), "--n", BIG]
    for name in ("single-edge", "one-loop", "two-loop")
)
# The 3-vertex path a -> b -> c, which the test writes to a temporary file.
PATH_GRAPH = "<path a-b-c>"
HOSTILE = (
    (["moments", "--graph", fx("one-loop"), "--n", BIG, "--budget", "100000"], 5),
    # the walk counts of single-edge never grow: only --budget stops them
    (["moments", "--graph", fx("single-edge"), "--n", BIG, "--budget", "100000"], 5),
    *((argv, 5) for argv in HUGE_N_MOMENTS),
    (["moments", "--graph", fx("two-loop"), "--n", "10001"], 0),
    (["moments", "--graph", fx("two-loop"), "--n", "10000", "--budget", "1000"], 5),
    (["moments", "--graph", fx("two-loop"), "--n", "10000", "--mode", "balance",
      "--budget", "1000"], 5),
    (["moments", "--graph", fx("two-loop"), "--n", "10000", "--verify",
      "--budget", "1000"], 5),
    # a truncated reduction count is not verified
    *((["moments", "--graph", fx("two-loop"), "--n", "8", "--verify", "--budget", b], 5)
      for b in ("5", "20")),
    (["moments", "--graph", fx("two-loop"), "--n", "-" + BIG], 4),
    # only the diagnostic balance count runs out: the run is ok.  At the
    # default budget the balance count spends about 3 s before it runs
    # out (test_only_the_requested_count_decides_the_status runs that);
    # 100000 is just enough for the reduction count
    (["moments", "--graph", fx("two-loop"), "--n", "400", "--budget", "100000"], 0),
    # the words and the oracle's basis run out; the DP's moment stays
    (["moments", "--graph", fx("two-loop"), "--n", "20", "--verify", "--words",
      "--budget", "100000"], 5),
    (["moments", "--graph", fx("two-loop"), "--n", "20000", "--words", "--budget", "1000"], 5),
    # no word of 10^9 letters fits the default letter budget: not begun
    (["moments", "--graph", fx("one-loop"), "--n", BIG, "--words"], 5),
    (["moments", "--graph", fx("three-loop"), "--n", "12", "--words", "--mode", "balance",
      "--budget", "100000"], 5),
    (["oracle", "--graph", fx("two-loop"), "--n", BIG, "--max-len", BIG], 5),
    (["oracle", "--graph", fx("two-loop"), "--n", BIG, "--max-len", "2"], 4),
    # a tree's basis is finite: the n products are what the budget stops
    (["oracle", "--graph", fx("single-edge"), "--n", str(10**9), "--max-len", str(10**9)], 5),
    # a path's basis stays small, and its moments outgrow the digit limit
    (["oracle", "--graph", PATH_GRAPH, "--n", "30000", "--max-len", "30000"], 5),
    (["cumulants", "--graph", fx("two-loop"), "--n", BIG], 5),
    (["cumulants", "--graph", fx("two-loop"), "--n", BIG, "--formula", "both"], 5),
    (["cumulants", "--graph", fx("two-loop"), "--n", "13", "--formula", "wc"], 0),
    (["cumulants", "--graph", fx("two-loop"), "--n", BIG, "--formula", "wc"], 5),
    # no loop word of odd length reduces: 0 before any word is built
    (["cumulants", "--graph", fx("two-loop"), "--n", str(10**9 + 1), "--formula", "wc"], 0),
    (["cumulants", "--graph", fx("two-loop"), "--n", "14", "--formula", "wc", "--budget", "1"], 5),
    (["joint", "--graph", fx("two-loop"), "--indices", ",".join(["1,-1"] * 5000)], 5),
    (["joint", "--graph", fx("two-loop"), "--indices", f"{BIG},-{BIG}"], 4),
    (["freeness", "--graph", fx("two-loop"), "--families", "1,2", "--max-n", BIG], 5),
    (["freeness", "--graph", fx("two-loop"), "--families", f"1,{BIG}"], 4),
    (["freeness", "--graph", fx("two-loop"), "--families", "1,2", "--max-n", "1"], 4),
    (["freeness", "--graph", fx("two-loop"), "--families", "1,2", "--max-n", "-" + BIG], 4),
    (["fractaloid", "--graph", fx("two-loop"), "--depth", BIG], 5),
    (["fractaloid", "--graph", fx("example-6-2"), "--depth", "20000"], 5),
    (["fractaloid", "--graph", fx("three-loop"), "--depth", "300000"], 5),
    (["tree", "--graph", fx("two-loop"), "--depth", BIG], 5),
    (["tree", "--graph", fx("two-loop"), "--depth", "-" + BIG], 4),
    (["lattice", "--max-label", BIG, "--length", BIG], 5),
    (["lattice", "--max-label", BIG, "--length", "2"], 5),
    (["lattice", "--max-label", "2", "--length", BIG], 5),
    (["nc", "--n", BIG], 5),
)


def argv_id(argv):
    """A short test id: fixture names for paths, long values cut."""
    return " ".join(os.path.basename(a).removesuffix(".json")[:20] for a in argv)


@pytest.mark.parametrize("argv, expected", HOSTILE, ids=[argv_id(a) for a, _ in HOSTILE])
@pytest.mark.parametrize("fmt", [[], ["--json"]], ids=["text", "json"])
def test_hostile_sizes_keep_the_exit_code_contract(argv, expected, fmt, tmp_path):
    if PATH_GRAPH in argv:
        path = write_path_graph(tmp_path)
        argv = [path if a == PATH_GRAPH else a for a in argv]
    start = time.perf_counter()
    code, out, err = run_contract(argv + fmt)
    assert time.perf_counter() - start < 5
    assert code == expected
    assert "Traceback" not in err
    if code == 5:
        assert err == ""
        assert out.rstrip().endswith("truncated" if not fmt else '"status": "truncated"}')


@pytest.mark.parametrize("root", ["", "nope"])
@pytest.mark.parametrize("fmt", [[], ["--json"]], ids=["text", "json"])
def test_tree_unknown_root_is_a_validation_error(root, fmt):
    # only an absent --root means the first vertex; an empty one is a name
    argv = ["tree", "--graph", fx("example-6-2"), "--depth", "1", "--root", root]
    assert run_contract(argv + fmt) == (
        4, "", f"validation error: unknown root vertex {root!r}\n"
    )


# A label as large as 10^8 costs neither time nor memory in proportion
# to it: the balance count gives a coordinate only to each label
# present, T_G sums every signed edge, and fractaloid refuses up front
# a full label set that its witness note could not print within
# --budget.  Each command runs in a fresh process under a wall-clock
# ceiling and an address-space cap, so a route that grows with N fails
# the test instead of the test run.
HUGE_LABEL = 10**8
HUGE_LABEL_RUNS = (
    (["moments", "--n", "2"], 0),
    (["moments", "--n", "2", "--verify"], 0),
    (["oracle", "--n", "2", "--max-len", "2"], 0),
    (["fractaloid", "--depth", "2"], 5),
)


@pytest.fixture(scope="module")
def loop_graphs(tmp_path_factory):
    """{label: path} of a one-loop graph whose loop carries that label."""
    d = tmp_path_factory.mktemp("loops")
    paths = {}
    for k in (1, HUGE_LABEL):
        paths[k] = str(d / f"loop-{k}.json")
        with open(paths[k], "w", encoding="utf-8") as fh:
            json.dump({"vertices": ["v"], "edges": [
                {"id": "a", "src": "v", "dst": "v", "label": k},
            ]}, fh)
    return paths


def address_space_cap(limit=256 * 2**20):
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


@pytest.mark.parametrize(
    "argv, code", HUGE_LABEL_RUNS, ids=[" ".join(a) for a, _ in HUGE_LABEL_RUNS]
)
def test_a_huge_label_costs_no_time_or_memory(loop_graphs, argv, code):
    def with_graph(k):
        return argv[:1] + ["--graph", loop_graphs[k]] + argv[1:]

    proc = subprocess.run(
        [sys.executable, "-m", "groupoidlab.cli", *with_graph(HUGE_LABEL)],
        capture_output=True, text=True, cwd=ROOT, timeout=5, preexec_fn=address_space_cap,
        env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")),
    )
    assert (proc.returncode, proc.stderr) == (code, "")
    lines = proc.stdout.splitlines()
    if code == 5:
        assert lines == [
            f"command: {argv[0]}",
            f"graph: {loop_graphs[HUGE_LABEL]}  |V|=1 |E|=1 N={HUGE_LABEL} labeling=explicit",
            f"note: fractaloid: the full label set of {2 * HUGE_LABEL} labels exceeds "
            "the budget 10000000",
            "truncated: True",
            "status: truncated",
        ]
        return
    # the same counts as the loop labeled 1
    assert f"N={HUGE_LABEL} " in lines[1]
    small = run_contract(with_graph(1))
    assert small[0] == 0
    assert lines[2:] == small[1].splitlines()[2:]


@pytest.mark.parametrize(
    "argv",
    [
        ["moments", "--graph", fx("one-loop"), "--n", BIG, "--budget", "100000"],
        *HUGE_N_MOMENTS,
        ["moments", "--graph", fx("one-loop"), "--n", BIG, "--words"],
    ],
    ids=argv_id,
)
def test_huge_n_moments_end_within_seconds(argv):
    # the count of admissible words, which no result reads, stops at its
    # own cap instead of taking n big-integer steps; neither count
    # begins a vertex it cannot finish, and a truncated count skips the
    # walk count.  The word walk is not begun when one word would pass
    # its letter budget (it held 0.8 GB at n = 10^9 when it was).
    proc = subprocess.run(
        [sys.executable, "-m", "groupoidlab.cli", *argv, "--json"], capture_output=True,
        text=True, cwd=ROOT, timeout=5, preexec_fn=address_space_cap,
        env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")),
    )
    assert (proc.returncode, proc.stderr) == (5, "")
    report = json.loads(proc.stdout)
    assert report["status"] == "truncated"
    if "--words" in argv:
        assert report["result"] == {"diagonal": {}, "mode": "reduction", "n": 10**9, "words": []}


def test_kept_words_stop_at_their_cap_in_a_fresh_process(tmp_path):
    # --budget 10^18 admits far more letters than memory holds: the cap
    # on letters kept stops the walk, under the fuzzer's 600 MB address
    # space, within the wall-clock ceiling
    out = tmp_path / "out.txt"
    argv = ["moments", "--graph", fx("example-6-2"), "--budget", str(10**18), "--n", "100",
            "--words"]
    with open(out, "w", encoding="utf-8") as fh:
        proc = subprocess.run(
            [sys.executable, "-m", "groupoidlab.cli", *argv], stdout=fh, stderr=subprocess.PIPE,
            text=True, cwd=ROOT, timeout=15, preexec_fn=lambda: address_space_cap(600 * 2**20),
            env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")),
        )
    assert (proc.returncode, proc.stderr) == (5, "")
    with open(out, "rb") as fh:
        fh.seek(-2000, os.SEEK_END)
        tail = fh.read().decode().splitlines()
    assert "note: word set n=100: the words kept pass the cap of 10000000 letters" in tail
    assert tail[-1] == "status: truncated"


# Graph files that each input rule refuses, with the stderr of the one
# layer that checks it: graphio the labels, graphs.validate_graph the graph.
REFUSED_GRAPHS = (
    ({"vertices": ["v"], "edges": []}, [],
     4, "validation error: cannot label a graph with no edges\n"),
    ({"vertices": ["a", "b"], "edges": []}, [],
     4, "validation error: disconnected: unreachable vertices b\n"),
    ({"vertices": [], "edges": []}, [], 4, "validation error: empty vertex set\n"),
    ({"vertices": ["v"], "edges": [{"id": "e", "src": "v", "dst": "v"}]},
     ["--labeling", "explicit"],
     3, "schema error: explicit labeling requested but the file has no labels\n"),
    ({"vertices": ["v"], "edges": [{"id": "e", "src": "v", "dst": "v", "label": 0}]}, [],
     3, "schema error: edges[0].label: must be >= 1\n"),
)


@pytest.mark.parametrize("obj, flags, code, err", REFUSED_GRAPHS)
@pytest.mark.parametrize("command", [
    ["moments", "--n", "4"], ["fractaloid"], ["tree", "--depth", "1"],
], ids=lambda c: c[0])
@pytest.mark.parametrize("fmt", [[], ["--json"]], ids=["text", "json"])
def test_each_input_rule_refuses_with_its_own_message(obj, flags, code, err, command, fmt,
                                                      tmp_path):
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(obj))
    argv = command[:1] + ["--graph", str(path), *flags] + command[1:] + fmt
    assert run_contract(argv) == (code, "", err)


RERUN = (
    ["moments", "--graph", fx("example-6-2"), "--n", "6", "--verify", "--words"],
    ["moments", "--graph", fx("two-loop"), "--n", "8", "--budget", "50"],
    ["oracle", "--graph", fx("two-loop"), "--n", "4", "--max-len", "4"],
    ["cumulants", "--graph", fx("one-loop"), "--n", "4", "--formula", "both"],
    ["joint", "--graph", fx("example-6-2"), "--indices", "1,-1,2,-2"],
    ["freeness", "--graph", fx("two-loop"), "--families", "1,2", "--max-n", "3"],
    ["fractaloid", "--graph", fx("example-6-2"), "--depth", "4"],
    ["tree", "--graph", fx("example-6-2"), "--depth", "2"],
    ["lattice", "--max-label", "3", "--length", "10"],
    ["nc", "--n", "5"],
)


@pytest.mark.parametrize("argv", RERUN, ids=[argv_id(a) for a in RERUN])
@pytest.mark.parametrize("fmt", [[], ["--json"]], ids=["text", "json"])
def test_rerun_gives_identical_bytes(argv, fmt):
    first = run_contract(argv + fmt)
    assert first[1]
    assert run_contract(argv + fmt) == first


# A graph whose ids hold a comma, a quote, a backslash, a space and a
# non-ASCII letter; every vertex has out-degree 2, so N = 2.
# (id, src, dst, label)
V1, V2 = 'a,b "c"', "x\\y é"
SPECIAL_EDGES = (
    ("e,1", V1, V2, 2),
    ('e"2', V1, V1, 1),
    ("e\\3", V2, V1, 1),
    ("ê 4", V2, V2, 2),
)
SPECIAL_RUNS = (
    (["moments", "--n", "4", "--verify", "--words"], ("text", "json", "csv")),
    (["oracle", "--n", "4", "--max-len", "4"], ("text", "json", "csv")),
    (["cumulants", "--n", "4", "--formula", "both"], ("text", "json", "csv")),
    (["joint", "--indices", "1,-1"], ("text", "json", "csv")),
    (["freeness", "--families", "1,2"], ("text", "json")),
    (["fractaloid"], ("text", "json")),
    (["tree", "--depth", "1"], ("text", "json")),
)
DOT_LABEL = re.compile(r'label=("(?:[^"\\]|\\.)*")\];')


@pytest.fixture(scope="module")
def special_graph(tmp_path_factory):
    path = tmp_path_factory.mktemp("names") / "special.json"
    path.write_text(json.dumps({
        "vertices": [V1, V2],
        "edges": [
            {"id": e, "src": s, "dst": d, "label": k} for e, s, d, k in SPECIAL_EDGES
        ],
    }), encoding="utf-8")
    return str(path)


def dot_labels(dot):
    """The node and edge labels of a DOT text, unescaped, each sorted."""
    nodes, edges = [], []
    for line in dot.splitlines()[2:-1]:
        m = DOT_LABEL.search(line)
        assert m and m.end() == len(line), line
        text = re.sub(r"\\(.)", r"\1", m.group(1)[1:-1])
        (edges if "->" in line else nodes).append(text)
    return sorted(nodes), sorted(edges)


@pytest.mark.parametrize("argv, formats", SPECIAL_RUNS, ids=[a[0] for a, _ in SPECIAL_RUNS])
def test_special_names_survive_every_format(special_graph, argv, formats):
    argv = argv[:1] + ["--graph", special_graph] + argv[1:]
    outputs = {}
    for fmt in formats:
        code, out, err = run_contract(argv + ["--format", fmt])
        assert (code, err) == (0, ""), fmt
        outputs[fmt] = out
    rep = json.loads(outputs["json"])
    assert rep["inputs"]["graph"] == special_graph
    result = rep["result"]
    if "diagonal" in result:
        assert result["diagonal"] and set(result["diagonal"]) <= {V1, V2}
    if "csv" in outputs:
        rows = list(csv.reader(io.StringIO(outputs["csv"])))
        assert rows[0] == ["vertex", "coefficient"]
        assert dict(rows[1:]) == result["diagonal"]
    signed = [e for e, *_ in SPECIAL_EDGES] + ["~" + e for e, *_ in SPECIAL_EDGES]
    for word in result.get("words", ()):
        assert set(word) <= set(signed)
    if argv[0] == "fractaloid":
        assert [t["root"] for t in result["trees"]] == [V1, V2]
        assert result["witness"]["vertex"] == V1
    if argv[0] == "tree":
        assert result["root"] == V1
        # the depth-1 tree at V1: the root, then one child per signed
        # edge out of V1, labeled with that edge's (src,dst)|label
        steps = [(e, s, d, k) for e, s, d, k in SPECIAL_EDGES if s == V1]
        steps += [("~" + e, d, s, -k) for e, s, d, k in SPECIAL_EDGES if d == V1]
        expected = (
            sorted([f"({V1},{V1})|0"] + [f"({s},{d})|{k}" for _, s, d, k in steps]),
            sorted(name for name, *_ in steps),
        )
        assert dot_labels(result["dot"]) == expected
        assert dot_labels(outputs["text"]) == expected


def test_special_names_tree_dot_pinned(special_graph):
    # the DOT alone: the JSON report carries the graph's temporary path
    with open(os.path.join(GOLDEN, "tree-special-depth2.dot"), encoding="utf-8") as fh:
        want = fh.read()
    argv = ["tree", "--graph", special_graph, "--depth", "2"]
    assert run_contract(argv) == (0, want, "")
    code, rep = run_json(argv)
    assert (code, rep["result"]["dot"] + "\n") == (0, want)


E62 = ["--graph", fx("example-6-2")]
# assign_weights returns the flat view that every layer reads, the
# oracle's basis too: one kernel_graph; nc and lattice flatten nothing
ONE = {"kernel_graph": 1}
FLATTEN_RUNS = (
    (["moments", *E62, "--n", "6", "--verify", "--words"], ONE),
    (["moments", *E62, "--n", "1"], ONE),
    (["moments", *E62, "--n", "4", "--mode", "balance", "--format", "csv"], ONE),
    (["oracle", *E62, "--n", "4", "--max-len", "4"], ONE),
    (["cumulants", *E62, "--n", "6", "--formula", "both"], ONE),
    (["joint", *E62, "--indices", "1,-1,2,-2"], ONE),
    (["freeness", *E62, "--families", "1,2"], ONE),
    (["fractaloid", *E62], ONE),
    (["tree", *E62, "--depth", "2"], ONE),
    (["nc", "--n", "6"], {}),
    (["lattice", "--max-label", "2", "--length", "6"], {}),
)


@pytest.fixture
def flatten_counts(monkeypatch):
    from groupoidlab import _kernel, graphs

    counts = {}
    for owner, name in ((_kernel, "kernel_graph"), (graphs, "validate_graph")):
        def counted(*args, _fn=getattr(owner, name), _name=name):
            counts[_name] = counts.get(_name, 0) + 1
            return _fn(*args)

        monkeypatch.setattr(owner, name, counted)
    return counts


@pytest.mark.parametrize("argv, calls", FLATTEN_RUNS, ids=[argv_id(a) for a, _ in FLATTEN_RUNS])
def test_one_flatten_per_command(flatten_counts, argv, calls):
    code, out, err = run_contract(argv)
    assert (code, err) == (0, "")
    # each graph is validated once, by cli.validate_graph
    validations = flatten_counts.pop("validate_graph", 0)
    assert validations == (1 if "--graph" in argv else 0)
    assert flatten_counts == calls


# The process's exit path, cli.run, in fresh `python -m groupoidlab.cli`
# processes: main's bytes and exit code survive os._exit, and a failed
# write to stdout is exit 2 wherever the output first fails.


def spawn(argv, stdout=subprocess.PIPE, unbuffered=False, program=("-m", "groupoidlab.cli")):
    """(exit code, stdout bytes or None, stderr bytes) of one process."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.run(
        [sys.executable, *program, *argv], stdout=stdout, stderr=subprocess.PIPE,
        env=env, cwd=ROOT, timeout=60,
    )
    return proc.returncode, proc.stdout, proc.stderr


@pytest.fixture(scope="module")
def broken_graphs(tmp_path_factory):
    """Paths of a file that is not JSON and of a disconnected graph."""
    d = tmp_path_factory.mktemp("broken")
    (d / "bad.json").write_text("{not json")
    (d / "disconnected.json").write_text(json.dumps({"vertices": ["a", "b"], "edges": []}))
    return str(d / "bad.json"), str(d / "disconnected.json")


# one command per exit code the CLI can reach with every format
EXIT_CASES = {
    0: lambda bad, cut: ["moments", "--graph", fx("example-6-2"), "--n", "2"],
    2: lambda bad, cut: ["moments", "--graph", os.path.join(FIX, "missing.json"), "--n", "2"],
    3: lambda bad, cut: ["moments", "--graph", bad, "--n", "2"],
    4: lambda bad, cut: ["moments", "--graph", cut, "--n", "2"],
    5: lambda bad, cut: ["oracle", "--graph", fx("three-loop"), "--n", "8", "--max-len", "8"],
}


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
@pytest.mark.parametrize("code", sorted(EXIT_CASES))
def test_fresh_process_matches_main(broken_graphs, tmp_path, code, fmt):
    argv = EXIT_CASES[code](*broken_graphs) + ["--format", fmt]
    want, out, err = run_contract(argv)
    assert want == code
    expected = (code, out.encode(), err.encode())
    for unbuffered in (False, True):
        assert spawn(argv, unbuffered=unbuffered) == expected, unbuffered
        with open(tmp_path / "out", "wb") as fh:
            got = spawn(argv, stdout=fh, unbuffered=unbuffered)
        assert got[::2] == expected[::2], unbuffered
        assert (tmp_path / "out").read_bytes() == expected[1], unbuffered


def test_output_past_a_pipe_buffer_arrives_whole():
    argv = ["nc", "--n", "10", "--json"]
    code, out, err = run_contract(argv)
    assert (code, err) == (0, "") and len(out) > 1 << 20
    assert spawn(argv) == (0, out.encode(), b"")


def test_atexit_handlers_still_run():
    # registered before run, as a coverage tool registers its own;
    # what a handler writes is flushed with the report
    program = (
        "-c",
        "import atexit, sys\n"
        "from groupoidlab import cli\n"
        "atexit.register(print, 'atexit handler ran')\n"
        "atexit.register(sys.stderr.write, 'no line end')\n"
        "cli.run(sys.argv[1:])\n",
    )
    argv = ["nc", "--n", "3"]
    _, out, _ = run_contract(argv)
    assert spawn(argv, program=program) == (
        0, (out + "atexit handler ran\n").encode(), b"no line end"
    )


def formats_of(command):
    """The --format choices a subcommand declares in COMMANDS."""
    (kwargs,) = [kw for option, kw in cli.COMMANDS[command][2] if option == "--format"]
    return kwargs["choices"]


TWO_LOOP = ["--graph", fx("two-loop")]
WRITE_RUNS = (
    ["moments", *TWO_LOOP, "--n", "2"],
    ["oracle", *TWO_LOOP, "--n", "2", "--max-len", "2"],
    ["cumulants", *TWO_LOOP, "--n", "2"],
    ["joint", *TWO_LOOP, "--indices", "1,-1"],
    ["freeness", *TWO_LOOP, "--families", "1,2", "--max-n", "2"],
    ["fractaloid", *TWO_LOOP, "--depth", "2"],
    ["tree", *TWO_LOOP, "--depth", "2"],
    ["lattice", "--max-label", "1", "--length", "2"],
    ["nc", "--n", "3"],
)
WRITE_CASES = [(argv, fmt) for argv in WRITE_RUNS for fmt in formats_of(argv[0])]


def assert_io_error(result):
    code, _, err = result
    assert code == 2, err
    assert err.startswith(b"io error: ") and b"Traceback" not in err, err


def spawn_to_closed_pipe(argv, unbuffered=False):
    read, write = os.pipe()
    os.close(read)
    try:
        return spawn(argv, stdout=write, unbuffered=unbuffered)
    finally:
        os.close(write)


@pytest.mark.parametrize(
    "argv, fmt", WRITE_CASES, ids=[f"{a[0]}-{fmt}" for a, fmt in WRITE_CASES]
)
def test_failed_stdout_is_an_io_error(argv, fmt):
    argv = argv + ["--format", fmt]
    with open("/dev/full", "wb") as full:
        assert_io_error(spawn(argv, stdout=full))
    assert_io_error(spawn_to_closed_pipe(argv))


def test_failed_stdout_is_an_io_error_wherever_the_write_fails():
    # unbuffered, or past the buffer, the report's own write fails in
    # main; it is reported once, also where the lines buffered before it
    # fail again at the last flush (nc in text)
    for argv, unbuffered in (
        (["nc", "--n", "3"], True),
        (["nc", "--n", "10", "--json"], False),
        (["nc", "--n", "10"], False),
    ):
        with open("/dev/full", "wb") as full:
            result = spawn(argv, stdout=full, unbuffered=unbuffered)
        assert_io_error(result)
        assert result[2].count(b"\n") == 1
        result = spawn_to_closed_pipe(argv, unbuffered)
        assert_io_error(result)
        assert result[2].count(b"\n") == 1


def test_help_and_usage_take_the_one_exit_path():
    # argparse's help (exit 0) and usage error (exit 2) keep their bytes
    # on a pipe, and help that cannot be written is exit 2 with an io
    # error, buffered (the last flush fails) or unbuffered (the write
    # itself fails, which argparse alone would swallow).
    for unbuffered in (False, True):
        for argv, code in ((["moments", "--help"], 0), (["moments"], 2)):
            _, out, err = run_contract(argv)
            assert spawn(argv, unbuffered=unbuffered) == (code, out.encode(), err.encode())
        with open("/dev/full", "wb") as full:
            assert_io_error(spawn(["moments", "--help"], stdout=full, unbuffered=unbuffered))
        assert_io_error(spawn_to_closed_pipe(["moments", "--help"], unbuffered))


def test_console_script_takes_the_main_block_path():
    tomllib = pytest.importorskip("tomllib")
    with open(os.path.join(ROOT, "pyproject.toml"), "rb") as fh:
        entry = tomllib.load(fh)["project"]["scripts"]["groupoidlab"]
    with open(cli.__file__, encoding="utf-8") as fh:
        module = ast.parse(fh.read())
    (block,) = [
        node for node in module.body
        if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"
    ]
    (statement,) = block.body
    call = statement.value
    assert isinstance(call, ast.Call) and not call.args and not call.keywords
    assert entry == f"groupoidlab.cli:{call.func.id}"


def test_large_graph_set_up_is_linear(tmp_path):
    # a connected graph of 20,000 vertices and 40,000 edges: labeling
    # and flattening take one pass over the edges, so each fresh process
    # ends within seconds (a scan of every edge per vertex took tens);
    # fractaloid walks once for every root, within the default budget
    rng = random.Random(3)
    nv, ne = 20_000, 40_000
    ends = [(rng.randrange(i), i) for i in range(1, nv)]
    ends += [(rng.randrange(nv), rng.randrange(nv)) for _ in range(ne - len(ends))]
    rng.shuffle(ends)
    path = tmp_path / "large.json"
    path.write_text(json.dumps({
        "vertices": [f"v{i}" for i in range(nv)],
        "edges": [
            {"id": f"e{j}", "src": f"v{a}", "dst": f"v{b}"} for j, (a, b) in enumerate(ends)
        ],
    }))
    reports = []
    for argv in (
        ["moments", "--n", "2"], ["tree", "--depth", "1"], ["fractaloid", "--depth", "4"]
    ):
        start = time.perf_counter()
        code, out, err = spawn([*argv, "--graph", str(path), "--json"])
        assert (code, err) == (0, b""), argv
        assert time.perf_counter() - start < 5, argv
        reports.append(json.loads(out))
    moments, tree, fractaloid = reports
    # each length-2 reducing word is e inv(e), one per signed edge
    assert sum(map(int, moments["result"]["diagonal"].values())) == 2 * ne
    root_degree = sum((a == 0) + (b == 0) for a, b in ends)
    assert tree["result"]["nodes"] == 1 + root_degree
    assert len(fractaloid["result"]["trees"]) == nv
