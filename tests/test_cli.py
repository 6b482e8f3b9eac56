import io
import json
import os
import re
import sys

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


def test_exit_parse_missing_src(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"vertices": ["a"], "edges": [{"id": "e", "dst": "a"}]}))
    code, _ = run(["moments", "--graph", str(p), "--n", "2"])
    assert code == 3


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
    # partial tallies are not compared: no "counts differ" note
    code, rep = run_json(
        ["moments", "--graph", fx("two-loop"), "--n", "8", "--budget", "50"]
    )
    assert code == 5
    assert rep["diagnostics"]["truncated"] is True
    assert not any("differ" in n for n in rep["diagnostics"]["notes"])


def test_exit_verify_mismatch(monkeypatch):
    # force a mismatch by patching the oracle
    from groupoidlab import operators

    monkeypatch.setattr(
        cli.operators,
        "oracle_expectation_power",
        lambda lg, n, L, budget=None: {"v": 999},
    )
    code, rep = run_json(["moments", "--graph", fx("one-loop"), "--n", "2", "--verify"])
    assert code == 6
    assert rep["status"] == "verification-mismatch"


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
    '100000 at length 7"], "truncated": true}, "result": {}, '
    '"status": "truncated"}\n'
)


def test_oracle_json_bytes_pinned(monkeypatch):
    monkeypatch.chdir(ROOT)
    argv = ["oracle", "--graph", "fixtures/two-loop.json", "--n", "7",
            "--max-len", "7", "--json"]
    assert run(argv) == (0, ORACLE_TWO_LOOP_7_JSON)
    argv = ["oracle", "--graph", "fixtures/three-loop.json", "--n", "8",
            "--max-len", "8", "--json"]
    assert run(argv) == (5, ORACLE_THREE_LOOP_8_JSON)


def test_nc_budget_exhaustion_exits_5(capsys):
    # NC(13) is past NC_BUDGET = 12: a truncated report, not an error
    note = "n=13 exceeds the NC enumeration budget 12"
    for argv in (
        ["nc", "--n", "13"],
        # checked before any of the 4^n index tuples is built
        ["freeness", "--graph", fx("two-loop"), "--families", "1,2", "--max-n", "13"],
    ):
        code, rep = run_json(argv)
        assert code == 5, argv
        assert rep["status"] == "truncated"
        assert rep["diagnostics"] == {"truncated": True, "notes": [note]}
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
    assert rep["result"] == {"diagonal": {"v": "264"}}
    assert rep["diagnostics"] == {"truncated": True, "notes": [note]}
    code, out = run(argv)
    assert code == 5
    assert out.splitlines() == [
        "command: cumulants",
        "diagonal: {v: 264}",
        f"note: {note}",
        "truncated: True",
        "status: truncated",
    ]
    # the wc route alone has nothing finished to report
    code, rep = run_json(argv[:-1] + ["wc"])
    assert code == 5
    assert rep["result"] == {}
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
        assert rep["diagnostics"]["notes"][0].endswith(note)
        assert capsys.readouterr().err == ""


def test_tree_past_the_node_budget_exits_5(capsys):
    # three-loop at depth 7: 1 + 6 + ... + 6^7 nodes, refused unbuilt
    argv = ["tree", "--graph", fx("three-loop"), "--depth", "7"]
    note = "tree of 335923 nodes exceeds the node budget 100000"
    code, rep = run_json(argv)
    assert code == 5
    assert rep["result"] == {}
    assert rep["diagnostics"] == {"truncated": True, "notes": [note]}
    code, out = run(argv)
    assert code == 5
    assert out.splitlines() == [
        "command: tree",
        f"note: {note}",
        "truncated: True",
        "status: truncated",
    ]
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
    assert rep["result"] == {"diagonal": {"v": "4"}}
    assert rep["diagnostics"]["notes"] == ["cumulant_via_wc: enumeration budget exhausted"]
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
