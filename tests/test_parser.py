"""The CLI parses with the parser of the one subcommand its argv names.
Its help, usage and error text, its exit codes and its parsed arguments
must equal those of the parser with every subcommand registered."""

import contextlib
import io
import os
import sys

import pytest

from groupoidlab import cli

ROOT = os.path.join(os.path.dirname(__file__), "..")
G = os.path.join(ROOT, "fixtures", "two-loop.json")

# one valid argv per subcommand
VALID = {
    "moments": ["--graph", G, "--n", "1"],
    "oracle": ["--graph", G, "--n", "1", "--max-len", "1"],
    "cumulants": ["--graph", G, "--n", "2"],
    "joint": ["--graph", G, "--indices", "1,-1"],
    "freeness": ["--graph", G, "--families", "1,2"],
    "fractaloid": ["--graph", G],
    "tree": ["--graph", G, "--depth", "1"],
    "lattice": ["--max-label", "1", "--length", "2"],
    "nc": ["--n", "3"],
}

ARGVS = [
    [],
    ["-h"],
    ["bogus"],
    ["mom", "--n", "1"],
    ["--", "moments"],
    ["moments", "--graph", G],  # --n missing
    ["moments", "--graph", G, "--n", "1", "--mode", "both"],  # bad choice
    ["moments", "--graph", G, "--n", "x"],  # bad type
    ["moments", "--gra", G, "--n", "1"],  # abbreviation
    ["moments", "--graph", G, "--n", "1", "--format", "csv", "--json"],
    ["moments", "--graph", G, "--n", "1", "bogus"],
    ["moments", "--graph", G, "--n", "1", "oracle"],
    ["moments", "--graph", G, "--n", "1", "-h", "bogus"],
    ["lattice", "--max-label", "1", "--length", "2", "--budget", "0"],
    ["nc", "--n", "3", "--format", "csv"],
    ["nc"],
]
for name, rest in VALID.items():
    ARGVS += [[name, "-h"], [name, *rest], [name, *rest, "--json"], [name, *rest, "--bogus"]]


def observe(parse, argv):
    """(exit code or None, stdout, stderr, parsed arguments or None)."""
    out, err = io.StringIO(), io.StringIO()
    old = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    try:
        args, code = vars(parse(argv)), None
    except SystemExit as exc:
        args, code = None, exc.code
    finally:
        sys.stdout, sys.stderr = old
    return code, out.getvalue(), err.getvalue(), args


def reference(argv):
    return cli.build_parser().parse_args(argv)


@pytest.mark.parametrize("argv", ARGVS, ids=[" ".join(a).replace(G, "G") for a in ARGVS])
def test_one_subcommand_parser_matches_the_full_parser(argv):
    assert observe(cli._parse_args, argv) == observe(reference, argv)


def test_leftover_arguments_print_the_full_usage():
    code, out, err, _ = observe(cli._parse_args, ["moments", "--graph", G, "--n", "1", "bogus"])
    assert (code, out) == (2, "")
    assert "{" + ",".join(cli.COMMANDS) + "}" in err
    assert err.endswith("error: unrecognized arguments: bogus\n")


def test_full_parser_registers_every_subcommand():
    code, out, _, _ = observe(reference, ["-h"])
    assert code == 0
    assert all(f"    {name} " in out for name in cli.COMMANDS)
    assert len(cli.COMMANDS) == 9


def test_main_reads_sys_argv(monkeypatch):
    # the groupoidlab console script calls main() with no argv
    def contract(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        return code, out.getvalue(), err.getvalue()

    for argv in ([], ["-h"], ["bogus"], ["nc", "--n", "4", "--json"],
                 ["moments", "--graph", G, "--n", "2", "bogus"]):
        monkeypatch.setattr(sys, "argv", ["groupoidlab", *argv])
        assert contract(None) == contract(argv), argv
