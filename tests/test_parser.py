"""The CLI reads a well-formed argv from its command table and hands
any other argv to argparse's full parser.  Its help, usage and error
text, its exit codes and its parsed arguments must equal those of the
full parser, which has every subcommand registered."""

import contextlib
import io
import os
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    ["joint", "--graph", G, "--indices", "-1,2"],  # argparse reads -1,2 as an option
    ["joint", "--graph", G, "--indices=-1,2"],
    ["nc", "--n", "-3"],  # a negative number is a value to argparse
    ["nc", "--n", "1", "--n", "2"],  # the last occurrence wins
    ["moments", "--graph", G, "--n", "1", "--json", "--format", "csv"],
    ["moments", "--graph", "", "--n", "1"],
    ["joint", "--graph", G, "--indices", "1,x"],
    ["freeness", "--graph", G, "--families", "1"],
    ["moments", "--graph", G, "--n", "1", "--budget", "0"],
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
def test_argv_reader_matches_the_full_parser(argv):
    assert observe(cli._parse_args, argv) == observe(reference, argv)


OPTIONS = sorted({option for _, _, flags in cli.COMMANDS.values() for option, _ in flags})
VALUES = ["1", "-1", "0", "x", "", "1,2", "-1,2", "json", "csv", "both", G]


def option_forms(option):
    """The declared option, an abbreviation of it (--n has none), or its
    = form."""
    return st.one_of(
        st.just([option]),
        st.integers(3, max(3, len(option) - 1)).map(lambda k: [option[:k]]),
        st.sampled_from(VALUES).map(lambda v: [f"{option}={v}"]),
    )


# a piece of an argv: an option with or without a value, a bare value,
# a bogus option, help or the end-of-options marker
PIECES = st.one_of(
    st.tuples(st.sampled_from(OPTIONS).flatmap(option_forms), st.sampled_from(VALUES))
    .map(lambda p: [*p[0], p[1]]),
    st.sampled_from(OPTIONS).flatmap(option_forms),
    st.sampled_from(VALUES).map(lambda v: [v]),
    st.sampled_from([["-h"], ["--"], ["--bogus"], ["--bogus", "1"]]),
)
NAMES = st.sampled_from(list(cli.COMMANDS)) | st.sampled_from(
    ["mom", "cumul", "bogus", "", "-h", "--", "--graph"]
)


# values each type accepts; argparse alone reads the negative ones
GOOD = {int: ["1", "2", "-1"], cli._positive_int: ["1", "2"],
        cli._index_list: ["1,2", "-1"], cli._label_pair: ["1,2"]}


@st.composite
def own_piece(draw, name, any_value):
    """A flag the subcommand declares, mostly in its declared form, with
    a value when it takes one: one its type or choices accept, or with
    any_value any of VALUES."""
    option, kwargs = draw(st.sampled_from(cli.COMMANDS[name][2]))
    form = draw(st.sampled_from(["declared"] * 4 + ["abbreviated", "="]))
    if form == "abbreviated":
        option = option[:draw(st.integers(3, max(3, len(option) - 1)))]
    if "action" in kwargs:
        return [f"{option}=1" if form == "=" else option]
    good = st.sampled_from(kwargs.get("choices") or GOOD.get(kwargs.get("type"), VALUES))
    value = draw(good | st.sampled_from(VALUES) if any_value else good)
    return [f"{option}={value}"] if form == "=" else [option, value]


def joined(pieces):
    return [t for piece in pieces for t in piece]


@st.composite
def argvs(draw):
    """A subcommand name and pieces.  Half the argvs for a real name are
    its valid argv and more of its own flags with accepted values, so
    that argvs read from the table, argvs argparse parses and argvs it
    refuses are all frequent."""
    name = draw(NAMES)
    if name in VALID and draw(st.booleans()):
        return [name, *VALID[name], *joined(draw(st.lists(own_piece(name, False), max_size=3)))]
    body = VALID.get(name, []) if draw(st.booleans()) else []
    pieces = st.one_of(own_piece(name, True), PIECES) if name in VALID else PIECES
    before = draw(st.lists(pieces, max_size=1))
    after = draw(st.lists(pieces, max_size=3))
    return [name, *joined(before), *body, *joined(after)]


@settings(max_examples=300, deadline=None)
@given(argvs())
def test_argv_reader_matches_the_full_parser_on_generated_argv(argv):
    assert observe(cli._parse_args, argv) == observe(reference, argv)


def test_every_valid_argv_is_read_without_argparse():
    for name, rest in VALID.items():
        args = cli._read_argv([name, *rest, "--json"])
        assert args is not None, name
        assert vars(args) == vars(reference([name, *rest, "--json"]))


@pytest.mark.parametrize("argv, message", [
    (["joint", "--graph", G, "--indices", "1,x"], "bad index list '1,x'"),
    (["freeness", "--graph", G, "--families", "1"], "need exactly two labels, got '1'"),
    (["lattice", "--max-label", "1", "--length", "2", "--budget", "0"], "budget must be positive"),
], ids=["indices", "families", "budget"])
def test_type_errors_are_worded_by_argparse(argv, message):
    assert cli._read_argv(argv) is None
    code, out, err, _ = observe(cli._parse_args, argv)
    assert (code, out) == (2, "")
    assert err.endswith(f"{argv[-2]}: {message}\n")


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
