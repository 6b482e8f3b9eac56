"""Command-line front end.

Exit codes: 0 ok, 2 IO error, 3 parse/schema error, 4 validation
failure, 5 budget exhausted, 6 verification mismatch.  Identical
invocations print byte-identical output.

Each subcommand returns only its result, adding its own diagnostics to
the dict it is handed; _execute builds the one report around them.  A
budget that runs out only marks that report truncated and adds its
note: the result keeps what finished.

A well-formed argv is read straight from the command table, COMMANDS;
argparse is imported, and its full parser built, only for help, usage
and errors.  Each subcommand imports only the layers it calls:
start-up is most of the cost of a short command.

A process ends through run: main, then the atexit handlers, then a
flush of stdout and stderr, then os._exit, which skips the
interpreter's teardown (it cost more than all of the imports).
"""

import atexit
import json
import os
import sys
from types import SimpleNamespace

from .errors import BASIS_BUDGET, ENUM_BUDGET, Budget, BudgetExceededError, GraphError
from .errors import ParseError, SchemaError, VerificationMismatch

EXIT_OK = 0
EXIT_IO = 2
EXIT_PARSE = 3
EXIT_VALIDATION = 4
EXIT_BUDGET = 5
EXIT_VERIFY = 6


def _diag_payload(d) -> dict:
    """Machine form of a diagonal element: coefficient strings keep the
    integers exact for any JSON consumer."""
    return {v: str(c) for v, c in d.coeffs}


# The graph layer's entry points, module-level names here so that a
# tracer can wrap them where the CLI calls them.  Each imports the graph
# layer on its first call: lattice and nc never load it.  shadow
# validates each graph, once.  validate_graph, no longer called, is only
# the hook that the benchmark's tracer wraps by name, until the ROADMAP
# item "One run ledger, and the benchmark reads it".
def validate_graph(graph):
    from .graphs import validate_graph

    return validate_graph(graph)


def shadow(graph):
    from .graphs import shadow

    return shadow(graph)


def _load_labeled(args) -> tuple:
    """(labeled flat view, inputs, notes) of the file args.graph names."""
    from . import graphio, labeling

    graph, file_labels = graphio.parse_graph_file(args.graph)
    graph = shadow(graph)
    mode = args.labeling
    if mode == "auto":
        mode = labeling.MODE_EXPLICIT if file_labels else labeling.MODE_VERTEX
    if mode == labeling.MODE_EXPLICIT and not file_labels:
        raise SchemaError("explicit labeling requested but the file has no labels")
    kg = labeling.assign_weights(graph, mode, explicit=file_labels)
    inputs = {
        "graph": args.graph,
        "vertices": len(graph.vertices),
        "edges": len(graph.edges),
        "max_label": kg.max_label,
        "labeling": mode,
    }
    return kg, inputs, graphio.notes_for(graph, file_labels)


def _emit(args, report: dict) -> None:
    fmt = getattr(args, "format", "text")
    if fmt == "json":
        print(json.dumps(report, sort_keys=True, separators=(", ", ": ")))
        return
    if fmt == "csv":
        import csv  # quotes a name holding a comma, a quote or a line break

        table = report.get("result", {}).get("diagonal") or {}
        rows = csv.writer(sys.stdout, lineterminator="\n")
        rows.writerow(("vertex", "coefficient"))
        rows.writerows((v, table[v]) for v in sorted(table))
        return
    _emit_text(report)


def _emit_text(report: dict) -> None:
    print(f"command: {report['command']}")
    inputs = report.get("inputs")
    if inputs:
        print(
            "graph: {graph}  |V|={vertices} |E|={edges} N={max_label} "
            "labeling={labeling}".format(**inputs)
        )
    result = report.get("result", {})
    for key in sorted(result):
        value = result[key]
        if isinstance(value, dict):
            body = "  ".join(f"{k}: {value[k]}" for k in sorted(value))
            print(f"{key}: {{{body}}}" if value else f"{key}: {{}}")
        elif isinstance(value, list):
            print(f"{key}: {json.dumps(value, sort_keys=True)}")
        else:
            print(f"{key}: {value}")
    diag = report.get("diagnostics", {})
    for key in sorted(diag):
        if key == "notes":
            for note in diag[key]:
                print(f"note: {note}")
        else:
            print(f"{key}: {diag[key]}")
    print(f"status: {report['status']}")


def _digit_limit() -> int:
    """Python's limit on the digits of an integer str() prints; 0: none."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


def _unprintable(what: str, limit: int) -> BudgetExceededError:
    return BudgetExceededError(f"{what} the {limit}-digit limit for printing an integer")


def _truncated(diagnostics, exc: BudgetExceededError):
    """Mark the report truncated, with exc's note; what finished, or None."""
    diagnostics["truncated"] = True
    diagnostics.setdefault("notes", []).append(str(exc))
    return exc.partial


def _cmd_moments(args, kg, diagnostics) -> dict:
    from . import moments

    # only what was asked for (the --mode count, --words, --verify)
    # decides the status; a count that ran out is a note, not a sum
    counts, ran_out = {}, set()
    for mode, count in (("reduction", moments.moment), ("balance", moments.balance_moment)):
        try:
            counts[mode] = count(kg, args.n, args.budget)
        except BudgetExceededError as exc:  # the vertices it finished
            counts[mode] = exc.partial
            ran_out.add(mode)
            diagnostics["notes"].append(f"the {mode} count at n={args.n} ran out of --budget")
        else:
            diagnostics[f"{mode}_count"] = sum(c for _, c in counts[mode].coeffs)
    diagnostics["truncated"] = args.mode in ran_out
    sums = [diagnostics.get(f"{mode}_count") for mode in counts]
    if None not in sums and sums[0] != sums[1]:
        diagnostics["notes"].append(
            "reduction and balance counts differ at n={} ({} vs {}); the reduction count "
            "is the one matching the operator oracle.".format(args.n, *sums)
        )
    result = {"diagonal": _diag_payload(counts[args.mode]), "n": args.n, "mode": args.mode}
    if args.words:
        try:
            words = moments.w_m_set(kg, args.n, args.mode, budget=args.budget)
        except BudgetExceededError as exc:
            words = _truncated(diagnostics, exc)  # the words found so far
        result["words"] = _word_names(kg, words)
    if args.verify and "reduction" in ran_out:
        diagnostics["truncated"] = True
        diagnostics["notes"].append(
            f"verification skipped: the reduction count at n={args.n} is truncated"
        )
    elif args.verify:
        from . import operators

        try:
            oracle = operators.oracle_expectation_power(
                kg, args.n, args.n // 2, budget=args.basis_budget
            )
        except BudgetExceededError as exc:
            _truncated(diagnostics, exc)
            return result
        diagnostics["oracle"] = {v: str(c) for v, c in sorted(oracle.items())}
        if moments.DiagonalElement.of(oracle) != counts["reduction"]:
            raise VerificationMismatch("moments disagree with the oracle", result)
    return result


def _word_names(kg, words) -> list:
    """Each word, a tuple of signed-edge indices, as the names of its
    letters, from the view's names."""
    name = kg.names.__getitem__
    return [list(map(name, w)) for w in words]


def _cmd_oracle(args, kg, diagnostics) -> dict:
    from . import operators

    values = operators.oracle_expectation_power(
        kg, args.n, args.max_len, budget=args.basis_budget
    )
    limit = _digit_limit()
    if limit and max(values.values(), default=0) >= 10**limit:
        raise _unprintable(f"oracle n={args.n}: a moment passes", limit)
    return {
        "diagonal": {v: str(c) for v, c in sorted(values.items())},
        "n": args.n,
        "max_len": args.max_len,
    }


def _cmd_cumulants(args, kg, diagnostics) -> dict:
    from . import moments

    result: dict = {"n": args.n, "formula": args.formula}
    if args.formula in ("direct", "both"):
        result["diagonal"] = _diag_payload(moments.cumulant_direct(kg, args.n))
    if args.formula in ("wc", "both"):
        try:
            wc = moments.cumulant_via_wc(kg, args.n, budget=args.budget)
        except BudgetExceededError as exc:
            # the direct value when there is one, else wc's partial sum
            partial = _truncated(diagnostics, exc)
            if partial is not None:
                result.setdefault("diagonal", _diag_payload(partial))
            return result
        result.setdefault("diagonal", _diag_payload(wc))
        result["wc"] = _diag_payload(wc)
    if args.formula == "both":
        diagnostics["formulas_agree"] = result["diagonal"] == result["wc"]
    return result


def _cmd_joint(args, kg, diagnostics) -> dict:
    from . import moments

    try:
        m = moments.joint_moment(kg, args.indices, budget=args.budget)
    except BudgetExceededError as exc:  # the vertices the DP finished
        return {"diagonal": _diag_payload(_truncated(diagnostics, exc))}
    k = moments.joint_cumulant(kg, args.indices)
    return {
        "indices": list(args.indices),
        "diagonal": _diag_payload(m),
        "cumulant": _diag_payload(k),
    }


def _cmd_freeness(args, kg, diagnostics) -> dict:
    from . import moments

    k1, k2 = args.families
    rep = moments.check_freeness(kg, k1, k2, max_n=args.max_n)
    return {
        "families": [k1, k2],
        "max_n": rep.max_n,
        "tuples_checked": rep.tuples_checked,
        "max_abs_coefficient": str(rep.max_abs_coefficient),
        "free_to_order": rep.free_to_order,
        "families_diagram_distinct": rep.families_diagram_distinct,
        "nonzero": [
            {"indices": list(idx), "diagonal": _diag_payload(val)}
            for idx, val in rep.nonzero
        ],
    }


def _cmd_fractaloid(args, kg, diagnostics) -> dict:
    from . import automaton

    # depth x signed edges, charged up front: one walk serves every root
    steps = args.depth * kg.n_signed
    Budget(args.budget, lambda: (
        f"fractaloid depth={args.depth}: {steps} walk steps exceed the budget {args.budget}"
    )).charge(steps)
    # a witness note prints the full label set, 2N labels
    labels = 2 * kg.max_label
    Budget(args.budget, lambda: (
        f"fractaloid: the full label set of {labels} labels exceeds the budget {args.budget}"
    )).charge(labels)
    limit = _digit_limit()
    try:
        verdict = automaton.is_fractaloid(
            kg,
            depth=args.depth,
            max_nodes=10**limit - 1 if limit else None,
        )
    except BudgetExceededError:
        raise _unprintable(f"fractaloid depth={args.depth}: a node count passes", limit) from None
    return {
        "fractaloid": verdict.fractaloid,
        "depth": verdict.depth,
        "max_label": verdict.max_label,
        "witness": verdict.witness,
        "trees": [
            {"root": v, "regular": reg, "nodes": cnt} for v, reg, cnt in verdict.trees
        ],
    }


def _cmd_tree(args, kg, diagnostics) -> dict | None:
    from . import automaton

    root = kg.vertices[0] if args.root is None else args.root
    tree = automaton.build_tree(kg, root, args.depth)
    if args.format == "text":
        print(tree.dot)
        return None  # DOT already emitted
    return {"root": root, "depth": args.depth, "dot": tree.dot, "nodes": len(tree.nodes())}


def _cmd_lattice(args, kg, diagnostics) -> dict:
    from .labeling import count_axis_paths

    n, k = args.max_label, args.length
    limit = _digit_limit()
    # refuse up front a count that str() might not print: it is at most
    # (2N)^k, which is at least 16^limit once k * bit_length(N) >= 4 limit
    if limit and n >= 1 and k >= 1 and not k % 2 and (
        k * n.bit_length() >= 4 * limit or (2 * n) ** k >= 10**limit
    ):
        raise _unprintable(
            f"lattice k={k}: a count of up to (2N)^k = {2 * n}^{k} may pass", limit
        )
    count = count_axis_paths(n, k, budget=args.budget)
    return {"max_label": n, "length": k, "count": str(count)}


def _cmd_nc(args, kg, diagnostics) -> dict:
    from . import ncpartitions

    parts = ncpartitions.enumerate_nc(args.n)
    mus = [ncpartitions.moebius(pi) for pi in parts]
    return {
        "n": args.n,
        "count": len(parts),
        "catalan": ncpartitions.catalan(args.n),
        "moebius_row": [{"blocks": pi.blocks, "mu": mu} for pi, mu in zip(parts, mus)],
        "moebius_sum": sum(mus),
    }


def _index_list(raw: str) -> tuple:
    try:
        return tuple(int(part) for part in raw.split(",") if part.strip() != "")
    except ValueError:
        import argparse

        raise argparse.ArgumentTypeError(f"bad index list {raw!r}") from None


def _label_pair(raw: str) -> tuple:
    pair = _index_list(raw)
    if len(pair) != 2:
        import argparse

        raise argparse.ArgumentTypeError(f"need exactly two labels, got {raw!r}")
    return pair


def _positive_int(raw: str) -> int:
    value = int(raw)
    if value < 1:
        import argparse

        raise argparse.ArgumentTypeError("budget must be positive")
    return value


_GRAPH = (
    ("--graph", dict(required=True, help="graph JSON file")),
    ("--labeling", dict(
        choices=["auto", "vertex", "multiedge", "explicit"],
        default="auto",
        help="labeling mode (auto: explicit when the file has labels)",
    )),
)


def _formats(*formats) -> tuple:
    return (
        ("--format", dict(choices=["text", "json", *formats], default="text")),
        ("--json", dict(
            dest="format", action="store_const", const="json",
            help="shorthand for --format json",
        )),
    )


_TEXT_JSON, _WITH_CSV = _formats(), _formats("csv")
_BUDGET = (("--budget", dict(type=_positive_int, default=ENUM_BUDGET)),)
_BASIS_BUDGET = (("--basis-budget", dict(type=_positive_int, default=BASIS_BUDGET)),)
_N = (("--n", dict(type=int, required=True)),)

# name -> (handler, help, flags in the order of --help); each flag is
# (option, add_argument keywords).  A subcommand declares only the
# common flags its handler reads.
COMMANDS = {
    "moments": (_cmd_moments, "E(T_G^n) by the excursion DP", (
        *_GRAPH, *_WITH_CSV, *_BUDGET, *_BASIS_BUDGET, *_N,
        ("--mode", dict(choices=["reduction", "balance"], default="reduction")),
        ("--verify", dict(action="store_true", help="cross-check with the oracle")),
        ("--words", dict(
            action="store_true",
            help="include the qualifying words (signed edge ids, ~ marks the shadow)",
        )),
    )),
    "oracle": (_cmd_oracle, "E(T_G^n) from the truncated operator model", (
        *_GRAPH, *_WITH_CSV, *_BASIS_BUDGET, *_N,
        ("--max-len", dict(type=int, required=True)),
    )),
    "cumulants": (_cmd_cumulants, "k_n(T_G, ..., T_G)", (
        *_GRAPH, *_WITH_CSV, *_BUDGET, *_N,
        ("--formula", dict(choices=["direct", "wc", "both"], default="direct")),
    )),
    "joint": (_cmd_joint, "joint moment and cumulant for an index tuple", (
        *_GRAPH, *_WITH_CSV, *_BUDGET,
        ("--indices", dict(
            type=_index_list, required=True, help="comma-separated labels, e.g. 1,-1,2"
        )),
    )),
    "freeness": (_cmd_freeness, "mixed cumulants between two label families", (
        *_GRAPH, *_TEXT_JSON,
        ("--families", dict(type=_label_pair, required=True, help="two labels, e.g. 1,2")),
        ("--max-n", dict(type=int, default=4)),
    )),
    "fractaloid": (_cmd_fractaloid, "decide the fractaloid property", (
        *_GRAPH, *_TEXT_JSON, *_BUDGET,
        ("--depth", dict(type=int, default=4)),
    )),
    "tree": (_cmd_tree, "emit the depth-d action tree as DOT", (
        *_GRAPH, *_TEXT_JSON,
        ("--root", dict(default=None)),
        ("--depth", dict(type=int, required=True)),
    )),
    "lattice": (_cmd_lattice, "count balanced label words", (
        *_TEXT_JSON, *_BUDGET,
        ("--max-label", dict(type=int, required=True)),
        ("--length", dict(type=int, required=True)),
    )),
    "nc": (_cmd_nc, "noncrossing partition diagnostics", (*_TEXT_JSON, *_N)),
}


def build_parser() -> "argparse.ArgumentParser":
    """The parser with every subcommand registered: it words all help,
    usage and error text."""
    import argparse

    class Parser(argparse.ArgumentParser):
        def _print_message(self, message, file=None):
            # argparse drops a failed write; here it is an io error
            if message:
                (file or sys.stderr).write(message)

    parser = Parser(
        prog="groupoidlab",
        description="Labeled graph groupoids: moments, cumulants, automata.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, summary, flags) in COMMANDS.items():
        p = sub.add_parser(name, help=summary)
        p.set_defaults(func=func)
        for option, kwargs in flags:
            p.add_argument(option, **kwargs)
    return parser


def _read_argv(argv):
    """The arguments argparse would parse from argv, read from COMMANDS,
    or None unless argv is well formed: a subcommand's exact name, then
    only its exact flags, each value-taking one followed by a value that
    does not start with "-" and passes its type and choices, and every
    required flag given.  The last occurrence of a flag wins."""
    if not argv or argv[0] not in COMMANDS:
        return None
    func, _, flags = COMMANDS[argv[0]]
    values = {"command": argv[0], "func": func}
    declared, required = {}, set()
    for option, kwargs in flags:
        dest = kwargs.get("dest", option[2:].replace("-", "_"))
        declared[option] = dest, kwargs
        flag = kwargs.get("action") == "store_true"
        values.setdefault(dest, kwargs.get("default", False if flag else None))
        if kwargs.get("required"):
            required.add(option)
    tokens = iter(argv[1:])
    for token in tokens:
        if token not in declared:
            return None
        dest, kwargs = declared[token]
        if "action" in kwargs:  # store_true or store_const
            value = kwargs.get("const", True)
        else:
            raw = next(tokens, "-")  # no value left reads as a flag
            if raw.startswith("-"):
                return None
            try:
                value = kwargs.get("type", str)(raw)
            except Exception:  # argparse runs the type again and words the error
                return None
            if value not in kwargs.get("choices", (value,)):
                return None
        values[dest] = value
        required.discard(token)
    return None if required else SimpleNamespace(**values)


def _parse_args(argv):
    """The parsed arguments: read from COMMANDS when argv is well formed,
    else by argparse, whose help, usage and error text and exit codes are
    then the CLI's."""
    if argv is None:
        argv = sys.argv[1:]
    return _read_argv(argv) or build_parser().parse_args(argv)


def main(argv=None) -> int:
    """Run one command and emit its report; the exit code.  A failed
    read or write, the report's and argparse's help included, is exit 2."""
    try:
        args = _parse_args(argv)
        code, report = _execute(args)
        if report is not None:
            _emit(args, report)
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO
    return code


def _execute(args) -> tuple:
    """(exit code, report to emit or None) of one parsed command; an
    OSError propagates."""
    diagnostics: dict = {"truncated": False}
    report: dict = {"command": args.command, "diagnostics": diagnostics}
    kg = None
    try:
        if hasattr(args, "graph"):
            kg, report["inputs"], diagnostics["notes"] = _load_labeled(args)
        report["result"] = args.func(args, kg, diagnostics)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE, None
    except SchemaError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return EXIT_PARSE, None
    except GraphError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION, None
    except BudgetExceededError as exc:
        _truncated(diagnostics, exc)
        report["result"] = {}
    except VerificationMismatch as exc:
        if exc.result is None:
            diagnostics["notes"].append(str(exc))
        report.update(result=exc.result or {}, status="verification-mismatch")
        return EXIT_VERIFY, report
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION, None
    if report["result"] is None:  # tree has printed its DOT
        return EXIT_OK, None
    truncated = diagnostics["truncated"]
    report["status"] = "truncated" if truncated else "ok"
    return EXIT_BUDGET if truncated else EXIT_OK, report


def run(argv=None):
    """The process's one exit path: main, or the code of the SystemExit
    that argparse raises for help, usage and errors, then the atexit
    handlers (a coverage tool saves its data there), then a flush of
    stdout and stderr, which carries what a handler printed too, then
    os._exit with that code, which skips the interpreter's teardown.
    Output that fails only at this flush is exit 2, as a failed write in
    main is.  Any other exception from main passes through to the
    interpreter's normal exit."""
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse exits with an integer status
        code = exc.code or 0
    atexit._run_exitfuncs()
    try:
        sys.stdout.flush()
    except OSError as exc:
        if code != EXIT_IO:  # else main has reported this failure
            print(f"io error: {exc}", file=sys.stderr)
            code = EXIT_IO
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
