"""Command-line front end.

Exit codes: 0 ok, 2 IO error, 3 parse/schema error, 4 validation
failure, 5 budget exhausted (partial results are still emitted, with a
truncated flag), 6 verification mismatch.  Identical invocations print
byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import automaton, fixtures, graphio, labeling, moments, ncpartitions, operators
from .errors import BudgetExceededError
from .graphs import GraphError, shadow, validate_graph
from .labeling import LabeledGraph, count_axis_paths
from .moments import DiagonalElement

EXIT_OK = 0
EXIT_IO = 2
EXIT_PARSE = 3
EXIT_VALIDATION = 4
EXIT_BUDGET = 5
EXIT_VERIFY = 6


class VerificationMismatch(RuntimeError):
    def __init__(self, message, report):
        super().__init__(message)
        self.report = report


def _diag_payload(d: DiagonalElement) -> dict:
    """Machine form of a diagonal element: coefficient strings keep the
    integers exact for any JSON consumer."""
    return {v: str(c) for v, c in d.coeffs}


def _load_labeled(args) -> tuple[LabeledGraph, dict]:
    graph, file_labels = graphio.parse_graph_file(args.graph)
    report = validate_graph(graph)
    if not report.ok:
        raise GraphError("; ".join(report.violations))
    sh = shadow(graph)
    mode = args.labeling
    if mode == "auto":
        mode = labeling.MODE_EXPLICIT if file_labels else labeling.MODE_VERTEX
    if mode == labeling.MODE_EXPLICIT and not file_labels:
        raise graphio.SchemaError("explicit labeling requested but the file has no labels")
    lg = labeling.assign_weights(
        sh, mode, explicit=file_labels if mode == labeling.MODE_EXPLICIT else None
    )
    inputs = {
        "graph": args.graph,
        "vertices": len(graph.vertices),
        "edges": len(graph.edges),
        "max_label": lg.max_label,
        "labeling": mode,
    }
    notes = list(fixtures.notes_for(graph, file_labels))
    return lg, {"inputs": inputs, "notes": notes}


def _emit(args, report: dict) -> None:
    fmt = getattr(args, "format", "text")
    if fmt == "json":
        print(json.dumps(report, sort_keys=True, separators=(", ", ": ")))
        return
    if fmt == "csv":
        payload = report.get("result", {})
        table = payload.get("diagonal") or {}
        print("vertex,coefficient")
        for v in sorted(table):
            print(f"{v},{table[v]}")
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


def _cmd_moments(args) -> tuple[dict, int]:
    lg, ctx = _load_labeled(args)
    diagnostics = {"notes": ctx["notes"], "truncated": False}
    code = EXIT_OK
    reduction = moments.tally(lg, args.n, "reduction", budget=args.budget)
    balance = moments.tally(lg, args.n, "balance", budget=args.budget)
    primary = reduction if args.mode == "reduction" else balance
    if reduction.truncated or balance.truncated:
        diagnostics["truncated"] = True
        code = EXIT_BUDGET
    red_total = sum(c for _, c in reduction.diagonal.coeffs)
    bal_total = sum(c for _, c in balance.diagonal.coeffs)
    diagnostics["reduction_count"] = red_total
    diagnostics["balance_count"] = bal_total
    # a difference between partial tallies says nothing about the counts
    if red_total != bal_total and not diagnostics["truncated"]:
        diagnostics["notes"] = diagnostics["notes"] + [
            f"reduction and balance counts differ at n={args.n} "
            f"({red_total} vs {bal_total}); the reduction count is the one "
            "matching the operator oracle."
        ]
    result = {"diagonal": _diag_payload(primary.diagonal), "n": args.n, "mode": args.mode}
    if args.words:
        rep = moments.w_m_set(lg, args.n, args.mode, budget=args.budget)
        result["words"] = [[s.name() for s in w] for w in rep.words]
    report = {
        "command": "moments",
        "inputs": ctx["inputs"],
        "result": result,
        "diagnostics": diagnostics,
    }
    if args.verify:
        oracle = operators.oracle_expectation_power(
            lg, args.n, args.n, budget=args.basis_budget
        )
        report["diagnostics"]["oracle"] = {v: str(c) for v, c in sorted(oracle.items())}
        if DiagonalElement.of(oracle) != reduction.diagonal:
            raise VerificationMismatch("moments disagree with the oracle", report)
    return report, code


def _cmd_oracle(args) -> tuple[dict, int]:
    lg, ctx = _load_labeled(args)
    values = operators.oracle_expectation_power(
        lg, args.n, args.max_len, budget=args.basis_budget
    )
    result = {
        "diagonal": {v: str(c) for v, c in sorted(values.items())},
        "n": args.n,
        "max_len": args.max_len,
    }
    return {
        "command": "oracle",
        "inputs": ctx["inputs"],
        "result": result,
        "diagnostics": {"notes": ctx["notes"], "truncated": False},
    }, EXIT_OK


def _cmd_cumulants(args) -> tuple[dict, int]:
    lg, ctx = _load_labeled(args)
    result: dict = {"n": args.n, "formula": args.formula}
    if args.formula in ("direct", "both"):
        direct = moments.cumulant_direct(lg, args.n)
        result["diagonal"] = _diag_payload(direct)
    if args.formula in ("wc", "both"):
        try:
            wc = moments.cumulant_via_wc(lg, args.n, budget=args.budget)
        except BudgetExceededError as exc:
            # past the NC budget the wc route has no partial sum; keep
            # the finished direct value
            if args.formula == "wc" or exc.partial is not None:
                raise
            raise BudgetExceededError(str(exc), partial=direct) from exc
        result.setdefault("diagonal", _diag_payload(wc))
        result["wc"] = _diag_payload(wc)
    diagnostics: dict = {"notes": ctx["notes"], "truncated": False}
    if args.formula == "both":
        diagnostics["formulas_agree"] = result["diagonal"] == result["wc"]
    return {
        "command": "cumulants",
        "inputs": ctx["inputs"],
        "result": result,
        "diagnostics": diagnostics,
    }, EXIT_OK


def _cmd_joint(args) -> tuple[dict, int]:
    lg, ctx = _load_labeled(args)
    indices = _parse_indices(args.indices)
    m = moments.joint_moment(lg, indices, budget=args.budget)
    k = moments.joint_cumulant(lg, indices)
    result = {
        "indices": list(indices),
        "diagonal": _diag_payload(m),
        "cumulant": _diag_payload(k),
    }
    return {
        "command": "joint",
        "inputs": ctx["inputs"],
        "result": result,
        "diagnostics": {"notes": ctx["notes"], "truncated": False},
    }, EXIT_OK


def _cmd_freeness(args) -> tuple[dict, int]:
    lg, ctx = _load_labeled(args)
    k1, k2 = _parse_indices(args.families)
    rep = moments.check_freeness(lg, k1, k2, max_n=args.max_n)
    result = {
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
    return {
        "command": "freeness",
        "inputs": ctx["inputs"],
        "result": result,
        "diagnostics": {"notes": ctx["notes"], "truncated": False},
    }, EXIT_OK


def _cmd_fractaloid(args) -> tuple[dict, int]:
    lg, ctx = _load_labeled(args)
    aut = automaton.GraphAutomaton(lg)
    verdict = automaton.is_fractaloid(aut, depth=args.depth)
    result = {
        "fractaloid": verdict.fractaloid,
        "depth": verdict.depth,
        "max_label": verdict.max_label,
        "witness": verdict.witness,
        "trees": [
            {"root": v, "regular": reg, "nodes": cnt} for v, reg, cnt in verdict.trees
        ],
    }
    return {
        "command": "fractaloid",
        "inputs": ctx["inputs"],
        "result": result,
        "diagnostics": {"notes": ctx["notes"], "truncated": False},
    }, EXIT_OK


def _cmd_tree(args) -> tuple[dict, int]:
    lg, ctx = _load_labeled(args)
    aut = automaton.GraphAutomaton(lg)
    root = args.root or lg.graph.vertices[0]
    tree = automaton.build_tree(aut, root, args.depth)
    dot = automaton.tree_dot(aut, tree)
    if args.format == "text":
        print(dot)
        return None, EXIT_OK  # DOT already emitted
    result = {"root": root, "depth": args.depth, "dot": dot, "nodes": len(tree.nodes())}
    return {
        "command": "tree",
        "inputs": ctx["inputs"],
        "result": result,
        "diagnostics": {"notes": ctx["notes"], "truncated": False},
    }, EXIT_OK


def _cmd_lattice(args) -> tuple[dict, int]:
    count = count_axis_paths(args.max_label, args.length)
    result = {"max_label": args.max_label, "length": args.length, "count": str(count)}
    return {
        "command": "lattice",
        "result": result,
        "diagnostics": {"truncated": False},
    }, EXIT_OK


def _cmd_nc(args) -> tuple[dict, int]:
    row = ncpartitions.moebius_row(args.n)
    result = {
        "n": args.n,
        "count": len(row),
        "catalan": ncpartitions.catalan(args.n),
        "moebius_row": [
            {"blocks": [list(b) for b in pi.blocks], "mu": mu} for pi, mu in row
        ],
        "moebius_sum": sum(mu for _, mu in row),
    }
    return {
        "command": "nc",
        "result": result,
        "diagnostics": {"truncated": False},
    }, EXIT_OK


def _parse_indices(raw: str) -> tuple:
    try:
        return tuple(int(part) for part in raw.split(",") if part.strip() != "")
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad index list {raw!r}") from None


def _positive_int(raw: str) -> int:
    value = int(raw)
    if value < 1:
        raise argparse.ArgumentTypeError("budget must be positive")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="groupoidlab",
        description="Labeled graph groupoids: moments, cumulants, automata.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, graph=True):
        if graph:
            p.add_argument("--graph", required=True, help="graph JSON file")
            p.add_argument(
                "--labeling",
                choices=["auto", "vertex", "multiedge", "explicit"],
                default="auto",
                help="labeling mode (auto: explicit when the file has labels)",
            )
        p.add_argument(
            "--format", choices=["text", "json", "csv"], default="text"
        )
        p.add_argument(
            "--json",
            dest="format",
            action="store_const",
            const="json",
            help="shorthand for --format json",
        )
        p.add_argument("--budget", type=_positive_int, default=moments.ENUM_BUDGET)
        p.add_argument(
            "--basis-budget", type=_positive_int, default=operators.BASIS_BUDGET
        )

    p = sub.add_parser("moments", help="E(T_G^n) by the excursion DP")
    add_common(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mode", choices=["reduction", "balance"], default="reduction")
    p.add_argument("--verify", action="store_true", help="cross-check with the oracle")
    p.add_argument(
        "--words",
        action="store_true",
        help="include the qualifying words (signed edge ids, ~ marks the shadow)",
    )
    p.set_defaults(func=_cmd_moments)

    p = sub.add_parser("oracle", help="E(T_G^n) from the truncated operator model")
    add_common(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--max-len", type=int, required=True)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("cumulants", help="k_n(T_G, ..., T_G)")
    add_common(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--formula", choices=["direct", "wc", "both"], default="direct")
    p.set_defaults(func=_cmd_cumulants)

    p = sub.add_parser("joint", help="joint moment and cumulant for an index tuple")
    add_common(p)
    p.add_argument("--indices", required=True, help="comma-separated labels, e.g. 1,-1,2")
    p.set_defaults(func=_cmd_joint)

    p = sub.add_parser("freeness", help="mixed cumulants between two label families")
    add_common(p)
    p.add_argument("--families", required=True, help="two labels, e.g. 1,2")
    p.add_argument("--max-n", type=int, default=4)
    p.set_defaults(func=_cmd_freeness)

    p = sub.add_parser("fractaloid", help="decide the fractaloid property")
    add_common(p)
    p.add_argument("--depth", type=int, default=4)
    p.set_defaults(func=_cmd_fractaloid)

    p = sub.add_parser("tree", help="emit the depth-d action tree as DOT")
    add_common(p)
    p.add_argument("--root", default=None)
    p.add_argument("--depth", type=int, required=True)
    p.set_defaults(func=_cmd_tree)

    p = sub.add_parser("lattice", help="count balanced label words")
    add_common(p, graph=False)
    p.add_argument("--max-label", type=int, required=True)
    p.add_argument("--length", type=int, required=True)
    p.set_defaults(func=_cmd_lattice)

    p = sub.add_parser("nc", help="noncrossing partition diagnostics")
    add_common(p, graph=False)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_nc)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report, code = args.func(args)
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO
    except json.JSONDecodeError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except graphio.SchemaError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except GraphError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except BudgetExceededError as exc:
        report = {
            "command": args.command,
            "result": _partial_payload(exc),
            "diagnostics": {"truncated": True, "notes": [str(exc)]},
            "status": "truncated",
        }
        _emit(args, report)
        return EXIT_BUDGET
    except VerificationMismatch as exc:
        exc.report["status"] = "verification-mismatch"
        _emit(args, exc.report)
        return EXIT_VERIFY
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    if report is None:
        return code
    report["status"] = "ok" if code == EXIT_OK else "truncated"
    _emit(args, report)
    return code


def _partial_payload(exc: BudgetExceededError) -> dict:
    partial = exc.partial
    if isinstance(partial, moments.TallyResult):
        return {"diagonal": _diag_payload(partial.diagonal), "words": partial.words}
    if isinstance(partial, moments.WordSetReport):
        return {
            "diagonal": _diag_payload(partial.tallies),
            "words": [[s.name() for s in w] for w in partial.words],
        }
    if isinstance(partial, DiagonalElement):
        return {"diagonal": _diag_payload(partial)}
    return {}


if __name__ == "__main__":
    sys.exit(main())
