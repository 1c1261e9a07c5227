"""Command-line interface for weighted-stable ideal computations.

Exit codes: 0 on success, 1 on usage or parse errors, 2 on contract
violations (for example an ideal that is not weighted-stable), 3 when a
decision command reports a negative outcome.
"""

from __future__ import annotations

import argparse
import sys

from .monomials import WeightVector
from .parsing import _parse, format_ideal, format_monomial, parse_weights, variable_name

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CONTRACT = 2
EXIT_NEGATIVE = 3

# every other subcommand takes an ideal expression
MONOMIAL_COMMANDS = ("tree", "catalan")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="wstable", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    summaries = {
        "closure": "smallest weighted-stable ideal containing the given monomials",
        "bgens": "weighted Borel generators of a weighted-stable ideal",
        "is-wstable": "decide whether an ideal equals its weighted closure",
        "tree": "truncation tree of a monomial's principal closure",
        "tree-ideal": "generator tree of an ideal",
        "catalan": "weighted Catalan diagram of a monomial",
        "hilbert": "Hilbert series of the quotient by a weighted-stable ideal",
        "stanley": "Stanley decomposition of the quotient",
        "poincare": "Poincare series (graded Betti numbers) of the ideal",
        "betti": "total Betti numbers and Betti table",
        "cone": "extreme rays of the principal cone of a strongly stable ideal",
        "weight-vector": "a weight vector realizing the ideal as a principal closure",
    }
    for name, help_text in summaries.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("expression",
                       help="monomial or ideal expression; '-' reads stdin")
        p.add_argument("--weights", default=None,
                       help="comma-separated weight vector (default: all ones)")
        p.add_argument("--nvars", type=int, default=None,
                       help="ambient variable count (default: inferred)")
        p.add_argument("--json", action="store_true", dest="as_json",
                       help="emit a JSON document instead of text")
        p.add_argument("--expand-to", type=int, default=None, metavar="D",
                       help="also expand series coefficients up to degree D")
    return parser


def _read_expression(raw: str) -> str:
    return sys.stdin.read().strip() if raw == "-" else raw


def _resolve_inputs(args):
    """Parse the expression and settle the weight vector / variable count."""
    text = _read_expression(args.expression)
    weights = parse_weights(args.weights) if args.weights else None
    nvars = args.nvars
    if weights is not None:
        if nvars is not None and nvars != weights.nvars:
            raise _UsageError(
                f"--nvars {nvars} conflicts with {weights.nvars} weights")
        nvars = weights.nvars
    is_ideal = args.command not in MONOMIAL_COMMANDS
    parsed, letters = _parse(text, nvars, is_ideal)
    monomial, ideal = (None, parsed) if is_ideal else (parsed, None)
    if weights is None:
        weights = WeightVector.ones(parsed.nvars)
    return text, monomial, ideal, weights, letters


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as err:  # --help
        return int(err.code or 0)
    try:
        text, monomial, ideal, weights, letters = _resolve_inputs(args)
        output, exit_code = _dispatch(args.command, monomial, ideal, weights, letters,
                                      args.expand_to, args.as_json)
    except (_UsageError, ValueError) as err:
        from .closure import NotWStableError
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONTRACT if isinstance(err, NotWStableError) else EXIT_USAGE
    if args.as_json:
        import json
        document = {"command": args.command, "input": text,
                    "weights": list(weights), "result": output}
        print(json.dumps(document))
    else:
        for line in output:
            print(line)
    return exit_code


def _dispatch(command, monomial, ideal, weights, letters, expand_to, as_json):
    """Run one subcommand; returns its output and exit code.

    The output is the JSON payload if ``as_json``, else the text lines.
    Each subcommand imports the modules it uses and builds only that output.
    """
    fmt = lambda m: format_monomial(m, letters)

    if command == "closure":
        from .closure import w_closure
        closed = w_closure(ideal, weights)
        return ({"generators": [fmt(g) for g in closed.sorted_gens()], "nvars": closed.nvars}
                if as_json else [format_ideal(closed, letters)]), EXIT_OK

    if command == "bgens":
        from .closure import w_borel_gens
        gens = sorted(w_borel_gens(ideal, weights),
                      key=lambda m: (m.degree(), m.exponents), reverse=True)
        texts = [fmt(g) for g in gens]
        return ({"generators": texts} if as_json else [", ".join(texts)]), EXIT_OK

    if command == "is-wstable":
        from .closure import is_w_stable
        stable = is_w_stable(ideal, weights)
        return (({"stable": stable} if as_json else ["true" if stable else "false"]),
                EXIT_OK if stable else EXIT_NEGATIVE)

    if command in ("tree", "tree-ideal"):
        from .trees import tree_from_ideal, tree_from_monomial
        tree = (tree_from_monomial(monomial, weights) if command == "tree"
                else tree_from_ideal(ideal))
        return (_tree_payload(tree, fmt) if as_json else tree.adjacency_lines(fmt)), EXIT_OK

    if command == "catalan":
        from .catalan import catalan_diagram, generator_stats
        diagram = catalan_diagram(monomial, weights)
        return ({"rows": [list(r) for r in diagram.rows],
                 "weighted_degree": diagram.degree,
                 "generator_stats": [list(t) for t in generator_stats(diagram)]}
                if as_json else diagram.text_lines()), EXIT_OK

    if command == "hilbert":
        from .series import hilbert_series
        series = hilbert_series(ideal, weights)
        coeffs = None if expand_to is None else series.expansion(expand_to)
        if not as_json:
            lines = [series.text()]
            if coeffs is not None:
                lines.append("series: " + " ".join(str(c) for c in coeffs))
            return lines, EXIT_OK
        payload = {"numerator": _poly_payload(series.numerator),
                   "denominator_weights": list(weights),
                   "terms": None if series.terms is None
                   else [list(t) for t in series.terms]}
        if coeffs is not None:
            payload["expansion"] = coeffs
        return payload, EXIT_OK

    if command == "stanley":
        from .series import stanley_decomposition
        pieces = stanley_decomposition(ideal, weights).pieces
        if as_json:
            return {"pieces": [{"coset": fmt(coset), "free": sorted(free)}
                               for coset, free in pieces]}, EXIT_OK
        return [f"{fmt(coset)} * K[{', '.join(variable_name(j, letters) for j in sorted(free))}]"
                for coset, free in pieces], EXIT_OK

    if command == "poincare":
        from .series import poincare_series
        series = poincare_series(ideal, weights)
        return ({"terms": [list(t) for t in series.sorted_terms()]}
                if as_json else [series.text()]), EXIT_OK

    if command == "betti":
        from .series import betti_numbers, format_betti_table
        totals, graded = betti_numbers(ideal, weights)
        return ({"total": list(totals), "graded": [list(t) for t in graded.sorted_terms()]}
                if as_json else format_betti_table(graded, ideal.nvars).splitlines()), EXIT_OK

    if command == "cone":
        from .cone import cone_rays, constraint_system
        cone = cone_rays(constraint_system(ideal))
        return ({"rays": [list(r) for r in cone.rays],
                 "lineality": [list(r) for r in cone.lineality]}
                if as_json else [" ".join(str(c) for c in ray) for ray in cone.rays]), EXIT_OK

    if command == "weight-vector":
        from .cone import principal_weight_vector
        found = principal_weight_vector(ideal)
        if found is None:
            return ({"outcome": "not principally w-stable"} if as_json
                    else ["not principally w-stable"]), EXIT_NEGATIVE
        return ({"weights": list(found)} if as_json
                else [",".join(str(w) for w in found)]), EXIT_OK

    raise _UsageError(f"unknown command {command!r}")


def _tree_payload(tree, fmt):
    order = tree.bfs_vertices()
    return {"vertices": [fmt(v) for v in order],
            "edges": [[fmt(v), fmt(c)] for v in order for c in tree.children(v)],
            "sinks": [fmt(s) for s in sorted(tree.sinks(), key=lambda m: m.exponents)]}


def _poly_payload(poly):
    return [[deg, poly[deg]] for deg in sorted(poly)]


def console_main():
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
