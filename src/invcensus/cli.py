"""Command-line front-end.

Every command prints either plain text or a JSON envelope with the shape
{"command", "input", "result", "versions", "timing_ms"}.  Apart from the
timing field, JSON output is byte-identical across identical invocations.
Errors go to stderr with a nonzero exit status; no partial results are
printed.
"""

import argparse
import json
import os
import sys
import time

from . import __version__
from .census import DEFAULT_DEGREE_LIMIT, CensusProblem, generating_series
from .characters import char_table, character
from .errors import ConsistencyError, InvcensusError, parse_int
from .factorizer import (
    _anchored, compare, fit_denominator, numerator_for_denominator, search_candidates,
)
from .kronecker import inner_product_expansion
from .molien import molien_series
from .partitions import format_partition, parse_partition
from .series import read_series_file, series_to_json


def _int_at_least(least: int, kind: str):
    def parse(text: str) -> int:
        try:
            value = parse_int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
        if value < least:
            raise argparse.ArgumentTypeError(f"expected a {kind} integer, got {text!r}")
        return value

    return parse


_positive_int = _int_at_least(1, "positive")
_nonnegative_int = _int_at_least(0, "nonnegative")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="invcensus",
        description="Count local unitary invariants of bipartite density matrices.",
    )
    parser.add_argument("--version", action="version", version=f"invcensus {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format"
    )
    system = argparse.ArgumentParser(add_help=False)
    system.add_argument("--n1", type=_positive_int, required=True, help="dimension of the first factor")
    system.add_argument("--n2", type=_positive_int, required=True, help="dimension of the second factor")
    system.add_argument("--max-degree", type=_nonnegative_int, required=True)
    system.add_argument("--degree-limit", type=_nonnegative_int, default=DEFAULT_DEGREE_LIMIT)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser(
        "census", parents=[common, system], help="invariant counts by the character route"
    )
    molien = sub.add_parser(
        "molien", parents=[common, system], help="invariant counts by the constant-term route"
    )
    molien.add_argument(
        "--check",
        action="store_true",
        help="recompute by the character route and require agreement",
    )

    kron = sub.add_parser(
        "kron", parents=[common], help="inner product expansion of two partitions"
    )
    kron.add_argument("lam", metavar="LAMBDA", help="first partition, e.g. 6,2")
    kron.add_argument("mu", metavar="MU", help="second partition of the same weight")

    factor = sub.add_parser(
        "factor", parents=[common], help="search integrity-basis presentations of a series"
    )
    factor.add_argument("--series-file", required=True, help="JSON series file")
    factor.add_argument("--free-generators", type=_nonnegative_int, default=None)
    factor.add_argument("--max-factor-degree", type=_positive_int, default=None)
    factor.add_argument("--max-total-factors", type=_positive_int, default=None)
    factor.add_argument("--limit", type=_positive_int, default=10, help="candidates to show")

    char = sub.add_parser(
        "char", parents=[common], help="one symmetric group character value"
    )
    char.add_argument("lam", metavar="LAMBDA", help="irreducible label, e.g. 2,1")
    char.add_argument("mu", metavar="MU", help="cycle type of the same weight")

    table = sub.add_parser(
        "table", parents=[common], help="full character table of S_n"
    )
    table.add_argument("n", type=_nonnegative_int)

    return parser


def _format_polynomial(series, var: str = "q") -> str:
    terms = []
    for degree, coeff in enumerate(series):
        if coeff == 0:
            continue
        if degree == 0:
            terms.append(str(coeff))
        elif degree == 1:
            terms.append(var if coeff == 1 else f"{coeff} {var}")
        else:
            terms.append(f"{var}^{degree}" if coeff == 1 else f"{coeff} {var}^{degree}")
    return " + ".join(terms) if terms else "0"


def _format_multiset(degrees) -> str:
    return "{" + ",".join(str(d) for d in degrees) + "}"


def _cmd_census(args):
    problem = CensusProblem(args.n1, args.n2)
    series = generating_series(problem, args.max_degree, args.degree_limit)
    return series_to_json(series), _format_polynomial(series)


def _cmd_molien(args):
    problem = CensusProblem(args.n1, args.n2)
    series = molien_series(problem, args.max_degree, args.degree_limit)
    result = series_to_json(series)
    text = _format_polynomial(series)
    if args.check:
        recount = generating_series(problem, args.max_degree, args.degree_limit)
        mismatch = compare(series, recount)
        if mismatch is not None:
            n, oracle, census = mismatch
            raise ConsistencyError(
                f"census disagreement at degree {n}: oracle {oracle}, census {census}"
            )
        result["census_agreement"] = "OK"
        text += "\ncensus agreement: OK"
    return result, text


def _cmd_kron(args):
    lam = parse_partition(args.lam)
    mu = parse_partition(args.mu)
    expansion = inner_product_expansion(lam, mu)
    result = {
        "weight": expansion.weight,
        "terms": [
            {"partition": list(nu), "multiplicity": mult} for nu, mult in expansion
        ],
    }
    text = "\n".join(
        f"{{{format_partition(nu)}}}: {mult}" for nu, mult in expansion
    )
    return result, text


def _describe_candidate(rank, report, numerator, target_degree):
    lines = [
        f"candidate {rank}: num {_format_multiset(report.candidate.numerator_degrees)}"
        f" / den {_format_multiset(report.candidate.denominator_degrees)}",
        f"  free generators {report.candidate.free_generator_count},"
        f" total invariants {report.candidate.total_invariant_count}",
    ]
    if report.fully_factored:
        lines.append(f"  matches the target through degree {target_degree} (full truncation)")
    else:
        degree, candidate_value, target_value = report.first_mismatch
        lines.append(
            f"  match through degree {report.match_degree};"
            f" first mismatch at degree {degree}"
            f" (candidate {candidate_value}, target {target_value})"
        )
        lines.append(
            "  numerator not fully factored; raw numerator series " + str(list(numerator))
        )
    return lines


def _cmd_factor(args):
    target = read_series_file(args.series_file)
    count, shown = search_candidates(
        target, free_generators=args.free_generators, max_factor_degree=args.max_factor_degree,
        max_total_factors=args.max_total_factors, limit=args.limit,
    )
    for report in shown:  # a one-shot fit redoes the walk's run and reads the numerator's signs
        fit = fit_denominator(
            target, report.candidate.denominator_degrees, max_factor_degree=args.max_factor_degree
        )
        if fit != report:
            raise ConsistencyError(
                f"the search kept denominator {report.candidate.denominator_degrees} as "
                f"{report}; a one-shot fit gives {fit}"
            )
    numerators = [
        numerator_for_denominator(target, r.candidate.denominator_degrees, target.degree)
        for r in shown
    ]
    anchored = _anchored(target)
    result = {
        "candidate_count": count,
        "candidates": [
            {
                "numerator_degrees": list(r.candidate.numerator_degrees),
                "denominator_degrees": list(r.candidate.denominator_degrees),
                "free_generator_count": r.candidate.free_generator_count,
                "total_invariant_count": r.candidate.total_invariant_count,
                "match_degree": r.match_degree,
                "first_mismatch": list(r.first_mismatch) if r.first_mismatch else None,
                "numerator_nonnegative_through": r.numerator_nonnegative_through,
                "fully_factored": r.fully_factored,
                "degree_one_anchored": anchored,
                "numerator_series": series_to_json(numerator),
            }
            for r, numerator in zip(shown, numerators)
        ],
    }
    if shown:
        lines = [f"{count} candidate(s); showing {len(shown)}"]
        for rank, (report, numerator) in enumerate(zip(shown, numerators), start=1):
            lines.extend(_describe_candidate(rank, report, numerator, target.degree))
        text = "\n".join(lines)
    else:
        text = "no candidates found"
    return result, text


def _cmd_char(args):
    lam = parse_partition(args.lam)
    mu = parse_partition(args.mu)
    value = character(lam, mu)
    return {"value": value}, str(value)


def _cmd_table(args):
    table = char_table(args.n)
    result = {
        "n": table.n,
        "partitions": [list(p) for p in table.partitions],
        "values": [list(row) for row in table.values],
    }
    labels = [format_partition(p) for p in table.partitions]
    cells = [[""] + labels]
    for label, row in zip(labels, table.values):
        cells.append([label] + [str(v) for v in row])
    widths = [max(len(r[c]) for r in cells) for c in range(len(cells[0]))]
    text = "\n".join(
        "  ".join(cell.rjust(width) for cell, width in zip(row, widths)).rstrip()
        for row in cells
    )
    return result, text


_DISPATCH = {
    "census": _cmd_census,
    "molien": _cmd_molien,
    "kron": _cmd_kron,
    "factor": _cmd_factor,
    "char": _cmd_char,
    "table": _cmd_table,
}

# Envelope names of arguments whose attribute name differs.
_ECHO_KEYS = {"lam": "lambda"}


def _echo(args) -> dict:
    """The envelope's `input`: each parsed argument, `format` last."""
    echo = {
        _ECHO_KEYS.get(name, name): value
        for name, value in vars(args).items()
        if name not in ("command", "format")
    }
    echo["format"] = args.format
    return echo


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    start = time.perf_counter()
    try:
        result, text = _DISPATCH[args.command](args)
    except (InvcensusError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    elapsed_ms = int((time.perf_counter() - start) * 1000)
    if args.format == "json":
        envelope = {
            "command": args.command,
            "input": _echo(args),
            "result": result,
            "versions": {"tool": __version__},
            "timing_ms": elapsed_ms,
        }
        text = json.dumps(envelope, indent=2)
    try:
        print(text)
        sys.stdout.flush()
    except OSError as exc:  # a closed pipe or a full device
        with open(os.devnull, "wb") as devnull:  # stdout's flush at exit then writes nothing
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        print(f"error: cannot write the result: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
