"""Command-line front end.

Exit codes: 0 on success, 1 when a golden-corpus check fails, 2 on
usage or input errors (the message names the violated precondition).
All output is deterministic: identical invocations produce identical
bytes.  Every JSON output is written by ``_emit``, whose precondition is
a flat payload: each value a scalar or a list, tuple or dict of scalars.
``main`` reuses one parser per process; ``build_parser()`` returns a new
one on every call.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import bounds
from .colon import dual_goto, goto_number
from .errors import GotoNumberError, ParseError
from .explorer import SearchConfig, monomial_table, search, search_records
from .fields import field_from_label, read_number
from .golden import run_golden_checks
from .regular import pure_power_report
from .ring import CanonicalIdeal, canonicalize, parse_element
from .semigroup import NumericalSemigroup


def _integer(text: str) -> int:
    """argparse type of every integer option: ``fields.read_number``."""
    try:
        return read_number(text, "integer")
    except ParseError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


_JSON_VALUE = json.JSONEncoder(separators=(",\n    ", ": "))


def _emit(payload, fmt, out):
    """Write ``payload``, a nonempty dict with str keys, as ``key: value``
    lines or as JSON: ``json.dumps(payload, indent=2)`` and a newline, byte
    for byte, when each value is a scalar or a flat list, tuple or dict.
    Each value is encoded with no indent, so in C, and a nonempty
    container's brackets then move to lines of their own."""
    if fmt != "json":
        for key, value in payload.items():
            out.write(f"{key}: {value}\n")
        return
    encode, lead = _JSON_VALUE.encode, "{\n  "
    for key, value in payload.items():
        text = encode(value)
        if value and isinstance(value, (list, tuple, dict)):
            text = f"{text[0]}\n    {text[1:-1]}\n  {text[-1]}"
        out.write(f"{lead}{encode(key)}: {text}")
        lead = ",\n  "
    out.write("\n}\n")


def _cmd_info(args, out):
    S = NumericalSemigroup(args.generators)
    payload = {
        "schema": 1,
        "generators": list(S.generators),
        "frobenius": S.frobenius,
        "gaps": list(S.gaps),
        "conductor_generators": list(S.conductor_generators),
        "regular": S.is_regular,
        "symmetric": S.is_symmetric(),
        "stable_goto": bounds.stable_goto(S),
        "conductor_order": S.conductor_order(),
    }
    _emit(payload, args.format, out)
    return 0


def _cmd_goto(args, out):
    S = NumericalSemigroup(args.generators)
    field = field_from_label(args.field)
    if args.monomial is not None:
        Q = CanonicalIdeal(S, args.monomial, field=field)
    else:
        Q = canonicalize(parse_element(args.ideal, S, field))
    payload = {
        "schema": 1,
        "generators": list(S.generators),
        "ideal": str(Q.generator()),
        "goto_number": goto_number(Q),
    }
    if args.dual:
        payload["dual_goto"] = dual_goto(Q)
    _emit(payload, args.format, out)
    return 0


def _cmd_table(args, out):
    S = NumericalSemigroup(args.generators)
    table = monomial_table(S, args.max)
    if args.format == "tsv":
        out.write("e\tgoto\n")
        for e, g in table.items():
            out.write(f"{e}\t{g}\n")
    else:
        payload = {
            "schema": 1,
            "generators": list(S.generators),
            "table": {str(e): g for e, g in table.items()},
        }
        _emit(payload, args.format, out)
    return 0


def _cmd_search(args, out):
    S = NumericalSemigroup(args.generators)
    field = field_from_label(args.field)
    coefficients = tuple(field.parse(c) for c in args.coeffs.replace(" ", "").split(","))
    config = SearchConfig(
        semigroup=S,
        field=field,
        coefficients=coefficients,
        b_values=tuple(args.b) if args.b else None,
        positions=tuple(args.positions) if args.positions else None,
    )
    if args.format == "tsv":
        records = search_records(config)   # refuses over the cap before the header
        out.write("b\tcoeffs\tgoto\n")
        for rec in records:
            tail = ";".join(f"{i}:{v}" for i, v in rec.coeffs) or "-"
            out.write(f"{rec.b}\t{tail}\t{rec.goto}\n")
    else:
        _emit(search(config).to_json(), args.format, out)
    return 0


def _cmd_bounds(args, out):
    S = NumericalSemigroup(args.generators)
    _emit(bounds.build_report(S), args.format, out)
    return 0


def _cmd_rlr(args, out):
    exponents = tuple(
        read_number(part, "--pure-power exponent") for part in args.pure_power.split(",")
    )
    _emit(pure_power_report(exponents), args.format, out)
    return 0


def _cmd_verify(args, out):
    results = run_golden_checks()
    failures = 0
    for res in results:
        if res.passed:
            out.write(f"PASS {res.name} = {res.actual}\n")
        else:
            failures += 1
            out.write(
                f"FAIL {res.name}: expected {res.expected}, got {res.actual}\n"
            )
    out.write(f"{len(results) - failures}/{len(results)} checks passed\n")
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gotonum",
        description=(
            "Exact Goto numbers of parameter ideals in numerical semigroup "
            "rings, with every bound and closed form evaluated alongside."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, formats=("json", "human"), gens=True):
        if gens:
            p.add_argument(
                "generators", type=_integer, nargs="+", help="semigroup generators"
            )
        p.add_argument(
            "--format",
            choices=formats,
            default="json",
            help="output format (default json)",
        )

    p = sub.add_parser("info", help="semigroup invariants")
    add_common(p)
    p.set_defaults(func=_cmd_info)

    p = sub.add_parser("goto", help="Goto number of one parameter ideal")
    add_common(p)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument(
        "--ideal",
        help='generator expression, e.g. "x^40+x^44" (a leading - needs --ideal=-x^5)',
    )
    group.add_argument("--monomial", type=_integer, help="exponent of a monomial ideal")
    p.add_argument(
        "--dual",
        action="store_true",
        help="also compute the duality value (symmetric semigroups)",
    )
    p.add_argument("--field", default="q", help="coefficient field: q or fp:P")
    p.set_defaults(func=_cmd_goto)

    p = sub.add_parser("table", help="monomial Goto numbers up to a cap")
    add_common(p, ("json", "tsv", "human"))
    p.add_argument("--max", type=_integer, required=True, help="largest exponent")
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("search", help="enumerate canonical forms")
    add_common(p, ("json", "tsv", "human"))
    p.add_argument(
        "--coeffs",
        default="0,1",
        help="coefficient set, default 0,1 (a leading - needs --coeffs=-1,0,1)",
    )
    p.add_argument("--field", default="q", help="coefficient field: q or fp:P")
    p.add_argument(
        "--b", type=_integer, action="append", help="restrict generator valuations"
    )
    p.add_argument(
        "--positions",
        type=_integer,
        action="append",
        help="restrict tail positions that may be nonzero",
    )
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("bounds", help="bound report for a semigroup")
    add_common(p)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser(
        "rlr", help="pure-power monomial ideal in a regular local ring"
    )
    add_common(p, gens=False)
    p.add_argument(
        "--pure-power",
        required=True,
        dest="pure_power",
        help="comma-separated exponents, e.g. 2,5,5",
    )
    p.set_defaults(func=_cmd_rlr)

    p = sub.add_parser("verify-paper", help="re-derive the golden corpus")
    p.set_defaults(func=_cmd_verify)

    return parser


_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args, sys.stdout)
    except (GotoNumberError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
