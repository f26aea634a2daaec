"""Command-line front end.

Subcommands: analyze one solution, evaluate bounds for parameters, search
a box with fixed k, hunt a box with derived k, verify the built-in corpus.
Reports go to stdout in json, csv, or human form; progress, timing, and
errors go to stderr.  Identical invocations produce byte-identical stdout:
solution parameters and terms serialize as exact decimal strings and every
real as a 6-significant-digit decimal string, never a binary float.  Counts
(cells_scanned, max_admissible_exponent_*) are JSON numbers, exact at any
size: --qmax 9.99e63 gives a 65-digit one.

Exit codes: 0 success, 1 invalid solution, 2 usage error, 3 resource
limits (factorization budget, box ceiling).
"""

from __future__ import annotations

import argparse
import json
import sys
from decimal import Decimal, InvalidOperation
from math import gcd

from .bigmath import round_sig
from .factor import FactorBudgetExceeded
from .gains import (
    BOUND_FIELDS,
    GainReport,
    QMAX_STRONG,
    QMAX_ULTRA,
    QMax,
    Solution,
    SolutionError,
    bound_fields,
    compute_gains,
    custom_qmax,
    max_admissible_exponent,
    validate_solution,
)
from .corpus import builtin_corpus, verify_entry
from .search import (
    DERIVED_K,
    FIXED_K,
    BoxTooLarge,
    SearchBox,
    SearchResult,
    enumerate_fixed_k,
    hunt_derived_k,
)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3

FORMATS = ("json", "csv", "human")

# Significant digits of every displayed real.
DISPLAY_DIGITS = 6

# Sections and columns of a solution report, in output order.
REPORT_SCHEMA = {
    "solution": ("n", "x", "y", "A", "B", "k", "trivial_x"),
    "terms": ("C", "P", "radical_P"),
    "gains": ("G_a", "G_p", "q"),
    "bounds": BOUND_FIELDS,
    "checks": ("identity", "coprime", "thm1_holds", "thm5_holds"),
}


def _int_arg(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None


def _range_arg(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition(":")
    try:
        if not sep:
            v = int(text)
            return (v, v)
        return (int(lo), int(hi))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"not a LO:HI range: {text!r}"
        ) from None


def _qmax_arg(text: str) -> QMax:
    try:
        return custom_qmax(text)
    except InvalidOperation:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    except ValueError as err:
        raise argparse.ArgumentTypeError(str(err)) from None


def _threshold_arg(text: str) -> Decimal:
    try:
        value = Decimal(text)
    except InvalidOperation:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not value.is_finite():
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gainlab",
        description=(
            "Gain and quality analysis for coprime solutions of "
            "B*y^n = A*x^n + k"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(command: argparse.ArgumentParser) -> None:
        command.add_argument(
            "--format", dest="output_format", choices=FORMATS, default="human"
        )

    analyze = sub.add_parser("analyze", help="analyze one solution tuple")
    for name in ("n", "x", "y", "A", "B", "k"):
        analyze.add_argument(f"--{name}", type=_int_arg, required=True)
    add_format(analyze)
    analyze.add_argument("--qmax", type=_qmax_arg, default=None)

    bounds = sub.add_parser("bounds", help="evaluate bounds for parameters")
    for name in ("n", "A", "B", "y"):
        bounds.add_argument(f"--{name}", type=_int_arg, required=True)
    add_format(bounds)
    bounds.add_argument("--qmax", type=_qmax_arg, default=None)

    search = sub.add_parser("search", help="enumerate a box with fixed k")
    for name in ("n", "x", "y", "A", "B", "k"):
        search.add_argument(
            f"--{name}", dest=f"{name}_range", type=_range_arg, required=True, metavar="LO:HI"
        )
    search.add_argument("--allow-trivial-x", action="store_true")
    add_format(search)
    search.set_defaults(mode=FIXED_K, q_threshold=None)

    hunt = sub.add_parser("hunt", help="enumerate a box with derived k")
    for name in ("n", "x", "y", "A", "B"):
        hunt.add_argument(
            f"--{name}", dest=f"{name}_range", type=_range_arg, required=True, metavar="LO:HI"
        )
    hunt.add_argument("--q-threshold", type=_threshold_arg, default=None)
    hunt.add_argument("--allow-trivial-x", action="store_true")
    add_format(hunt)
    hunt.set_defaults(mode=DERIVED_K, k_range=None)

    verify = sub.add_parser("verify-corpus", help="verify the built-in corpus")
    add_format(verify)

    return parser


def parse_args(argv=None) -> argparse.Namespace:
    return build_parser().parse_args(argv)


def _display(value: Decimal | None) -> str | None:
    if value is None:
        return None
    # format(..., "f") keeps plain decimal notation at any magnitude.
    return format(round_sig(value, DISPLAY_DIGITS), "f")


def _report_doc(fields: dict) -> dict:
    """Group flat report fields into REPORT_SCHEMA's sections.

    A missing field is None.  gp_max_custom is left out when no custom cap
    was given, so _report_doc({}) has the columns of every search report.
    """
    doc = {
        section: {name: fields.get(name) for name in names}
        for section, names in REPORT_SCHEMA.items()
    }
    if doc["bounds"]["gp_max_custom"] is None:
        del doc["bounds"]["gp_max_custom"]
    return doc


def solution_report(s: Solution, g: GainReport) -> dict:
    """The per-solution report document, keys in fixed order."""
    axn = s.A * s.x ** s.n
    fields = {
        "n": str(s.n),
        "x": str(s.x),
        "y": str(s.y),
        "A": str(s.A),
        "B": str(s.B),
        "k": str(s.k),
        "trivial_x": s.trivial_x,
        "C": str(g.C),
        "P": str(g.P),
        "radical_P": None if g.R is None else str(g.R),
        "identity": g.C == axn + s.k,
        "coprime": gcd(s.A * s.x, s.B * s.y, s.k) == 1,
        "thm1_holds": bool(g.C > axn and g.G_a > g.ga_min),
        "thm5_holds": None if g.q is None else bool(g.q > g.q_min),
    }
    for name in REPORT_SCHEMA["gains"] + REPORT_SCHEMA["bounds"]:
        fields[name] = _display(getattr(g, name))
    return _report_doc(fields)


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if value is True:
        return "true"
    if value is False:
        return "false"
    return str(value)


def _csv_header(doc: dict) -> str:
    return ",".join(name for section in doc.values() for name in section)


def _csv_row(doc: dict) -> str:
    return ",".join(_csv_cell(v) for section in doc.values() for v in section.values())


def _run_analyze(args: argparse.Namespace) -> int:
    try:
        s = validate_solution(args.n, args.x, args.y, args.A, args.B, args.k)
    except SolutionError as err:
        _emit_validation_failure(err, args.output_format)
        return EXIT_INVALID
    except (TypeError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INVALID
    try:
        g = compute_gains(s, q_max_custom=args.qmax)
    except FactorBudgetExceeded as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_RESOURCE
    except ValueError as err:
        # e.g. an unparseable GAINLAB_FACTOR_BUDGET setting
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    doc = solution_report(s, g)
    fmt = args.output_format
    if fmt == "json":
        print(json.dumps(doc, indent=2))
    elif fmt == "csv":
        print(_csv_header(doc))
        print(_csv_row(doc))
    else:
        for section, fields in doc.items():
            pairs = "  ".join(f"{k}={_csv_cell(v)}" for k, v in fields.items())
            print(f"{section:<9} {pairs}")
    return EXIT_OK


def _emit_validation_failure(err: SolutionError, fmt: str) -> None:
    violations = err.report.violations
    if fmt == "json":
        doc = {
            "valid": False,
            "violations": [
                {
                    "kind": v.kind,
                    "detail": v.detail,
                    "residual": None if v.residual is None else str(v.residual),
                }
                for v in violations
            ],
        }
        print(json.dumps(doc, indent=2))
        return
    if fmt == "csv":
        print("kind,residual")
        for v in violations:
            print(f"{v.kind},{_csv_cell(v.residual)}")
        return
    print("invalid solution:")
    for v in violations:
        print(f"  {v.kind}: {v.detail}")


def _run_bounds(args: argparse.Namespace) -> int:
    n, A, B, y, cap = args.n, args.A, args.B, args.y, args.qmax
    try:
        fields = bound_fields(n, A, B, y, cap)
    except (TypeError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    bounds = _report_doc({name: _display(v) for name, v in fields.items()})["bounds"]
    bounds["max_admissible_exponent_strong"] = max_admissible_exponent(QMAX_STRONG)
    bounds["max_admissible_exponent_ultra"] = max_admissible_exponent(QMAX_ULTRA)
    if cap is not None:
        # None when the cap is at most 1, which excludes every exponent.
        try:
            bounds["max_admissible_exponent_custom"] = max_admissible_exponent(cap)
        except ValueError:
            bounds["max_admissible_exponent_custom"] = None
    doc = {
        "params": {
            "n": str(n),
            "A": str(A),
            "B": str(B),
            "y": str(y),
            "q_max_custom": None if cap is None else str(cap.value),
        },
        "bounds": bounds,
    }
    fmt = args.output_format
    if fmt == "json":
        print(json.dumps(doc, indent=2))
    elif fmt == "csv":
        print(_csv_header(doc))
        print(_csv_row(doc))
    else:
        for section, fields in doc.items():
            print(f"{section}:")
            for kname, v in fields.items():
                print(f"  {kname:<28} {_csv_cell(v)}")
    return EXIT_OK


def _run_box(args: argparse.Namespace) -> int:
    box = SearchBox(
        n_range=args.n_range,
        x_range=args.x_range,
        y_range=args.y_range,
        A_range=args.A_range,
        B_range=args.B_range,
        mode=args.mode,
        k_range=args.k_range,
        q_threshold=args.q_threshold,
        require_nontrivial=not args.allow_trivial_x,
    )
    runner = enumerate_fixed_k if args.mode == FIXED_K else hunt_derived_k
    try:
        result: SearchResult = runner(box)
    except BoxTooLarge as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_RESOURCE
    except (TypeError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    docs = [solution_report(s, g) for s, g in result.solutions]
    _emit_search_output(docs, result, args.output_format)
    print(
        f"scanned {result.cells_scanned} cells in {result.duration:.3f}s, "
        f"{len(result.solutions)} solutions",
        file=sys.stderr,
    )
    return EXIT_OK


def _emit_search_output(docs: list[dict], result: SearchResult, fmt: str) -> None:
    if fmt == "json":
        payload = {"solutions": docs, "cells_scanned": result.cells_scanned}
        print(json.dumps(payload, indent=2))
        return
    if fmt == "csv":
        print(_csv_header(docs[0] if docs else _report_doc({})))
        for doc in docs:
            print(_csv_row(doc))
        return
    if not docs:
        print("no solutions")
    for doc in docs:
        s = doc["solution"]
        g = doc["gains"]
        print(
            f"n={s['n']} x={s['x']} y={s['y']} A={s['A']} B={s['B']} k={s['k']}"
            f"  q={_csv_cell(g['q'])} G_a={_csv_cell(g['G_a'])} G_p={_csv_cell(g['G_p'])}"
        )
    print(f"cells_scanned: {result.cells_scanned}")


def _run_verify_corpus(args: argparse.Namespace) -> int:
    entries = []
    for entry in builtin_corpus():
        try:
            report = verify_entry(entry)
        except FactorBudgetExceeded as err:
            print(f"error: {err}", file=sys.stderr)
            return EXIT_RESOURCE
        except ValueError as err:
            print(f"error: {err}", file=sys.stderr)
            return EXIT_USAGE
        quantities = {}
        for qty, verdict in report.quantities.items():
            actual = verdict.actual
            quantities[qty] = {
                "expected": str(verdict.expected),
                "tolerance": str(verdict.tolerance),
                "actual": str(actual) if isinstance(actual, int) else _display(actual),
                "pass": verdict.passed,
            }
        entries.append(
            {
                "name": entry.name,
                "params": {
                    "n": str(entry.n),
                    "x": str(entry.x),
                    "y": str(entry.y),
                    "A": str(entry.A),
                    "B": str(entry.B),
                },
                "k_printed": None if entry.k_printed is None else str(entry.k_printed),
                "k_derived": str(entry.k_derived),
                "consistency": dict(report.consistency),
                "quantities": quantities,
            }
        )
    fmt = args.output_format
    if fmt == "json":
        print(json.dumps({"entries": entries}, indent=2))
    elif fmt == "csv":
        print("name,kind,item,expected,tolerance,actual,pass")
        for e in entries:
            for check, verdict in e["consistency"].items():
                print(f"{e['name']},consistency,{check},,,,{verdict}")
            for qty, v in e["quantities"].items():
                print(
                    f"{e['name']},quantity,{qty},{v['expected']},{v['tolerance']},"
                    f"{_csv_cell(v['actual'])},{_csv_cell(v['pass'])}"
                )
    else:
        for e in entries:
            p = e["params"]
            print(
                f"{e['name']}: n={p['n']} x={p['x']} y={p['y']} "
                f"A={p['A']} B={p['B']} k_derived={e['k_derived']}"
            )
            for check, verdict in e["consistency"].items():
                print(f"  consistency {check:<12} {verdict}")
            for qty, v in e["quantities"].items():
                status = "pass" if v["pass"] else "FAIL"
                print(
                    f"  {qty:<16} expected {v['expected']} +/- {v['tolerance']}"
                    f"  actual {_csv_cell(v['actual'])}  {status}"
                )
            print()
    return EXIT_OK


_COMMANDS = {
    "analyze": _run_analyze,
    "bounds": _run_bounds,
    "search": _run_box,
    "hunt": _run_box,
    "verify-corpus": _run_verify_corpus,
}


def main(argv=None) -> int:
    # Terms are exact at any size, so the interpreter's int-to-str digit
    # limit is lifted for this call and restored on return.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        args = parse_args(argv)
        return _COMMANDS[args.command](args)
    except SystemExit as exit_:
        # argparse exits 2 on usage errors and 0 for --help.
        code = exit_.code
        return code if isinstance(code, int) else EXIT_USAGE
    finally:
        sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
