"""Command-line front end.

Subcommands: analyze one solution, evaluate bounds for parameters, search
a box with fixed k, hunt a box with derived k, verify the built-in corpus.
Reports go to stdout in json, csv, or human form, each filled into a
template built once from REPORT_SCHEMA; a search renders each row as the
scan finds it, into bounded sorted runs (runs.SortedRows).  Progress,
timing, and errors go to stderr.  Identical invocations produce
byte-identical stdout: solution parameters and terms serialize as exact
decimal strings and every real as a 6-significant-digit decimal string,
never a binary float.  Counts (cells_scanned, max_admissible_exponent_*)
are JSON numbers, exact at any size: --qmax 9.99e63 gives a 65-digit one.

Commands write their report or raise; main alone maps a failure to its
exit code: 0 success, 1 invalid solution, 2 usage error, 3 resource
limits (factorization budget, box ceiling, memory, a stdout or spill
file that cannot be written).  A command imports search, runs or corpus
only when it runs them.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
from decimal import Decimal, InvalidOperation
from functools import lru_cache
from json.encoder import encode_basestring_ascii
from math import gcd
from operator import itemgetter
from time import perf_counter

from .bigmath import round_sig
from .factor import FactorBudgetExceeded, resolve_budget
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

    # A box axis is --{axis} LO:HI, stored as {axis}_range (SearchBox's field).
    search = sub.add_parser("search", help="enumerate a box with fixed k")
    hunt = sub.add_parser("hunt", help="enumerate a box with derived k")
    for box_cmd, axes in ((search, "nxyABk"), (hunt, "nxyAB")):
        for name in axes:
            box_cmd.add_argument(
                f"--{name}", dest=f"{name}_range", type=_range_arg, required=True, metavar="LO:HI"
            )
    search.add_argument("--allow-trivial-x", action="store_true")
    add_format(search)
    search.set_defaults(q_threshold=None)

    hunt.add_argument("--q-threshold", type=_threshold_arg, default=None)
    hunt.add_argument("--allow-trivial-x", action="store_true")
    add_format(hunt)
    hunt.set_defaults(k_range=None)

    verify = sub.add_parser("verify-corpus", help="verify the built-in corpus")
    add_format(verify)

    return parser


def parse_args(argv=None) -> argparse.Namespace:
    return build_parser().parse_args(argv)


def _display(value: Decimal | None) -> str | None:
    if value is None:
        return None
    r = round_sig(value, DISPLAY_DIGITS)
    # format(r, "f") is plain decimal at any magnitude; the faster str gives
    # the same text while r's exponent is <= 0 and adjusted exponent >= -6.
    return str(r) if -6 <= r.adjusted() < DISPLAY_DIGITS else format(r, "f")


# A row value is a str, an int (a count), None, True or False.  In JSON a
# str is a string and an int a number; these tables give the other three.
_JSON_WORDS = {None: "null", True: "true", False: "false"}
_CSV_WORDS = {None: "", True: "true", False: "false"}


def _csv_cell(value) -> str:
    return str(value) if type(value) in (str, int) else _CSV_WORDS[value]


class _Layout:
    """Templates that render one column set as JSON, CSV and human text.

    sections maps each section to its column names, in output order; a row
    holds their values in that order.  The JSON is json.dumps(indent=2)'s,
    nested level deep.  human is a %-template over human_columns (or all).
    """

    def __init__(self, sections: dict, level: int, human: str, human_columns=None):
        columns = tuple(name for names in sections.values() for name in names)
        doc = {section: dict.fromkeys(names, "%s") for section, names in sections.items()}
        template = json.dumps(doc, indent=2).replace('"%s"', "%s")
        self.json = template.replace("\n", "\n" + "  " * level)
        self.csv_header = ",".join(columns)
        self.human = human
        self.pick = itemgetter(*map(columns.index, human_columns)) if human_columns else tuple

    def render(self, fmt: str, row: tuple) -> str:
        # Cells are encoded inline, not by a _csv_cell call each: this runs
        # once per solution of a search.
        if fmt == "json":
            return self.json % tuple([
                encode_basestring_ascii(v) if type(v) is str
                else str(v) if type(v) is int else _JSON_WORDS[v]
                for v in row
            ])
        cells = [
            v if type(v) is str else str(v) if type(v) is int else _CSV_WORDS[v]
            for v in (row if fmt == "csv" else self.pick(row))
        ]
        return ",".join(cells) if fmt == "csv" else self.human % tuple(cells)

    def print_document(self, fmt: str, row: tuple) -> None:
        if fmt == "csv":
            print(self.csv_header)
        print(self.render(fmt, row))


def _pair_lines(sections: dict) -> str:
    """Human template: one line of name=value pairs per section."""
    return "\n".join(
        f"{section:<9} " + "  ".join(f"{name}=%s" for name in names)
        for section, names in sections.items()
    )


def _block_lines(sections: dict) -> str:
    """Human template: a heading per section, then one line per column."""
    return "\n".join(
        f"{section}:\n" + "\n".join(f"  {name:<28} %s" for name in names)
        for section, names in sections.items()
    )


# REPORT_SCHEMA and what depends on its columns, keyed by whether a custom
# cap was given: without one, gp_max_custom is left out.  A search takes no
# cap, and it nests its reports in a list under "solutions".
_SECTIONS = {
    custom: {
        section: tuple(name for name in names if custom or name != "gp_max_custom")
        for section, names in REPORT_SCHEMA.items()
    }
    for custom in (False, True)
}
_ANALYZE_LAYOUTS = {custom: _Layout(s, 0, _pair_lines(s)) for custom, s in _SECTIONS.items()}
_SEARCH_LAYOUT = _Layout(
    _SECTIONS[False], 2,
    "n=%s x=%s y=%s A=%s B=%s k=%s  q=%s G_a=%s G_p=%s",
    ("n", "x", "y", "A", "B", "k", "q", "G_a", "G_p"),
)


@lru_cache(maxsize=None)
def _bound_text(n: int, A: int, B: int, y: int, gp_max_custom: Decimal | None = None) -> tuple:
    """Display strings of the bound fields, in _SECTIONS order.

    gp_max_custom is the value under a custom cap, shown in its own column.
    Rendered once per key, as gains._fixed_cap_bounds takes the values once
    per (n, A, B, y); q_min is ga_min, so one string serves both.
    """
    fields = dict(bound_fields(n, A, B, y), gp_max_custom=gp_max_custom)
    text = {name: _display(value) for name, value in fields.items() if name != "q_min"}
    text["q_min"] = text["ga_min"]
    return tuple(text[name] for name in _SECTIONS[gp_max_custom is not None]["bounds"])


def solution_report(s: Solution, g: GainReport) -> tuple:
    """The per-solution report row: its values in REPORT_SCHEMA column order.

    gp_max_custom is left out when no custom cap was given.
    """
    axn = s.A * s.x ** s.n
    return (
        str(s.n), str(s.x), str(s.y), str(s.A), str(s.B), str(s.k), s.trivial_x,
        str(g.C), str(g.P), None if g.R is None else str(g.R),
        _display(g.G_a), _display(g.G_p), _display(g.q),
        *_bound_text(s.n, s.A, s.B, s.y, g.gp_max_custom),
        g.C == axn + s.k,
        gcd(s.A * s.x, s.B * s.y, s.k) == 1,
        bool(g.C > axn and g.G_a > g.ga_min),
        None if g.q is None else bool(g.q > g.q_min),
    )


def _run_analyze(args: argparse.Namespace) -> None:
    s = validate_solution(args.n, args.x, args.y, args.A, args.B, args.k)
    g = compute_gains(s, q_max_custom=args.qmax)
    layout = _ANALYZE_LAYOUTS[g.gp_max_custom is not None]
    layout.print_document(args.output_format, solution_report(s, g))


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


def _admissible(cap: QMax) -> int | None:
    # None when the cap is at most 1, which excludes every exponent.
    try:
        return max_admissible_exponent(cap)
    except ValueError:
        return None


def _run_bounds(args: argparse.Namespace) -> None:
    n, A, B, y, cap = args.n, args.A, args.B, args.y, args.qmax
    custom = bound_fields(n, A, B, y, cap)["gp_max_custom"]
    caps = {"strong": QMAX_STRONG, "ultra": QMAX_ULTRA}
    if cap is not None:
        caps["custom"] = cap
    shown = _SECTIONS[cap is not None]["bounds"]
    sections = {
        "params": ("n", "A", "B", "y", "q_max_custom"),
        "bounds": shown + tuple(f"max_admissible_exponent_{name}" for name in caps),
    }
    row = (
        str(n), str(A), str(B), str(y), None if cap is None else str(cap.value),
        *_bound_text(n, A, B, y, custom),
        *map(_admissible, caps.values()),
    )
    _Layout(sections, 0, _block_lines(sections)).print_document(args.output_format, row)


def _run_box(args: argparse.Namespace) -> None:
    from .runs import SortedRows
    from .search import _ORDER, DERIVED_K, FIXED_K, SearchBox, _scan_box

    box = SearchBox(
        mode=FIXED_K if args.command == "search" else DERIVED_K,
        q_threshold=args.q_threshold,
        require_nontrivial=not args.allow_trivial_x,
        **{dest: rng for dest, rng in vars(args).items() if dest.endswith("_range")},
    )
    fmt, write, render = args.output_format, sys.stdout.write, _SEARCH_LAYOUT.render
    rows = SortedRows(_ORDER[box.mode], lambda s, g: render(fmt, solution_report(s, g)))
    try:
        t0 = perf_counter()
        cells = _scan_box(box, rows.add)
        texts = (map(itemgetter(-1), batch) for batch in rows.batches())
        duration = perf_counter() - t0
        if fmt == "json":
            write('{\n  "solutions": [')
            lead = "\n    "
            for batch in texts:
                write(lead + ",\n    ".join(batch))
                lead = ",\n    "
            write(("\n  ]" if len(rows) else "]") + f',\n  "cells_scanned": {cells}\n}}\n')
        else:
            if fmt == "csv":
                write(_SEARCH_LAYOUT.csv_header + "\n")
            elif not len(rows):
                write("no solutions\n")
            for batch in texts:
                write("\n".join(batch) + "\n")
            if fmt == "human":
                write(f"cells_scanned: {cells}\n")
    finally:
        rows.close()
    print(f"scanned {cells} cells in {duration:.3f}s, {len(rows)} solutions", file=sys.stderr)


# A corpus verdict row is (quantity, *_VERDICT_KEYS), formatted once.
_VERDICT_KEYS = ("expected", "tolerance", "actual", "pass")


def _run_verify_corpus(args: argparse.Namespace) -> None:
    from .corpus import builtin_corpus, verify_entry

    entries = []
    for entry in builtin_corpus():
        report = verify_entry(entry)
        rows = [
            (qty, str(v.expected), str(v.tolerance),
             str(v.actual) if isinstance(v.actual, int) else _display(v.actual), v.passed)
            for qty, v in report.quantities.items()
        ]
        entries.append((entry, report.consistency, rows))
    fmt = args.output_format
    if fmt == "json":
        doc = [
            {
                "name": e.name,
                "params": {name: str(getattr(e, name)) for name in ("n", "x", "y", "A", "B")},
                "k_printed": None if e.k_printed is None else str(e.k_printed),
                "k_derived": str(e.k_derived),
                "consistency": consistency,
                "quantities": {row[0]: dict(zip(_VERDICT_KEYS, row[1:])) for row in rows},
            }
            for e, consistency, rows in entries
        ]
        print(json.dumps({"entries": doc}, indent=2))
    elif fmt == "csv":
        print("name,kind,item," + ",".join(_VERDICT_KEYS))
        for e, consistency, rows in entries:
            for check, verdict in consistency.items():
                print(f"{e.name},consistency,{check},,,,{verdict}")
            for row in rows:
                print(f"{e.name},quantity," + ",".join(map(_csv_cell, row)))
    else:
        for e, consistency, rows in entries:
            print(f"{e.name}: n={e.n} x={e.x} y={e.y} A={e.A} B={e.B} k_derived={e.k_derived}")
            for check, verdict in consistency.items():
                print(f"  consistency {check:<12} {verdict}")
            for qty, expected, tolerance, actual, passed in rows:
                print(
                    f"  {qty:<16} expected {expected} +/- {tolerance}"
                    f"  actual {_csv_cell(actual)}  {'pass' if passed else 'FAIL'}"
                )
            print()


_COMMANDS = {
    "analyze": _run_analyze,
    "bounds": _run_bounds,
    "search": _run_box,
    "hunt": _run_box,
    "verify-corpus": _run_verify_corpus,
}


def main(argv=None) -> int:
    # The one place where a failure becomes an exit code.  Terms are exact
    # at any size, so the int-to-str digit limit is lifted for this call,
    # and every document and error line is written before it is restored.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    command = None
    try:
        try:
            args = parse_args(argv)
            # A bad budget setting is a usage error for every command, not
            # only for those that happen to reach rho.
            resolve_budget()
            command = args.command
            _COMMANDS[command](args)
            code = EXIT_OK
        except SystemExit as exit_:
            # argparse exits 2 on usage errors and 0 for --help.
            code = exit_.code if isinstance(exit_.code, int) else EXIT_USAGE
        except SolutionError as err:
            _emit_validation_failure(err, args.output_format)
            code = EXIT_INVALID
        except (FactorBudgetExceeded, MemoryError) as err:
            print(f"error: {str(err) or 'out of memory'}", file=sys.stderr)
            code = EXIT_RESOURCE
        except ValueError as err:
            # A box over the cell ceiling is a resource limit.  A negative
            # parameter makes an invalid tuple; any other bad value is a
            # usage error.
            from .search import BoxTooLarge

            print(f"error: {err}", file=sys.stderr)
            if isinstance(err, BoxTooLarge):
                code = EXIT_RESOURCE
            else:
                code = EXIT_INVALID if command == "analyze" else EXIT_USAGE
        # A full disk must fail here, not at the interpreter's last flush.
        sys.stdout.flush()
        return code
    except OSError as err:
        # stdout, or a search's spill file, cannot be written.  fd 1 is
        # pointed at os.devnull so that the last flush succeeds; an
        # in-memory stdout has no fd to point.  A spill fails during the
        # scan, before any row is written, so no output is lost.
        print(f"error: {err}", file=sys.stderr)
        with contextlib.suppress(io.UnsupportedOperation):
            fd = sys.stdout.fileno()
            os.dup2(os.open(os.devnull, os.O_WRONLY), fd)
        return EXIT_RESOURCE
    finally:
        sys.set_int_max_str_digits(limit)
