"""Independent checks of gainlab CLI output.

Nothing here imports gainlab.  Exact identities use Python integers,
radicals come from sympy.primefactors, and every logarithm is recomputed
with mpmath at 50 digits and then rounded to the 6 significant digits the
CLI prints.  Each check returns a list of violations; an empty list means
the output is correct.
"""

from __future__ import annotations

import json
import math
import random
from decimal import ROUND_HALF_EVEN, Decimal

import mpmath
from sympy import primefactors

mpmath.mp.dps = 50

# Rows of a box output that get the full recheck (radical and logarithms);
# the cheap exact checks run on every row.
SAMPLE_ROWS = 48


def sig6(value) -> str:
    """An mpmath value as the CLI shows it: 6 significant digits, half-even."""
    d = Decimal(mpmath.nstr(value, 45, strip_zeros=False))
    if d.is_zero():
        return "0"
    quantum = Decimal(1).scaleb(d.adjusted() - 5)
    return format(d.quantize(quantum, rounding=ROUND_HALF_EVEN), "f")


def radical(*values: int) -> int:
    primes: set[int] = set()
    for v in values:
        primes.update(primefactors(v))
    return math.prod(primes)


def bounds(n: int, A: int, B: int, y: int) -> dict:
    """Reference values of the bound fields for parameters (n, A, B, y)."""
    n_ = mpmath.mpf(n)
    ln_byn = n_ * mpmath.log(y) + mpmath.log(B)
    ga_min = 1 / ((n_ + 2) / n_ + (n_ - 1) * mpmath.log(A * B) / (n_ * ln_byn))
    return {
        "ga_min": ga_min,
        "q_min": ga_min,
        "gp_max_strong": 2 / ga_min,
        "gp_max_ultra": mpmath.mpf("1.5") / ga_min,
        "k1_q_bound": n_ / 2,
    }


def reference(n: int, x: int, y: int, A: int, B: int, k: int) -> dict:
    """Reference values of every quantity the CLI reports for a solution."""
    C = B * y ** n
    P = x * y * A * B * k
    R = radical(x, y, A, B, k)
    ln_c, ln_p, ln_r = mpmath.log(C), mpmath.log(P), mpmath.log(R)
    ref = {"C": C, "P": P, "radical_P": R, "G_a": ln_c / ln_p,
           "G_p": ln_p / ln_r, "q": ln_c / ln_r}
    ref.update(bounds(n, A, B, y))
    ref["limit_ratio"] = ref["G_p"] / ref["gp_max_strong"]
    return ref


def _solution_ints(doc: dict) -> tuple[int, ...]:
    s = doc["solution"]
    return tuple(int(s[name]) for name in ("n", "x", "y", "A", "B", "k"))


def check_row_exact(doc: dict) -> list[str]:
    """Identity, coprimality and the C, P terms of one solution report."""
    n, x, y, A, B, k = _solution_ints(doc)
    errors = []
    if B * y ** n != A * x ** n + k:
        errors.append(f"identity fails for {(n, x, y, A, B, k)}")
    if math.gcd(A * x, B * y, k) != 1:
        errors.append(f"gcd(A*x, B*y, k) != 1 for {(n, x, y, A, B, k)}")
    terms = doc["terms"]
    if terms["C"] != str(B * y ** n) or terms["P"] != str(x * y * A * B * k):
        errors.append(f"C or P wrong for {(n, x, y, A, B, k)}")
    return errors


def check_row(doc: dict) -> list[str]:
    """Every field of one solution report against the reference values."""
    errors = check_row_exact(doc)
    if errors:
        return errors
    n, x, y, A, B, k = _solution_ints(doc)
    where = f"{(n, x, y, A, B, k)}"
    if doc["terms"]["radical_P"] is None:
        return [f"partial report (no radical) for {where}"]
    ref = reference(n, x, y, A, B, k)
    if doc["terms"]["radical_P"] != str(ref["radical_P"]):
        errors.append(f"radical_P {doc['terms']['radical_P']} != {ref['radical_P']} for {where}")
        return errors
    for name in ("G_a", "G_p", "q"):
        if doc["gains"][name] != sig6(ref[name]):
            errors.append(f"{name} {doc['gains'][name]} != {sig6(ref[name])} for {where}")
    for name in ("ga_min", "q_min", "gp_max_strong", "gp_max_ultra", "k1_q_bound"):
        if doc["bounds"].get(name) != sig6(ref[name]):
            errors.append(f"{name} {doc['bounds'].get(name)} != {sig6(ref[name])} for {where}")
    expected_checks = {
        "identity": True,
        "coprime": True,
        "thm1_holds": ref["G_a"] > ref["ga_min"],
        "thm5_holds": ref["q"] > ref["q_min"],
    }
    if doc["checks"] != expected_checks:
        errors.append(f"checks {doc['checks']} != {expected_checks} for {where}")
    if doc["solution"]["trivial_x"] != (x == 1):
        errors.append(f"trivial_x wrong for {where}")
    return errors


def box_volume(box: dict) -> int:
    """Cells a box visits: hunt loops over n, A, B, x, y; search over n, A, B, x, k."""
    axes = ("n", "A", "B", "x", "y") if box["command"] == "hunt" else ("n", "A", "B", "x", "k")
    volume = 1
    for axis in axes:
        lo, hi = box[axis]
        if axis == "x":
            lo = max(lo, 2)  # x = 1 is skipped without --allow-trivial-x
        volume *= max(0, hi - lo + 1)
    return volume


def check_box(stdout: bytes, box: dict, seed: int) -> tuple[list[str], int, int]:
    """A hunt or search JSON document against the box it was asked for.

    Returns the violations, and the cells and solutions the document reports.
    """
    try:
        doc = json.loads(stdout)
        rows = doc["solutions"]
        cells = doc["cells_scanned"]
    except (ValueError, KeyError, TypeError) as err:
        return [f"unreadable box output: {err!r}"], 0, 0
    errors = []
    if cells != box_volume(box):
        errors.append(f"cells_scanned {cells} != box volume {box_volume(box)}")
    axes = ("n", "x", "y", "A", "B") + (("k",) if box["command"] == "search" else ())
    keys = []
    for row in rows:
        errors.extend(check_row_exact(row))
        n, x, y, A, B, k = ints = _solution_ints(row)
        values = dict(zip(("n", "x", "y", "A", "B", "k"), ints))
        for axis in axes:
            lo, hi = box[axis]
            if not lo <= values[axis] <= hi:
                errors.append(f"{axis} = {values[axis]} outside [{lo}, {hi}]")
        keys.append((n, k, A, B, x, y))
        if len(errors) > 20:
            return errors, cells, len(rows)
    if len(set(keys)) != len(keys):
        errors.append("duplicate solutions")
    if box["command"] == "search":
        if keys != sorted(keys):
            errors.append("search rows are not in canonical order")
    else:
        qs = [row["gains"]["q"] for row in rows]
        known = [Decimal(q) for q in qs if q is not None]
        if any(a < b for a, b in zip(known, known[1:])):
            errors.append("hunt rows are not ordered by descending q")
        if None in qs and any(q is not None for q in qs[qs.index(None):]):
            errors.append("a partial report sorts before a known q")
    threshold = box.get("q_threshold")
    if threshold is not None:
        low = [q for q in (row["gains"]["q"] for row in rows) if q is None or Decimal(q) < Decimal(threshold)]
        if low:
            errors.append(f"{len(low)} rows below q threshold {threshold}")
    rng = random.Random(seed)
    picks = set(rng.sample(range(len(rows)), min(SAMPLE_ROWS, len(rows))))
    picks.update({0, len(rows) - 1} if rows else set())
    for i in sorted(picks):
        errors.extend(check_row(rows[i]))
    return errors, cells, len(rows)


def check_analyze(stdout: bytes, params: tuple[int, ...]) -> list[str]:
    try:
        doc = json.loads(stdout)
        got = _solution_ints(doc)
    except (ValueError, KeyError, TypeError) as err:
        return [f"unreadable analyze output: {err!r}"]
    if got != params:
        return [f"analyze reported {got}, asked for {params}"]
    return check_row(doc)


def check_bounds(stdout: bytes, params: dict) -> list[str]:
    try:
        doc = json.loads(stdout)
        shown = doc["bounds"]
    except (ValueError, KeyError, TypeError) as err:
        return [f"unreadable bounds output: {err!r}"]
    ref = bounds(params["n"], params["A"], params["B"], params["y"])
    qmax = mpmath.mpf(params["qmax"])
    ref["gp_max_custom"] = qmax / ref["ga_min"]
    errors = [
        f"bounds {name} {shown.get(name)} != {sig6(value)}"
        for name, value in ref.items()
        if shown.get(name) != sig6(value)
    ]
    # The largest n with n/2 < cap.
    for label, cap in (("strong", 2), ("ultra", mpmath.mpf("1.5")), ("custom", qmax)):
        want = int(mpmath.ceil(2 * cap)) - 1
        if shown.get(f"max_admissible_exponent_{label}") != want:
            errors.append(f"max_admissible_exponent_{label} != {want}")
    echo = {name: str(params[name]) for name in ("n", "A", "B", "y")}
    if {name: doc["params"][name] for name in echo} != echo:
        errors.append("bounds params echo differs from the input")
    return errors


def check_corpus(stdout: bytes) -> list[str]:
    try:
        entries = json.loads(stdout)["entries"]
    except (ValueError, KeyError, TypeError) as err:
        return [f"unreadable verify-corpus output: {err!r}"]
    errors = []
    if [e["name"] for e in entries] != ["reyssat", "deweger", "nitaj"]:
        errors.append("verify-corpus entries differ from the shipped three")
    for e in entries:
        n, x, y, A, B = (int(e["params"][p]) for p in ("n", "x", "y", "A", "B"))
        k = B * y ** n - A * x ** n
        if e["k_derived"] != str(k):
            errors.append(f"{e['name']}: k_derived {e['k_derived']} != {k}")
            continue
        printed = "pass" if e["k_printed"] == str(k) else "fail"
        coprime = "pass" if math.gcd(A * x, B * y, k) == 1 else "fail"
        want = {"identity": "pass", "printed_k": printed, "coprimality": coprime}
        if e["consistency"] != want:
            errors.append(f"{e['name']}: consistency {e['consistency']} != {want}")
        ref = reference(n, x, y, A, B, k)
        for qty, v in e["quantities"].items():
            value = ref[qty]
            shown = str(value) if qty == "radical_P" else sig6(value)
            passed = abs(value - mpmath.mpf(v["expected"])) <= mpmath.mpf(v["tolerance"])
            if v["actual"] != shown or v["pass"] != bool(passed):
                errors.append(f"{e['name']}: {qty} {v} != actual {shown}, pass {passed}")
    return errors
