"""Solution validation, gain and quality computation, and bound formulas.

A solution of B*y^n = A*x^n + k with gcd(A*x, B*y, k) = 1 gets three
dimensionless measures:

    G_a = ln(max(A*x^n, B*y^n)) / ln(x*y*A*B*k)   approximation gain
    G_p = ln(x*y*A*B*k) / ln(rad(x*y*A*B*k))      power gain
    q   = G_a * G_p                               ABC-quality of the triple

plus the bounds, all from one term evaluated at 64 digits:

    D = n + 2 + (n-1) ln(AB) / ln C,   C = B*y^n
    ga_min = q_min = n/D                          floor on G_a, hence on q
    gp_max = q_max * D/n                          cap on G_p when q < q_max

at quality caps 2 (strong), 1.5 (ultra) or a custom one, and the q > n/2
bound for the k = 1, A = B = 1 case.  q_min is ga_min because
q = G_a * G_p and G_p >= 1.  One bounded memo per key holds ln C, which
G_a, q and D share, and the bounds with their display text.

quality_below screens a tuple against a quality threshold in floats,
with a proven margin, before any 64-digit log is taken.
"""

from __future__ import annotations

import math
from decimal import Decimal, localcontext
from functools import lru_cache
from math import gcd
from typing import NamedTuple

from .bigmath import (
    CTX, LN_PRECISION, display, int_text, ln_exact, ln_power_and_radical, ln_product,
    ln_sums, require_int,
)
from .factor import Factorization, factorize_product

NON_TRIVIAL = "non_trivial"
TRIVIAL_X = "trivial_x"

RANGE_VIOLATION = "range-violation"
IDENTITY_VIOLATION = "identity-violation"
COPRIMALITY_VIOLATION = "coprimality-violation"

_TWO = Decimal(2)

# The least value of each solution parameter, in the order they are checked.
PARAM_FLOORS = {"n": 2, "x": 1, "y": 2, "A": 1, "B": 1, "k": 1}

# Quality caps lie in [low, high).  Every value derived from a cap (the G_p
# caps, the largest admissible exponent) then prints in under a hundred
# digits.
QMAX_RANGE = (Decimal(1).scaleb(-LN_PRECISION), Decimal(1).scaleb(LN_PRECISION))


class Solution(NamedTuple):
    """A verified tuple with B*y^n = A*x^n + k and gcd(A*x, B*y, k) = 1.

    Construct through validate_solution; the invariants are not re-checked
    here.  x = 1 is admitted (the coefficient A can then absorb all of
    y^n's size) but is classified trivial_x and tracked separately.
    """

    n: int
    x: int
    y: int
    A: int
    B: int
    k: int

    @property
    def trivial_x(self) -> bool:
        return self.x == 1

    @property
    def triviality(self) -> str:
        return TRIVIAL_X if self.x == 1 else NON_TRIVIAL

    def canonical_key(self) -> tuple[int, int, int, int, int, int]:
        return (self.n, self.k, self.A, self.B, self.x, self.y)


class Violation(NamedTuple):
    """One failed solution invariant.

    kind is one of the *_VIOLATION constants; residual is the exact value
    of B*y^n - A*x^n - k and is set only for identity violations.
    """

    kind: str
    detail: str
    residual: int | None = None


class ValidationReport(NamedTuple):
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def kinds(self) -> tuple[str, ...]:
        return tuple(v.kind for v in self.violations)


class SolutionError(ValueError):
    """Raised by validate_solution; carries the full ValidationReport."""

    def __init__(self, report: ValidationReport):
        lines = "; ".join(v.detail for v in report.violations)
        super().__init__(f"invalid solution: {lines}")
        self.report = report


# A NamedTuple class body may not define __new__, so QMax subclasses a
# functional one to check its value.
class QMax(NamedTuple("QMax", [("value", Decimal), ("label", str)])):
    """A quality cap q < value, labeled strong (2), ultra (1.5), or custom.

    value is a finite Decimal in the interval QMAX_RANGE.
    """

    __slots__ = ()

    def __new__(cls, value: Decimal, label: str) -> QMax:
        if not isinstance(value, Decimal):
            raise TypeError("QMax.value must be a Decimal")
        if not value.is_finite():
            raise ValueError("QMax.value must be finite")
        if value <= 0:
            raise ValueError("QMax.value must be positive")
        low, high = QMAX_RANGE
        if not low <= value < high:
            raise ValueError(f"QMax.value must lie in [{low}, {high})")
        return super().__new__(cls, value, label)

    # The inherited _make, which _replace calls, builds the tuple directly
    # and would skip the checks above.
    _make = classmethod(lambda cls, iterable: cls(*iterable))


QMAX_STRONG = QMax(Decimal(2), "strong")
QMAX_ULTRA = QMax(Decimal("1.5"), "ultra")


def custom_qmax(value) -> QMax:
    """A user-supplied quality cap (any positive number)."""
    return QMax(Decimal(str(value)), "custom")


def _as_qmax(q_max) -> QMax:
    if isinstance(q_max, QMax):
        return q_max
    return custom_qmax(q_max)


class GainReport(NamedTuple):
    """All computed quantities for one solution.

    C is the dominant term B*y^n, P the parameter product x*y*A*B*k, R the
    radical of P.  R, G_p and q are None only when the factorization budget
    was exhausted and the caller asked for a partial report.
    """

    C: int
    P: int
    R: int | None
    G_a: Decimal
    G_p: Decimal | None
    q: Decimal | None
    ga_min: Decimal
    q_min: Decimal
    gp_max_strong: Decimal
    gp_max_ultra: Decimal
    gp_max_custom: Decimal | None
    k1_q_bound: Decimal
    triviality: str


def check_solution(n: int, x: int, y: int, A: int, B: int, k: int) -> ValidationReport:
    """Check every solution invariant; an empty report means valid.

    All violations are collected, not just the first: range bounds, the
    exact identity (with its integer residual), and triple coprimality.
    A parameter that is not an int raises TypeError and a negative one
    ValueError, the first such parameter in (n, x, y, A, B, k) order.
    """
    violations: list[Violation] = []
    for (name, least), v in zip(PARAM_FLOORS.items(), (n, x, y, A, B, k)):
        require_int(name, v)
        if v < 0:
            raise ValueError(f"{name} must be nonnegative, got {int_text(v)}")
        if v < least:
            violations.append(
                Violation(RANGE_VIOLATION, f"{name} = {v} violates {name} >= {least}")
            )

    # 0**0 never arises here: n = 0 is already a range violation above.
    if n >= 1:
        residual = B * y ** n - A * x ** n - k
        if residual != 0:
            violations.append(
                Violation(
                    IDENTITY_VIOLATION,
                    f"B*y^n - A*x^n - k = {int_text(residual)}, expected 0",
                    residual=residual,
                )
            )
    g = gcd(A * x, B * y, k)
    if g != 1:
        violations.append(
            Violation(
                COPRIMALITY_VIOLATION,
                f"gcd(A*x, B*y, k) = {int_text(g)}, expected 1",
            )
        )
    return ValidationReport(tuple(violations))


def validate_solution(n: int, x: int, y: int, A: int, B: int, k: int) -> Solution:
    """Return a Solution if every invariant holds, else raise SolutionError."""
    report = check_solution(n, x, y, A, B, k)
    if not report.ok:
        raise SolutionError(report)
    return Solution(n=n, x=x, y=y, A=A, B=B, k=k)


def _gp_cap(n: int, d: Decimal, q_max: QMax) -> Decimal:
    """q_max*D/n, the cap on G_p under q < q_max."""
    return CTX.divide(CTX.multiply(q_max.value, d), Decimal(n))


def ga_lower_bound(n: int, A: int, B: int, y: int) -> Decimal:
    """Structural lower bound n/D on G_a; n/(n+2) exactly for A = B = 1."""
    return bound_fields(n, A, B, y)["ga_min"]


def gp_upper_bound(n: int, A: int, B: int, y: int, q_max) -> Decimal:
    """Upper bound q_max*D/n = q_max / ga_lower_bound on G_p under q < q_max."""
    return bound_fields(n, A, B, y, _as_qmax(q_max))["gp_max_custom"]


def q_lower_bound(n: int, A: int, B: int, y: int) -> Decimal:
    """Lower bound on the quality q of any solution with these parameters.

    The same value as ga_lower_bound: q = G_a * G_p and G_p >= 1, so the
    floor on G_a is a floor on q.
    """
    return ga_lower_bound(n, A, B, y)


def k1_quality_bound(n: int) -> Decimal:
    """Strict lower bound n/2 on q for solutions of y^n = x^n + 1, x,y >= 2."""
    if n < 2:
        raise ValueError("k1_quality_bound requires n >= 2")
    with localcontext(CTX):
        return Decimal(n) / _TWO


def max_admissible_exponent(q_max) -> int:
    """Largest n with n/2 < q_max, i.e. not excluded by the q > n/2 bound.

    q_max <= 1 would exclude even n = 2 and is rejected as out of model.
    """
    cap = _as_qmax(q_max)
    if cap.value <= 1:
        raise ValueError("max_admissible_exponent requires q_max > 1")
    # Exact, whatever the number of digits in q_max: ceil(2*num/den) - 1.
    num, den = cap.value.as_integer_ratio()
    return -(-2 * num // den) - 1


# Names of the bound fields, shared by GainReport and the CLI report schema.
BOUND_FIELDS = (
    "ga_min", "q_min", "gp_max_strong", "gp_max_ultra", "gp_max_custom", "k1_q_bound",
)


@lru_cache(maxsize=4096)
def shared_part(components: tuple[int, ...]) -> tuple | None:
    """ln_sums of prod(components), then the sum of math.log(p) and the count of its primes.

    None if a component is 10**8 or more: trial division settles smaller
    ones with no rho step, so a part is the same under any budget, and one
    evicted from the memo is taken again to the same value.
    """
    if max(components) >= 10 ** 8:
        return None
    factors = factorize_product(components).factors
    return (*ln_sums(factors), sum(math.log(p) for p, _ in factors), len(factors))


_HELD, _row = 4096, None


@lru_cache(maxsize=None)
def _bounds(n: int, A: int, B: int, y: int) -> tuple:
    """(ln C, D, ga_min, gp_max_strong, gp_max_ultra, k1_q_bound, text), C = B*y^n.

    text is bound_text without a custom cap; q_min's string is ga_min's.
    A key of a new (n, A, B) row empties the memo past _HELD keys: each x
    of a scan walks its row's y again, so the row being filled stays whole
    however wide.  A dropped key is taken again to the same values.
    """
    global _row
    if (n, A, B) != _row and _bounds.cache_info().currsize >= _HELD:
        _bounds.cache_clear()
    _row = (n, A, B)
    ln_c = ln_product(((B, 1), (y, n)))
    with localcontext(CTX):
        d = Decimal(n + 2) + (Decimal(n - 1) * ln_product(((A * B, 1),))) / ln_c
    caps = (_gp_cap(n, d, cap) for cap in (QMAX_STRONG, QMAX_ULTRA))
    values = (CTX.divide(Decimal(n), d), *caps, k1_quality_bound(n))
    ga_min, strong, ultra, k1 = map(display, values)
    return (ln_c, d, *values, (ga_min, ga_min, strong, ultra, k1))


def bound_fields(n: int, A: int, B: int, y: int, q_max: QMax | None = None) -> dict:
    """Every bound field for these parameters, keyed by BOUND_FIELDS.

    The checked reader of _bounds: the public bounds go through it.  q_min
    is ga_min (see q_lower_bound); gp_max_custom is None when no cap is
    given.  D and the fixed-cap fields are memoized per (n, A, B, y).
    """
    # Checked before the memo lookup, where 2.0 and True find the keys 2 and 1.
    for name, v in (("n", n), ("A", A), ("B", B), ("y", y)):
        require_int(name, v)
        least = PARAM_FLOORS[name]
        if v < least:
            raise ValueError(f"bound formulas require {name} >= {least}")
    _, d, ga_min, strong, ultra, k1, _ = _bounds(n, A, B, y)
    custom = None if q_max is None else _gp_cap(n, d, q_max)
    return dict(zip(BOUND_FIELDS, (ga_min, ga_min, strong, ultra, custom, k1)))


def bound_text(n: int, A: int, B: int, y: int, gp_max_custom: Decimal | None = None) -> tuple:
    """Display strings of the bound fields, in BOUND_FIELDS order; gp_max_custom's only if given.

    Unchecked: the parameters come from a Solution or have passed bound_fields.
    """
    text, i = _bounds(n, A, B, y)[-1], BOUND_FIELDS.index("gp_max_custom")
    return text if gp_max_custom is None else (*text[:i], display(gp_max_custom), *text[i:])


def _build_report(s: Solution, sums: tuple | None, q_max_custom: QMax | None) -> GainReport:
    n, y, A, B = s.n, s.y, s.A, s.B
    P = s.x * y * A * B * s.k
    if P == 1:
        # Unreachable for a valid Solution (y >= 2), but the ratio would be
        # 0/0 and must never be silently produced.
        raise ValueError("degenerate denominator: x*y*A*B*k = 1")
    # A Solution holds ints at or above their floors, as bound_fields checks.
    ln_c, d, ga_min, strong, ultra, k1, _ = _bounds(n, A, B, y)
    custom = None if q_max_custom is None else _gp_cap(n, d, q_max_custom)
    if sums is None:
        R = g_p = q = None
        ln_p = ln_exact(P)
    else:
        R = sums[4]
        ln_p, ln_r = ln_power_and_radical(sums, P)
        g_p = CTX.divide(ln_p, ln_r)
        q = CTX.divide(ln_c, ln_r)
    return GainReport(
        B * y ** n, P, R, CTX.divide(ln_c, ln_p), g_p, q,
        ga_min, ga_min, strong, ultra, custom, k1, s.triviality,
    )


def compute_gains(
    s: Solution, *, budget: int | None = None, q_max_custom: QMax | None = None,
    sums: tuple | None = None,
) -> GainReport:
    """Full GainReport for a valid Solution.

    G_a, G_p and q are computed independently from the three logarithms, so
    the q = G_a*G_p identity stays a genuine cross-check downstream.
    ln P and ln R are sums of cached prime logs, held as integers at scale
    10**80 with proven error bounds, and both are taken in one pass over
    the factorization (bigmath.ln_sums); each sum ends in one integer
    rounding test (see bigmath.ln_product).  ln C = ln(B*y^n) is taken
    once per (n, A, B, y) with D and the bound fields, and read here.
    A caller that has already factored the tuple passes the ln_sums of its
    primes, or those sums added up by coprime part, as sums, and gets the
    same report.  Otherwise x, y, A, B and k are factored one at a time
    within one shared budget, so one report spends at most that budget.
    Raises FactorBudgetExceeded if the radical cannot be completed.
    """
    if sums is None:
        sums = ln_sums(factorize_product((s.x, s.y, s.A, s.B, s.k), budget=budget).factors)
    return _build_report(s, sums, q_max_custom)


# Relative error bound of one math.log of an int >= 2 (see quality_below).
_LOG_ERR = 2.0 ** -51


def quality_below(s: Solution, threshold: Decimal, factorization: Factorization, *parts) -> bool:
    """True only if s's 64-digit quality q is proven below threshold.

    A float screen for threshold hunts, run before any 64-digit log.  It
    takes factorization = factorize_product((x, y, A, B, k)), or that of
    some coprime parts of P with the others' shared_part values, as the
    report's ln_sums then reads them, and tests

        ln C < t * ln R * (1 - margin),   margin = (m + 16) * 2**-52,

    with ln C = log(B) + n*log(y), ln R the sum of log(p) over the m
    primes of P, every log taken by math.log, and t = float(threshold).
    It rejects nothing when t is inf, nan or at most 0, or when ln R is 0:
    the right side is then inf, nan or at most 0.

    Proof that a rejected tuple has q < threshold.  Let u = 2**-53, the
    unit roundoff.  math.log(v) of an int v >= 2 is log(float(v)), or for
    v >= 2**1024 the log of a 53-bit mantissa plus e*log(2).  float(v) is
    correctly rounded, which moves the log by at most 1.01u < 1.5u*ln v;
    the C library's log is taken to be within one ulp (glibc's is within
    0.52), at most 2u*ln v.  So each log has relative error below
    4u = _LOG_ERR (on the mantissa path too, where ln v > 709);
    tests/test_search.py checks this bound against Decimal.ln.  Every term
    is nonnegative, so no cancellation amplifies the errors: the computed
    ln C is at least ln C*(1-4u)*(1-u)**2 (two logs, a product by n, a
    sum); the computed ln R is at most ln R*(1+4u)*(1+u)**(m-1) (m logs,
    m-1 sums, in any order: by part, then the parts' sums), and a
    compensated sum stays within that to first order; t
    is at most threshold*(1+u) when it is a normal float, float(Decimal)
    being correctly rounded; and 1 - margin and the two products add three
    roundings.  If the test holds, the right side lies between the
    computed ln C >= log(4) > 1 and inf, so t and both products are normal
    floats (ln R < 2**1022 for any value that fits in memory).  Then
    ln C*(1-4u)*(1-u)**2 < threshold*ln R*(1-margin)*(1+4u)*(1+u)**(m+3),
    so q = ln C/ln R < threshold*(1-2(m+16)u)*(1+(m+14)u) <
    threshold*(1-(m+17)u).  The report's q is the 64-digit quotient of two
    correctly rounded 64-digit logs, within 10**-62 of q relatively, so it
    is below threshold too: compute_gains' report would have been dropped.
    """
    primes = factorization.factors
    ln_r = sum(math.log(p) for p, _ in primes) + sum(part[5] for part in parts)
    m = len(primes) + sum(part[6] for part in parts)
    ln_c = math.log(s.B) + s.n * math.log(s.y)
    bound = float(threshold) * ln_r * (1.0 - (m + 16) * 2.0 ** -52)
    return ln_c < bound < math.inf


def compute_gains_partial(s: Solution) -> GainReport:
    """GainReport with R, G_p and q marked unavailable, and no custom cap.

    Used when the factorization budget was exhausted for this solution;
    G_a and all bound fields are still exact.
    """
    return _build_report(s, None, None)
