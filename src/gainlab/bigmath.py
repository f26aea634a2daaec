"""Exact big-integer arithmetic and high-precision logarithms.

Everything downstream (gains, bounds, search) is built on two guarantees
made here: integer operations are exact at any size, and natural logs of
positive integers carry 64 correctly-rounded significant digits.
"""

from __future__ import annotations

import math
from decimal import Context, Decimal, ROUND_HALF_EVEN
from functools import lru_cache
from typing import NamedTuple

# Working precision for every logarithm and every derived ratio.  Display
# rounding is 6 significant digits; 64 working digits keep all comparison
# tolerances (down to 1e-45 relative) trivially safe.
LN_PRECISION = 64

CTX = Context(prec=LN_PRECISION, rounding=ROUND_HALF_EVEN)

_ZERO = Decimal(0)

# Cached logs are integers at scale 10**LN_SCALE: 16 digits below the last
# of the 64 that any log of an integer >= 2 keeps (ln 2 > 0.1).
LN_SCALE = 80

# Error bound, in units of 10**-LN_SCALE, of each value computed afresh
# rather than summed from cached logs: one 2*atanh(1/m) series, or one
# Decimal.ln of a key above _RECURRENCE_LIMIT.
_LEAF_ERR = 1

# Extra digits the atanh series and the Decimal.ln conversions carry before
# they are rounded to LN_SCALE digits (see ln_product).
_LEAF_GUARD = 3

# Keys up to this limit are split by factor.factorize, which needs trial
# division alone there (a cofactor below 10**8 is prime): no rho step and
# no budget.
_RECURRENCE_LIMIT = 10 ** 8

# Logs as (value, err) with |value - ln(key) * 10**LN_SCALE| <= err, keyed
# by the integers they are logs of: the primes of factored values, the
# small parameters (y, B, A*B) of the bound formulas, and the primes the
# p - 1 recurrence reaches from either.  Logs of products are sums of
# these and are never stored, so the cache grows with the distinct primes
# seen, not with the solutions.  The fill is idempotent (pure function of
# the key).
_ln_cache: dict[int, tuple[int, int]] = {}


class BigLog(NamedTuple):
    """Natural logarithm of a positive integer.

    value is correctly rounded at ``precision_digits`` significant decimal
    digits; relative error is at most 10**(1 - precision_digits).
    """

    value: Decimal
    precision_digits: int


def int_text(v: int) -> str:
    """str(v), or its bit length when v has more digits than str() allows."""
    try:
        return str(v)
    except ValueError:
        return f"{'-' if v < 0 else ''}<{v.bit_length()}-bit integer>"


def require_int(name: str, v) -> None:
    """Raise TypeError unless v is an int; a bool is not one."""
    if not isinstance(v, int) or isinstance(v, bool):
        raise TypeError(f"{name} must be an integer, got {type(v).__name__}")


def ipow(base: int, exp: int) -> int:
    """Exact base**exp for nonnegative integer base and exponent.

    0**0 is rejected as undefined input.
    """
    require_int("base", base)
    require_int("exp", exp)
    if base < 0:
        raise ValueError("ipow expects a nonnegative base")
    if exp < 0:
        raise ValueError("ipow expects a nonnegative exponent")
    if base == 0 and exp == 0:
        raise ValueError("0**0 is undefined")
    return base ** exp


def nth_root_floor(v: int, n: int) -> int:
    """Largest r with r**n <= v, exact for any size of v.

    Floating point is never consulted; the seed comes from the bit length
    and integer Newton iteration finishes on the exact floor condition.
    """
    require_int("v", v)
    require_int("n", n)
    if n < 1:
        raise ValueError("root index must be >= 1")
    if v < 0:
        raise ValueError("nth_root_floor expects a nonnegative integer")
    if v == 0:
        return 0
    if n == 1:
        return v
    if n == 2:
        return math.isqrt(v)
    if v.bit_length() <= n:
        # 1**n <= v < 2**n
        return 1
    # Seed strictly above the true root: 2**ceil(bits/n) >= 2**(bits/n) > root.
    # Each step s is >= the floor R by AM-GM, and while r > R, r**n > v makes
    # s < r: so r falls strictly to R, where s >= r ends the loop.
    r = 1 << -(-v.bit_length() // n)
    while True:
        s = ((n - 1) * r + v // r ** (n - 1)) // n
        if s >= r:
            return r
        r = s


def ln_cached(v: int) -> tuple[int, int]:
    """(value, err) with |value - ln(v) * 10**LN_SCALE| <= err, memoized.

    See ln_product for how the pair is built and why the bound holds.
    """
    cached = _ln_cache.get(v)
    if cached is not None:
        return cached
    require_int("v", v)
    if v < 1:
        raise ValueError("ln is defined here for integers >= 1 only")
    return _ln_fill(v)


def _ln_fill(v: int) -> tuple[int, int]:
    """Compute, cache and return ln_cached(v) for an integer v >= 1."""
    if v == 1:
        result = (0, 0)
    elif v <= _RECURRENCE_LIMIT:
        value, err = ln_sums(factor.factorize(v - 1).factors)[:2]
        result = (value + _two_atanh_inv(2 * v - 1), err + _LEAF_ERR)
    else:
        # Decimal converts any int exactly and ln() is correctly rounded;
        # ln(v) < v.bit_length(), so the result has _LEAF_GUARD digits
        # below 10**-LN_SCALE.
        digits = LN_SCALE + _LEAF_GUARD + len(str(v.bit_length()))
        ctx = Context(prec=digits, rounding=ROUND_HALF_EVEN)
        result = (round(Decimal(v).ln(ctx).scaleb(LN_SCALE, ctx)), _LEAF_ERR)
    _ln_cache[v] = result
    return result


def ln_sums(factors, *parts) -> tuple[int, int, int, int, int]:
    """Over ((q, e), ...): sums of e*ln_cached(q) and ln_cached(q), values and bounds, and prod q.

    Each of parts, which starts with these five for primes not in factors,
    is added in.
    """
    value = err = r_value = r_err = 0
    radical = 1
    for q, e in factors:
        v, d = _ln_cache.get(q) or ln_cached(q)
        value += e * v
        err += e * d
        r_value += v
        r_err += d
        radical *= q
    for v, d, rv, rd, r, *_ in parts:
        value, err, r_value, r_err = value + v, err + d, r_value + rv, r_err + rd
        radical *= r
    return value, err, r_value, r_err, radical


def _two_atanh_inv(m: int) -> int:
    """2*atanh(1/m) * 10**LN_SCALE within _LEAF_ERR, for odd m >= 3."""
    guard = 10 ** _LEAF_GUARD
    m2 = m * m
    t, total, k = 10 ** LN_SCALE * guard // m, 0, 1
    while t:
        total += t // k
        t //= m2
        k += 2
    return (2 * total + guard // 2) // guard


def ln_exact(v: int) -> Decimal:
    """ln(v) correctly rounded to LN_PRECISION digits, straight from v.

    Not memoized: it serves values that are never seen twice, such as the
    product of a solution whose factorization is incomplete.
    """
    return _ZERO if v == 1 else Decimal(v).ln(CTX)


def ln_product(terms) -> Decimal:
    """ln(prod b**e) correctly rounded to LN_PRECISION digits.

    terms is a sequence of (b, e) with integers b >= 1 and e >= 0, typically
    a prime factorization.  It is ln_sums' first sum, of e*ln(b) over the
    cached logs with its error bound, and then _ln_rounded, a rounding test
    that returns the sum only when it proves it equal to the correctly
    rounded log; otherwise the log is taken directly (ln_exact).

    Error bounds, in units of 10**-LN_SCALE (S = 10**LN_SCALE).  Each
    cached pair (v, d) has |v - S*ln b| <= d:
    - A leaf log is within _LEAF_ERR = 1.  The series of 2*atanh(1/m),
      m = 2p - 1, runs at scale S' = 10**_LEAF_GUARD * S: t_j =
      floor(S'/m**(2j+1)) comes exactly from t_0 = S' // m by repeated
      floor division by m*m, and t_j // (2j+1) is the floor of the j-th
      term, so the J terms taken lose less than J in all; the loop stops
      at t_J = 0, so the tail is below (1/3)*(9/8) = 3/8.  Doubled, the sum
      is low by less than 2J + 3/4 <= 175 units of 10**-(LN_SCALE + 3)
      (3**(2J-1) <= S' gives J <= 87), and rounding to scale S adds at most
      half a unit: under 0.68 in all.  A key above _RECURRENCE_LIMIT takes
      Decimal.ln at a precision that leaves _LEAF_GUARD digits below S
      (error 5e-4), rounded to an integer (error 1/2).
    - A key 2 <= p <= _RECURRENCE_LIMIT is ln(p - 1) + 2*atanh(1/(2p-1)),
      exact for every integer p, prime or not, as p/(p-1) = (1 + 1/m)/
      (1 - 1/m), so no primality test is taken; its bound is the sum of
      e*d over the factorization of p - 1 plus _LEAF_ERR.  ln 2 is the
      case p = 2, with ln 1 = 0 exactly.  The error so grows by one unit
      per atanh in the tree of p - 1 factorizations below p, weighted by
      the exponents; by induction every bound d is at most its key (e*q
      summed over a factorization is at most the product of the q**e).
      Each p - 1 is below 10**8, which factorize splits by trial division
      alone.

    Here the integer sums V = sum e*v and E = sum e*d give
    |V - S*L| <= E for L = ln(prod b**e).  A term with b >= 2 and e >= 1
    adds e*(v - d) >= S*ln 2 - 2*10**8 > 10**79 to lo = V - E (d is at most
    10**8 below the limit and 1 above it), so lo has at least 80 digits.
    With unit = 10**(digits of lo - LN_PRECISION), lo and hi = V + E are
    rounded half up to multiples of unit; if they agree at q, then S*L lies
    in [(q - 1/2)*unit, (q + 1/2)*unit) and has as many digits as lo, so q
    holds its LN_PRECISION-digit rounding (L is irrational, so never a
    tie, and a carry to 10**LN_PRECISION is renormalized by CTX).  The test
    fails only when a rounding boundary lies within E of V, about 2E/unit
    of the time: unit is at least 10**16, and E is a few hundred units for
    a search's logs.

    ln_power_and_radical reads both sums of ln_sums, of a factorization
    and of its radical, and ends each in the same _ln_rounded test.
    """
    result = _ln_rounded(*ln_sums(terms)[:2])
    return ln_exact(math.prod(b ** e for b, e in terms)) if result is None else result


def _ln_rounded(value: int, err: int) -> Decimal | None:
    """The rounding test of ln_product on one pair of ln_sums, V = value and E = err.

    Returns the LN_PRECISION-digit log the test proves, or None when it
    fails and the caller must take the log directly.
    """
    if not value:
        return _ZERO
    lo = value - err
    digits = len(str(lo))
    unit = 10 ** (digits - LN_PRECISION)
    half = unit >> 1
    rounded = (lo + half) // unit
    if rounded == (value + err + half) // unit:
        return Decimal(rounded).scaleb(digits - LN_PRECISION - LN_SCALE, CTX)
    return None


def ln_power_and_radical(sums, P: int) -> tuple[Decimal, Decimal]:
    """(ln P, ln R) from sums = ln_sums(factors), for P = prod p**e and R = prod p.

    Equal to (ln_product(factors), ln_product(((p, 1), ...))); a sum that
    fails the rounding test is taken directly from P or R.
    """
    value, err, r_value, r_err, R = sums
    ln_p, ln_r = _ln_rounded(value, err), _ln_rounded(r_value, r_err)
    return ln_exact(P) if ln_p is None else ln_p, ln_exact(R) if ln_r is None else ln_r


def ln_big(v: int) -> BigLog:
    """Natural log of a positive integer at full working precision."""
    # Checked before ln_cached's lookup, where 2.0 and True find 2 and 1.
    require_int("v", v)
    return BigLog(value=ln_product(((v, 1),)), precision_digits=LN_PRECISION)


def clear_ln_cache() -> None:
    """Drop memoized logarithms (memory control for very large sweeps)."""
    _ln_cache.clear()


@lru_cache(maxsize=1024)
def _quantum(exponent: int) -> Decimal:
    """1E<exponent>, the quantum of a rounding (memoized per exponent)."""
    return Decimal((0, (1,), exponent))


# Significant digits of every displayed real.
DISPLAY_DIGITS = 6


def round_sig(value: Decimal, digits: int = DISPLAY_DIGITS) -> Decimal:
    """Round to ``digits`` significant decimal digits, round-half-even.

    Used only for display; full-precision values are kept internally.
    A carry keeps the exponent of the unrounded value: 9.9999951 gives
    10.00000 at six digits.
    """
    if digits < 1:
        raise ValueError("need at least one significant digit")
    if value.is_zero():
        return _ZERO
    return value.quantize(_quantum(value.adjusted() - digits + 1), context=CTX)


def display(value: Decimal | None) -> str | None:
    """value as plain decimal text at DISPLAY_DIGITS significant digits; None stays None."""
    if value is None:
        return None
    r = round_sig(value, DISPLAY_DIGITS)
    # format(r, "f") is plain decimal at any magnitude; the faster str gives
    # the same text while r's exponent is <= 0 and adjusted exponent >= -6.
    return str(r) if -6 <= r.adjusted() < DISPLAY_DIGITS else format(r, "f")


# factor and this module import each other.  Bound last, as the module and
# not its function, this works whichever is imported first: factor finds
# every name it reads from here defined, and the fill reads factor.factorize
# when it runs, by which time factor is complete.
from . import factor
