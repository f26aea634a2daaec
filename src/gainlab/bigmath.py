"""Exact big-integer arithmetic and high-precision logarithms.

Everything downstream (gains, bounds, search) is built on two guarantees
made here: integer operations are exact at any size, and natural logs of
positive integers carry 64 correctly-rounded significant digits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Context, Decimal, ROUND_HALF_EVEN
from functools import lru_cache

# Working precision for every logarithm and every derived ratio.  Display
# rounding is 6 significant digits; 64 working digits keep all comparison
# tolerances (down to 1e-45 relative) trivially safe.
LN_PRECISION = 64

CTX = Context(prec=LN_PRECISION, rounding=ROUND_HALF_EVEN)

_ZERO = Decimal(0)

# Guard digits carried by every cached logarithm (see ln_product).
LN_GUARD = 8

_WIDE = Context(prec=LN_PRECISION + LN_GUARD, rounding=ROUND_HALF_EVEN)

# Logs at the wide precision, keyed by the integers they are logs of: the
# primes of factored values and the small parameters (y, B, A*B) of the
# bound formulas.  Logs of products are sums of these and are never stored,
# so the cache grows with the distinct primes seen, not with the solutions.
# The fill is idempotent (pure function of the key).
_ln_cache: dict[int, Decimal] = {}


@dataclass(frozen=True, slots=True)
class BigLog:
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


def ipow(base: int, exp: int) -> int:
    """Exact base**exp for nonnegative integer base and exponent.

    0**0 is rejected as undefined input.
    """
    if not isinstance(base, int) or isinstance(base, bool):
        raise TypeError("ipow expects an integer base")
    if not isinstance(exp, int) or isinstance(exp, bool):
        raise TypeError("ipow expects an integer exponent")
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
    if not isinstance(v, int) or isinstance(v, bool):
        raise TypeError("nth_root_floor expects an integer")
    if not isinstance(n, int) or isinstance(n, bool):
        raise TypeError("nth_root_floor expects an integer root index")
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
    r = 1 << -(-v.bit_length() // n)
    while True:
        s = ((n - 1) * r + v // r ** (n - 1)) // n
        if s >= r:
            break
        r = s
    # Newton with integer division can land one step off; settle exactly.
    while r ** n > v:
        r -= 1
    while (r + 1) ** n <= v:
        r += 1
    return r


def ln_cached(v: int) -> Decimal:
    """ln(v) correctly rounded to LN_PRECISION + LN_GUARD digits, memoized."""
    cached = _ln_cache.get(v)
    if cached is not None:
        return cached
    if not isinstance(v, int) or isinstance(v, bool):
        raise TypeError("ln expects an integer")
    if v < 1:
        raise ValueError("ln is defined here for integers >= 1 only")
    # Decimal converts any int exactly, and ln() is correctly rounded at
    # context precision regardless of the integer's size.
    result = _ZERO if v == 1 else Decimal(v).ln(_WIDE)
    _ln_cache[v] = result
    return result


def ln_exact(v: int) -> Decimal:
    """ln(v) correctly rounded to LN_PRECISION digits, straight from v.

    Not memoized: it serves values that are never seen twice, such as the
    product of a solution whose factorization is incomplete.
    """
    return _ZERO if v == 1 else Decimal(v).ln(CTX)


def ln_product(terms) -> Decimal:
    """ln(prod b**e) correctly rounded to LN_PRECISION digits.

    terms is a sequence of (b, e) with integers b >= 1 and e >= 0, typically
    a prime factorization.  The sum of e*ln(b) over the cached wide logs is
    returned only when a rounding test proves it equal to the correctly
    rounded log; otherwise the log is taken directly (ln_exact).

    Error bound, with W = LN_PRECISION + LN_GUARD and u = 10**(1-W)/2, the
    relative error of one rounding to W digits: each term e*ln(b) reaches
    the running sum after at most two roundings (the cached log and the
    product), and the sum of N terms takes at most N-1 more.  Every term is
    nonnegative, so no cancellation amplifies these: the computed sum s and
    the true log L satisfy |s - L| <= ((1+u)**(N+1) - 1)*L, which is below
    (N+1) * 10**(1-W) * s for any N that fits in memory.  The bound err used
    below is at least that, because s < 10**(s.adjusted()+1).  Rounding is
    monotone, so if s - err and s + err round to the same LN_PRECISION-digit
    value, so does every point between them, L included.  The endpoints are
    rounded straight from their exact sums, so the test itself adds no
    error.  It fails only when a rounding boundary of LN_PRECISION digits
    lies within err of s, with odds of about 2*(N+1)*10**(65-W): one log in
    a few hundred thousand at 8 guard digits and a dozen terms.
    """
    add, mul = _WIDE.add, _WIDE.multiply
    total = _ZERO
    for b, e in terms:
        log = ln_cached(b)
        total = add(total, log if e == 1 else mul(log, e))
    if total.is_zero():
        return _ZERO
    err = Decimal(len(terms) + 1).scaleb(total.adjusted() + 2 - _WIDE.prec)
    lo = CTX.subtract(total, err)
    if lo == CTX.add(total, err):
        return lo
    return ln_exact(math.prod(b ** e for b, e in terms))


def ln_big(v: int) -> BigLog:
    """Natural log of a positive integer at full working precision."""
    return BigLog(value=ln_product(((v, 1),)), precision_digits=LN_PRECISION)


def clear_ln_cache() -> None:
    """Drop memoized logarithms (memory control for very large sweeps)."""
    _ln_cache.clear()


@lru_cache(maxsize=1024)
def _quantum(exponent: int) -> Decimal:
    """1E<exponent>, the quantum of a rounding (memoized per exponent)."""
    return Decimal((0, (1,), exponent))


def round_sig(value: Decimal, digits: int = 6) -> Decimal:
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
