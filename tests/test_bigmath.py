"""Numeric substrate: exact roots and powers, certified-precision logs.

Frozen reference values were computed with an independent high-precision
oracle (mpmath at 60 significant digits) and pasted here as strings.
"""

import math
from decimal import Context, Decimal, ROUND_DOWN, ROUND_HALF_EVEN, localcontext

import pytest
import sympy
from hypothesis import example, given, strategies as st

from gainlab import bigmath, factor
from gainlab.bigmath import (
    BigLog,
    CTX,
    LN_PRECISION,
    LN_SCALE,
    clear_ln_cache,
    ipow,
    ln_big,
    ln_cached,
    ln_power_and_radical,
    ln_product,
    ln_sums,
    nth_root_floor,
    round_sig,
)
from gainlab.factor import BUDGET_ENV_VAR

# Independent oracle values (50 significant digits).
LN_84 = Decimal("4.4308167988433136153350622232820585704355755561251")
LN_53130 = Decimal("10.880497019444988915387285844825395060149763944811")

ABS_TOL = Decimal("1e-45")

HARD_PRIME = 1000000000039


class TestIpow:
    def test_reyssat_power(self):
        assert ipow(23, 5) == 6436343
        assert 109 * ipow(9, 5) + 2 == 6436343

    def test_exponent_one(self):
        assert ipow(7, 1) == 7

    def test_cube(self):
        assert ipow(128, 3) == 2097152

    def test_zero_base_positive_exponent(self):
        assert ipow(0, 5) == 0

    def test_exponent_zero(self):
        assert ipow(5, 0) == 1

    def test_rejects_zero_to_the_zero(self):
        with pytest.raises(ValueError):
            ipow(0, 0)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            ipow(-2, 3)
        with pytest.raises(ValueError):
            ipow(2, -3)


class TestNthRootFloor:
    def test_exact_cube(self):
        assert nth_root_floor(8, 3) == 2

    def test_reyssat_fifth_root(self):
        assert nth_root_floor(6436343, 5) == 23

    def test_between_powers(self):
        # 2^4 = 16 <= 80 < 81 = 3^4.
        assert nth_root_floor(80, 4) == 2

    def test_edges(self):
        assert nth_root_floor(0, 7) == 0
        assert nth_root_floor(1, 7) == 1
        assert nth_root_floor(123456, 1) == 123456

    def test_rejects_bad_index(self):
        with pytest.raises(ValueError):
            nth_root_floor(10, 0)
        with pytest.raises(ValueError):
            nth_root_floor(-10, 2)

    @given(
        st.integers(min_value=0, max_value=10 ** 40),
        st.integers(min_value=1, max_value=64),
    )
    def test_floor_condition_exact(self, v, n):
        r = nth_root_floor(v, n)
        assert ipow(r, n) <= v
        assert ipow(r + 1, n) > v

    @given(
        st.integers(min_value=1, max_value=10 ** 30),
        st.integers(min_value=3, max_value=64),
        st.sampled_from((-1, 0, 1)),
    )
    @example(r=2, n=3, offset=-1)
    @example(r=10 ** 30, n=64, offset=1)
    @example(r=10 ** 30 - 1, n=64, offset=-1)
    def test_floor_at_the_edges_of_a_power(self, r, n, offset):
        # v = r^n - 1, r^n, r^n + 1: the values on either side of a root.
        expected = r - 1 if offset < 0 else r
        assert nth_root_floor(r ** n + offset, n) == expected

    @given(st.integers(min_value=0, max_value=10 ** 30))
    def test_square_root_matches_isqrt(self, v):
        import math

        assert nth_root_floor(v, 2) == math.isqrt(v)


class TestLnBig:
    def test_ln_one_is_exactly_zero(self):
        assert ln_big(1).value == 0

    def test_against_oracle_values(self):
        assert abs(ln_big(84).value - LN_84) <= ABS_TOL
        assert abs(ln_big(53130).value - LN_53130) <= ABS_TOL

    def test_four_decimal_prints(self):
        assert str(round_sig(ln_big(53130).value, 6)) == "10.8805"
        assert str(round_sig(ln_big(84).value, 5)) == "4.4308"

    def test_precision_contract(self):
        log = ln_big(2)
        assert isinstance(log, BigLog)
        assert log.precision_digits == LN_PRECISION >= 50

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ln_big(0)
        with pytest.raises(ValueError):
            ln_big(-3)

    def test_rejects_non_integers_after_their_int_is_cached(self):
        # 2.0 and True hash and compare equal to 2 and 1.
        ln_big(1)
        ln_big(2)
        for v in (2.0, True):
            with pytest.raises(TypeError):
                ln_big(v)

    @given(
        st.integers(min_value=1, max_value=10 ** 30),
        st.integers(min_value=1, max_value=10 ** 30),
    )
    def test_additivity(self, a, b):
        # Sum under the package context: the ambient 28-digit default would
        # round away the precision this test is checking.
        with localcontext(CTX):
            lhs = ln_big(a * b).value
            rhs = ln_big(a).value + ln_big(b).value
            if a == b == 1:
                assert lhs == rhs == 0
            else:
                assert abs(lhs - rhs) <= Decimal("1e-45") * lhs

    @given(
        st.integers(min_value=1, max_value=10 ** 30),
        st.integers(min_value=1, max_value=10 ** 30),
    )
    def test_monotonicity(self, a, b):
        if a == b:
            assert ln_big(a).value == ln_big(b).value
        else:
            lo, hi = sorted((a, b))
            assert ln_big(lo).value < ln_big(hi).value


# Up to 12 distinct primes below 10**30 with exponents up to 300, as
# ((p, e), ...) ascending: the shape of a solution's factorization.
factorizations = st.dictionaries(
    st.integers(min_value=1, max_value=10 ** 30).map(sympy.nextprime),
    st.integers(min_value=1, max_value=300),
    min_size=1,
    max_size=12,
).map(lambda d: tuple(sorted(d.items())))


def exact_ln(terms) -> Decimal:
    return Decimal(math.prod(p ** e for p, e in terms)).ln(CTX)


@pytest.fixture
def counted_fallbacks(monkeypatch):
    """Count the direct logs ln_product falls back to."""
    calls = []
    direct = bigmath.ln_exact

    def ln_exact(v):
        calls.append(v)
        return direct(v)

    monkeypatch.setattr(bigmath, "ln_exact", ln_exact)
    return calls


# A reference 100 digits wide: 20 digits below the cached logs' scale.
REF = Context(prec=100)


def within_stated_bound(v: int) -> bool:
    """ln_cached(v) lies within its stated error bound of a wide Decimal.ln.

    The bound itself is at most 2*bit_length(v) + 1 (see ln_product).
    """
    value, err = ln_cached(v)
    reference = Decimal(v).ln(REF).scaleb(LN_SCALE, REF)
    return abs(REF.subtract(Decimal(value), reference)) <= err <= 2 * v.bit_length() + 1


class TestLnProduct:
    def test_cached_ln2_lies_within_its_bound(self):
        clear_ln_cache()
        value, err = ln_cached(2)
        assert isinstance(value, int) and err == 1
        assert within_stated_bound(2)
        assert str(ln_big(2).value) == str(Decimal(2).ln(CTX))

    def test_one_and_empty_product(self):
        assert ln_product(()) == 0
        assert ln_product(((1, 5), (7, 0))) == 0

    @given(factorizations)
    def test_matches_direct_log(self, terms):
        # Same digits and the same exponent, so the printed values agree too.
        assert str(ln_product(terms)) == str(exact_ln(terms))

    @given(factorizations)
    def test_radical_log_matches_direct_log(self, terms):
        primes = tuple((p, 1) for p, _ in terms)
        assert str(ln_product(primes)) == str(exact_ln(primes))

    def test_falls_back_when_the_rounding_test_fails(self, monkeypatch, counted_fallbacks):
        # A leaf error of 10**20 units leaves every bound wider than a unit
        # in the 64th digit, so the rounding test cannot pass and every log
        # is direct.  The cache is emptied on both sides: it must not keep
        # the wide bounds.
        clear_ln_cache()
        monkeypatch.setattr(bigmath, "_LEAF_ERR", 10 ** (LN_SCALE - LN_PRECISION + 4))
        try:
            for terms in (((2, 3), (3, 1)), ((10 ** 9 + 7, 40), (HARD_PRIME, 2))):
                assert str(ln_product(terms)) == str(exact_ln(terms))
        finally:
            clear_ln_cache()
        assert counted_fallbacks == [24, (10 ** 9 + 7) ** 40 * HARD_PRIME ** 2]

    @given(factorizations)
    def test_power_and_radical_in_one_pass(self, terms):
        P = math.prod(p ** e for p, e in terms)
        R = math.prod(p for p, _ in terms)
        # The sums of two factorizations with no prime in common add to
        # those of their merged factorization.
        cut = len(terms) // 2
        (v, e, rv, re, r), (v2, e2, rv2, re2, r2) = ln_sums(terms[:cut]), ln_sums(terms[cut:])
        sums = ln_sums(terms)
        assert (v + v2, e + e2, rv + rv2, re + re2, r * r2) == sums and sums[4] == R
        assert ln_sums(terms[:cut], ln_sums(terms[cut:])) == sums
        ln_p, ln_r = ln_power_and_radical(sums, P)
        assert str(ln_p) == str(ln_product(terms))
        assert str(ln_r) == str(ln_product(tuple((p, 1) for p, _ in terms)))

    def test_one_pass_falls_back_to_the_exact_integers(self, monkeypatch, counted_fallbacks):
        # As in test_falls_back_when_the_rounding_test_fails: every sum is
        # too wide, so both logs come straight from P and R.
        clear_ln_cache()
        monkeypatch.setattr(bigmath, "_LEAF_ERR", 10 ** (LN_SCALE - LN_PRECISION + 4))
        terms = ((10 ** 9 + 7, 40), (HARD_PRIME, 2))
        P, R = (10 ** 9 + 7) ** 40 * HARD_PRIME ** 2, (10 ** 9 + 7) * HARD_PRIME
        try:
            ln_p, ln_r = ln_power_and_radical(ln_sums(terms), P)
        finally:
            clear_ln_cache()
        assert counted_fallbacks == [P, R]
        assert str(ln_p) == str(exact_ln(terms))
        assert str(ln_r) == str(exact_ln(((10 ** 9 + 7, 1), (HARD_PRIME, 1))))

    def test_sums_hold_for_any_cached_log_within_its_bound(self):
        # The rounding test may rest on the stated bounds alone: with the
        # logs of 2 and 3 moved 10**17 units up and their bounds widened to
        # match, every sum must still be correctly rounded.
        clear_ln_cache()
        shift = 10 ** 17
        for p in (2, 3):
            value, err = ln_cached(p)
            bigmath._ln_cache[p] = (value + shift, err + shift)
        try:
            for e in range(1, 400):
                terms = ((2, e), (3, e))
                assert str(ln_product(terms)) == str(exact_ln(terms)), e
        finally:
            clear_ln_cache()

    def test_proven_sums_need_no_fallback(self, counted_fallbacks):
        for terms in (((2, 3), (3, 1)), ((10 ** 9 + 7, 40), (HARD_PRIME, 2))):
            assert str(ln_product(terms)) == str(exact_ln(terms))
        assert counted_fallbacks == []


# Primes up to 10**8, with the largest one.
primes_to_10_8 = st.integers(min_value=3, max_value=10 ** 8).map(sympy.prevprime)
# The first primes above 10**8, far past the stored domain.
PAST_10_8 = [sympy.nextprime(10 ** 8, i) for i in range(1, 11)]
# The least key whose log is not stored, and a prime of 1,001 bits.
DOMAIN = 1 << bigmath._LN_BITS
PRIME_1001_BITS = sympy.nextprime(2 ** 1000)


class TestCachedLogs:
    """Differential tests of the fixed-point logs against Decimal.ln."""

    def test_every_prime_below_10_5(self):
        clear_ln_cache()
        for p in sympy.primerange(2, 10 ** 5):
            assert within_stated_bound(p), p
            assert str(ln_product(((p, 1),))) == str(Decimal(p).ln(CTX)), p

    @given(primes_to_10_8)
    @example(2)
    @example(3)
    @example(99999989)
    def test_primes_up_to_10_8(self, p):
        assert within_stated_bound(p)
        assert str(ln_product(((p, 1),))) == str(Decimal(p).ln(CTX))

    @pytest.mark.parametrize(
        "p", PAST_10_8 + [2 ** 61 - 1, HARD_PRIME, pytest.param(PRIME_1001_BITS, id="p1001")]
    )
    def test_primes_above_the_recurrence_limit(self, p):
        # Keys past 2**_LN_BITS: read from their top bits, never stored.
        assert within_stated_bound(p)
        assert str(ln_product(((p, 1),))) == str(Decimal(p).ln(CTX))

    @pytest.mark.parametrize(
        "v",
        [1, 4, 2 ** 26, 3 ** 16, 10 ** 8, 2 * 49999991, 10 ** 8 + 2, DOMAIN - 1, DOMAIN, DOMAIN + 1],
    )
    def test_composite_keys(self, v):
        assert within_stated_bound(v)
        assert str(ln_big(v).value) == str(Decimal(v).ln(CTX))

    @given(
        st.dictionaries(
            primes_to_10_8 | st.sampled_from(PAST_10_8),
            st.integers(min_value=1, max_value=1000),
            min_size=1,
            max_size=8,
        ).map(lambda d: tuple(sorted(d.items())))
    )
    @example(((2, 1000),))
    @example(((2, 999), (3, 1000), (5, 997), (99999989, 1000), (PAST_10_8[0], 1000)))
    def test_products_with_repeated_factors(self, terms):
        assert str(ln_product(terms)) == str(exact_ln(terms))
        primes = tuple((p, 1) for p, _ in terms)
        assert str(ln_product(primes)) == str(exact_ln(primes))

    @pytest.mark.parametrize("v", [1_000_003, 2 * 49999991, 10 ** 8])
    def test_each_fill_makes_no_factor_call(self, monkeypatch, v):
        # A log is read from the logs of 2 and of v's top _LN_BITS bits,
        # and only those and the halvings of the top bits are stored.
        def no_call(*args):
            raise AssertionError("a log fill called factor")

        for name in ("factorize", "_factorize", "factorize_product", "is_prime"):
            monkeypatch.setattr(factor, name, no_call)
        clear_ln_cache()
        ln_cached(v)
        top = v >> (v.bit_length() - bigmath._LN_BITS)
        assert top in bigmath._ln_cache
        assert set(bigmath._ln_cache) <= {top >> i for i in range(bigmath._LN_BITS)} | {2}
        assert within_stated_bound(v)

    def test_recurrence_spends_no_factor_budget(self, monkeypatch):
        # Logs are taken from the top bits of their keys, with no factoring:
        # nothing is memoized and a zero budget is never reached.
        monkeypatch.setenv(BUDGET_ENV_VAR, "0")
        clear_ln_cache()
        before = dict(factor._cache)
        safe = [p for p in sympy.primerange(10 ** 8 - 20000, 10 ** 8) if sympy.isprime(p // 2)]
        assert safe
        for v in safe + list(sympy.primerange(10 ** 8 - 300, 10 ** 8)) + [2 ** 26, 10 ** 8]:
            ln_cached(v)
        assert factor._cache == before


class TestRoundSig:
    def test_six_significant_digits(self):
        assert str(round_sig(Decimal("1.6299116841270481846"), 6)) == "1.62991"

    def test_half_even_tie(self):
        assert str(round_sig(Decimal("1.234565"), 6)) == "1.23456"
        assert str(round_sig(Decimal("1.234575"), 6)) == "1.23458"

    def test_zero(self):
        assert round_sig(Decimal(0), 6) == 0

    def test_small_magnitude(self):
        assert str(round_sig(Decimal("0.47901912075"), 6)) == "0.479019"

    def test_rejects_no_digits(self):
        with pytest.raises(ValueError):
            round_sig(Decimal(1), 0)

    def test_carry_keeps_the_unrounded_exponent(self):
        assert str(round_sig(Decimal("9.9999951"), 6)) == "10.00000"
        assert str(round_sig(Decimal("0.000999999501"), 6)) == "0.001000000"
        assert str(round_sig(Decimal("-9.9999951"), 6)) == "-10.00000"
        assert str(round_sig(Decimal("1.5"), 6)) == "1.50000"

    def test_ignores_the_callers_context(self):
        with localcontext(Context(prec=3, rounding=ROUND_DOWN)):
            assert str(round_sig(Decimal("1.2345651"), 6)) == "1.23457"
            assert str(round_sig(Decimal("1.234565"), 6)) == "1.23456"

    @given(
        sign=st.integers(0, 1),
        coefficient=st.integers(0, 10 ** 70),
        tie_zeros=st.none() | st.integers(0, 30),
        exponent=st.integers(-30, 30) | st.integers(-10 ** 5, 10 ** 5),
        digits=st.integers(1, 20),
    )
    @example(sign=0, coefficient=15, tie_zeros=None, exponent=-1, digits=6)
    @example(sign=0, coefficient=99999951, tie_zeros=None, exponent=-7, digits=6)
    @example(sign=0, coefficient=999999501, tie_zeros=None, exponent=-12, digits=6)
    @example(sign=1, coefficient=99999951, tie_zeros=None, exponent=-7, digits=6)
    @example(sign=1, coefficient=0, tie_zeros=None, exponent=-7, digits=6)
    @example(sign=0, coefficient=123456, tie_zeros=0, exponent=-6, digits=6)
    def test_matches_the_context_scaleb_formula(self, sign, coefficient, tie_zeros, exponent, digits):
        # The oracle is the formula round_sig used before its quantum was
        # memoized: a scaleb and a quantize inside the working context.
        text = str(coefficient)
        if tie_zeros is not None:
            # A tie: the digit after the last kept one is a 5 and the rest are 0.
            text = text[:digits] + "5" + "0" * tie_zeros
        value = Decimal((sign, tuple(map(int, text)), exponent))
        if value.is_zero():
            expected = Decimal(0)
        else:
            with localcontext(CTX):
                quantum = Decimal(1).scaleb(value.adjusted() - digits + 1)
                expected = value.quantize(quantum, rounding=ROUND_HALF_EVEN)
        assert round_sig(value, digits).as_tuple() == expected.as_tuple()
