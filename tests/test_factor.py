"""Factorization pipeline: correctness, radicals, budget discipline."""

import math

import pytest
import sympy
from hypothesis import example, given, strategies as st
from sympy.ntheory.primetest import mr

from gainlab import factor
from gainlab.factor import (
    BUDGET_ENV_VAR,
    FactorBudgetExceeded,
    Factorization,
    factorize,
    factorize_product,
    is_prime,
    radical_of_product,
)

# Two 13-digit primes whose product defeats trial division and forces the
# rho stage (verified prime by an independent oracle in the fixture test).
HARD_P = 1000000000039
HARD_Q = 1000000000061


def test_hard_semiprime_fixture_is_sound():
    assert sympy.isprime(HARD_P) and sympy.isprime(HARD_Q)


class TestFactorize:
    def test_square_of_eleven(self):
        assert factorize(121).factors == ((11, 2),)
        assert factorize(121).complete

    def test_one_is_empty_and_complete(self):
        f = factorize(1)
        assert f.factors == ()
        assert f.complete
        assert f.product() == 1

    def test_small_composite(self):
        assert factorize(84).factors == ((2, 2), (3, 1), (7, 1))

    def test_rejects_zero_and_negative(self):
        with pytest.raises(ValueError):
            factorize(0)
        with pytest.raises(ValueError):
            factorize(-6)

    def test_rejects_non_integers(self):
        with pytest.raises(TypeError):
            factorize(6.0)
        with pytest.raises(TypeError):
            factorize(True)

    def test_large_prime_certificate(self):
        # Cofactor far above the trial range must be certified, not assumed.
        p = 192152758208292083
        f = factorize(p)
        assert f.factors == ((p, 1),)

    def test_semiprime_needs_rho(self):
        f = factorize(HARD_P * HARD_Q)
        assert f.factors == ((HARD_P, 1), (HARD_Q, 1))

    @given(st.integers(min_value=1, max_value=10 ** 18))
    def test_reconstruction_and_certificates(self, v):
        f = factorize(v)
        assert f.complete
        assert f.product() == v
        primes = f.primes()
        assert list(primes) == sorted(primes)
        assert len(set(primes)) == len(primes)
        for p, e in f.factors:
            assert e >= 1
            assert is_prime(p)

    @given(st.integers(min_value=1, max_value=10 ** 9))
    def test_agrees_with_oracle_factorint(self, v):
        assert dict(factorize(v).factors) == sympy.factorint(v)


class TestPerfectPowers:
    """Perfect powers are settled by exact roots, without spending rho budget."""

    def test_square_of_a_prime_beyond_trial_division(self):
        f = factorize(HARD_P ** 2, budget=1000)
        assert f == Factorization(((HARD_P, 2),), True)

    def test_cube_times_a_small_prime(self):
        p = 10 ** 9 + 7
        f = factorize(5 * p ** 3, budget=0)
        assert f.factors == ((5, 1), (p, 3))

    def test_nested_and_composite_roots(self):
        assert factorize(HARD_P ** 12, budget=0).factors == ((HARD_P, 12),)
        # The composite root goes on to rho once, not once per copy.
        f = factorize((HARD_P * HARD_Q) ** 5)
        assert f.factors == ((HARD_P, 5), (HARD_Q, 5))

    def test_budget_error_keeps_the_power_of_the_cofactor(self):
        with pytest.raises(FactorBudgetExceeded) as exc:
            factorize(3 * (HARD_P * HARD_Q) ** 2, budget=10)
        assert exc.value.partial == Factorization(((3, 1),), False)
        assert exc.value.cofactor == (HARD_P * HARD_Q) ** 2

    @given(
        st.integers(min_value=10 ** 4, max_value=10 ** 12),
        st.integers(min_value=10 ** 4, max_value=10 ** 12),
        st.integers(min_value=1, max_value=7),
    )
    def test_prime_power_times_prime_agrees_with_oracle(self, a, b, e):
        p, q = sympy.nextprime(a), sympy.nextprime(b)
        v = p ** e * q
        assert dict(factorize(v).factors) == sympy.factorint(v)


SMALL_PRIMES = list(sympy.primerange(2, 10 ** 4))
BLOCK_TWO = list(sympy.primerange(100, 1000))
BLOCK_THREE = list(sympy.primerange(1000, 10 ** 4))


class TestTrialDivision:
    """The gcd-with-the-primorial trial division against sympy.factorint."""

    def agrees(self, v):
        f = factorize(v, budget=0)
        assert f.complete
        assert dict(f.factors) == sympy.factorint(v)

    def test_one(self):
        assert factorize(1) == Factorization((), True)
        self.agrees(1)

    @pytest.mark.parametrize("i, j", [(1, 0), (0, 1), (1, 1), (2, 1), (1, 2), (3, 3), (5, 1)])
    def test_products_of_the_primes_around_the_limit(self, i, j):
        # 9973 is the largest prime trial division covers, 10007 the least it does not.
        self.agrees(9973 ** i * 10007 ** j)

    @pytest.mark.parametrize(
        "v",
        [97 * 101, 101 ** 2 - 1, 101 ** 2, 997 * 1009, 1009 ** 2 - 1, 1009 ** 2,
         2 * 9973, 97 * 9973, 997 * 9973, 1013 * 9973, 2 * 3 * 1009 ** 2 * 10007],
    )
    def test_squares_of_the_least_primes_of_each_block(self, v):
        # Blocks of the small primes start at 2, 101 and 1009.
        self.agrees(v)

    @pytest.mark.parametrize("e", [1, 2, 13, 14, 63, 64, 65, 500])
    def test_powers_of_two(self, e):
        self.agrees(2 ** e)

    @pytest.mark.parametrize("e", [1, 2, 3, 7, 20])
    def test_powers_of_9973(self, e):
        self.agrees(9973 ** e)

    def test_values_around_the_prime_cofactor_rule(self):
        # A cofactor below 10^8 is taken as prime; 10^8 - 11 and 10^8 + 7 are prime.
        for v in range(10 ** 8 - 64, 10 ** 8 + 64):
            self.agrees(v)

    @given(
        st.lists(st.sampled_from((2, 3, 5, 7)), max_size=12),
        st.sampled_from(BLOCK_THREE),
        st.sampled_from(BLOCK_THREE),
        st.sampled_from(("p", "pq", "pp")),
    )
    @example([], 1009, 1009, "pp")
    @example([2, 3, 7], 1009, 1009, "pp")
    @example([], 9973, 9973, "pp")
    @example([2, 2, 5], 1009, 9973, "pq")
    @example([7], 1013, 1009, "p")
    def test_smooth_times_primes_of_the_last_block(self, smooth, p, q, shape):
        # What is left after the first two blocks is p, p*q or p^2: below,
        # at or above 1009^2, so the third block's gcd is skipped or taken.
        self.agrees(math.prod(smooth) * {"p": p, "pq": p * q, "pp": p * p}[shape])

    @given(
        st.lists(st.sampled_from((2, 3, 5, 7)), max_size=8),
        st.sampled_from(BLOCK_TWO),
        st.sampled_from(BLOCK_TWO),
    )
    @example([], 997, 991)
    @example([], 101, 101)
    def test_primes_of_the_middle_block_past_a_million(self, smooth, p, q):
        # Two primes below 1000 multiply to less than 10^6, so a power of 2
        # lifts the value past it: trial division ends after the second
        # block, with nothing left for the third block's gcd.
        m = math.prod(smooth) * p * q
        v = m << (10 ** 6 // m).bit_length()
        assert v > 10 ** 6
        self.agrees(v)

    @given(
        st.integers(min_value=10 ** 4, max_value=10 ** 8 - 12),
        st.lists(st.sampled_from(SMALL_PRIMES), max_size=10),
    )
    def test_prime_cofactor_times_smooth_part(self, a, smooth):
        p = sympy.nextprime(a)
        assert 10 ** 4 <= p < 10 ** 8
        self.agrees(p * math.prod(smooth))


# psi_j, the least strong pseudoprime to the first j prime bases.  is_prime
# runs 4, 7, 9, 12 or 13 bases below psi_4, psi_7, psi_9, psi_12 and psi_13,
# so the others are composites that a tier must still catch.
PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PSI = {
    1: 2047,
    2: 1373653,
    3: 25326001,
    4: 3215031751,
    5: 2152302898747,
    6: 3474749660383,
    7: 341550071728321,
    9: 3825123056546413051,
    12: 318665857834031151167461,
    13: 3317044064679887385961981,
}


class TestIsPrime:
    def test_known_primes(self):
        for p in (2, 3, 5, 97, 10 ** 9 + 7, HARD_P, 192152758208292083):
            assert is_prime(p)

    def test_known_composites(self):
        # 561 is a Carmichael number; 3215031751 is a strong pseudoprime
        # to bases 2, 3, 5 and 7 simultaneously.
        for c in (0, 1, 4, 561, 3215031751, HARD_P * HARD_Q):
            assert not is_prime(c)

    @pytest.mark.parametrize("j", sorted(PSI))
    def test_each_psi_is_composite(self, j):
        psi = PSI[j]
        # The fixture: a composite strong pseudoprime to the first j bases.
        assert not sympy.isprime(psi)
        assert mr(psi, PRIME_BASES[:j])
        assert not is_prime(psi)

    @pytest.mark.parametrize("psi", sorted(PSI.values()))
    def test_neighbours_of_each_psi(self, psi):
        for v in range(psi - 300, psi + 301):
            assert is_prime(v) == sympy.isprime(v), v

    @pytest.mark.parametrize("psi", sorted(PSI.values()))
    def test_primes_just_below_each_psi(self, psi):
        p = psi
        for _ in range(5):
            p = sympy.prevprime(p)
            assert is_prime(p)

    @given(st.integers(min_value=0, max_value=10 ** 25))
    def test_agrees_with_sympy_up_to_1e25(self, v):
        assert is_prime(v) == sympy.isprime(v)
        p = sympy.nextprime(v)
        assert is_prime(p)

    @given(
        st.integers(min_value=2, max_value=10 ** 13),
        st.integers(min_value=2, max_value=10 ** 13),
    )
    def test_semiprimes_up_to_1e26(self, a, b):
        assert not is_prime(sympy.nextprime(a) * sympy.nextprime(b))

    @pytest.mark.parametrize("t", [1, 1025, 100291, 1000051, 10000146, 100000131])
    def test_chernick_carmichael_numbers(self, t):
        # Chernick (1939): (6t+1)(12t+1)(18t+1) is a Carmichael number when
        # its three factors are prime, as they are for these t (one per tier).
        factors = (6 * t + 1, 12 * t + 1, 18 * t + 1)
        assert all(sympy.isprime(f) for f in factors)
        assert not is_prime(math.prod(factors))


class TestRadical:
    def test_product_of_case_study_parameters(self):
        assert factorize(25 * 128 * 3087 * 23 * 121).radical() == 53130

    def test_one(self):
        assert factorize(1).radical() == 1

    def test_small(self):
        assert factorize(84).radical() == 42

    @given(st.integers(min_value=1, max_value=10 ** 15))
    def test_divides_and_idempotent(self, v):
        r = factorize(v).radical()
        assert v % r == 0
        assert factorize(r).radical() == r

    @given(
        st.integers(min_value=1, max_value=10 ** 7),
        st.integers(min_value=1, max_value=10 ** 7),
    )
    def test_multiplicative_on_coprime_parts(self, a, b):
        if math.gcd(a, b) == 1:
            assert factorize(a * b).radical() == factorize(a).radical() * factorize(b).radical()

    def test_sweep_against_sieve_oracle_below_one_million(self):
        # Independent oracle: smallest-prime-factor sieve, no shared code.
        limit = 10 ** 6
        spf = list(range(limit + 1))
        for p in range(2, math.isqrt(limit) + 1):
            if spf[p] == p:
                for m in range(p * p, limit + 1, p):
                    if spf[m] == m:
                        spf[m] = p
        for v in range(1, limit + 1):
            expected = 1
            t = v
            while t > 1:
                p = spf[t]
                expected *= p
                while t % p == 0:
                    t //= p
            assert factorize(v).radical() == expected


class TestRadicalOfProduct:
    def test_shared_primes_collapse(self):
        # 9 and 3 share the prime 3; the union must count it once.
        assert radical_of_product((9, 3, 2)) == 6

    def test_matches_direct_radical(self):
        parts = (25, 128, 3087, 23, 121)
        v = math.prod(parts)
        assert radical_of_product(parts) == factorize(v).radical() == 53130


class TestFactorizeProduct:
    def test_exponents_of_shared_primes_add(self):
        f = factorize_product((12, 18, 1, 35))
        assert f == Factorization(((2, 3), (3, 3), (5, 1), (7, 1)), True)
        assert f.product() == 12 * 18 * 35
        assert f.radical() == 210

    @given(st.lists(st.integers(min_value=1, max_value=10 ** 12), max_size=6))
    def test_matches_factorization_of_the_product(self, parts):
        assert factorize_product(parts) == factorize(math.prod(parts))

    def test_rejects_non_integers_after_their_int_is_memoized(self):
        # 2.0 and True hash and compare equal to 2 and 1.
        factorize_product((1, 2))
        assert 1 in factor._cache and 2 in factor._cache
        for v in (2.0, True):
            with pytest.raises(TypeError):
                factorize_product((v,))

    def test_memoizes_only_what_trial_division_settles(self):
        factorize_product((9999, 10 ** 4, HARD_P * HARD_Q))
        assert 9999 in factor._cache
        assert 10 ** 4 not in factor._cache and HARD_P * HARD_Q not in factor._cache


class TestBudget:
    def test_budget_exceeded_carries_partial_and_cofactor(self):
        n = HARD_P * HARD_Q * 4
        with pytest.raises(FactorBudgetExceeded) as exc:
            factorize(n, budget=10)
        err = exc.value
        assert err.value == n
        assert err.partial == Factorization(((2, 2),), False)
        assert err.cofactor == HARD_P * HARD_Q

    def test_budget_runs_out_with_a_split_part_pending(self):
        # The first rho call splits off 10000103 and the second, on
        # 10000019 * 10000079, runs out: the pending part goes back into
        # the cofactor.
        v = 10000019 * 10000079 * 10000103
        with pytest.raises(FactorBudgetExceeded) as exc:
            factorize(v, budget=10_000)
        assert exc.value.partial == Factorization((), False)
        assert exc.value.cofactor == v

    def test_message_past_the_int_to_str_digit_limit(self):
        # v has 4,540 digits, past Python's default int-to-str limit of
        # 4,300: the message gives its bit length, the cofactor in full.
        v = 2 ** 15000 * HARD_P * HARD_Q
        with pytest.raises(FactorBudgetExceeded) as exc:
            factorize(v, budget=0)
        assert exc.value.cofactor == HARD_P * HARD_Q
        assert f"<{v.bit_length()}-bit integer>" in str(exc.value)
        assert str(HARD_P * HARD_Q) in str(exc.value)

    def test_radical_propagates(self):
        with pytest.raises(FactorBudgetExceeded):
            factorize(HARD_P * HARD_Q, budget=10).radical()

    def test_env_var_controls_default(self, monkeypatch):
        monkeypatch.setenv(BUDGET_ENV_VAR, "10")
        with pytest.raises(FactorBudgetExceeded):
            factorize(HARD_P * HARD_Q)
        monkeypatch.setenv(BUDGET_ENV_VAR, "100000000")
        assert factorize(HARD_P * HARD_Q).complete

    def test_env_var_rejects_garbage(self, monkeypatch):
        monkeypatch.setenv(BUDGET_ENV_VAR, "lots")
        with pytest.raises(ValueError):
            factorize(HARD_P * HARD_Q)

    def test_earlier_success_does_not_lift_the_budget(self):
        assert factorize(HARD_P * HARD_Q).complete
        # Nothing is memoized: a zero budget fails whatever was factored before.
        with pytest.raises(FactorBudgetExceeded):
            factorize(HARD_P * HARD_Q, budget=0)


class TestSharedBudget:
    """One factorize_product call spends one budget across its components."""

    # 10007 * 10037: both primes lie just above the trial division limit,
    # so splitting it takes rho.
    HARD_K = 10007 * 10037

    def least_budget(self) -> int:
        lo, hi = 0, 10 ** 6
        assert factorize(self.HARD_K, budget=hi).complete
        while lo < hi:
            mid = (lo + hi) // 2
            try:
                factorize(self.HARD_K, budget=mid)
            except FactorBudgetExceeded:
                lo = mid + 1
            else:
                hi = mid
        return lo

    def test_components_share_the_budget(self):
        m = self.least_budget()
        assert m > 0
        with pytest.raises(FactorBudgetExceeded) as exc:
            factorize_product((self.HARD_K, self.HARD_K), budget=m)
        # The component that ran out, with its own partial and cofactor.
        assert exc.value.value == self.HARD_K
        assert exc.value.partial == Factorization((), False)
        assert exc.value.cofactor == self.HARD_K
        f = factorize_product((self.HARD_K, self.HARD_K), budget=2 * m)
        assert f == Factorization(((10007, 2), (10037, 2)), True)

    def test_radical_of_product_shares_it_too(self):
        m = self.least_budget()
        with pytest.raises(FactorBudgetExceeded):
            radical_of_product((self.HARD_K, 3, self.HARD_K), budget=m)
        assert radical_of_product((self.HARD_K, 3, self.HARD_K), budget=2 * m) == 3 * self.HARD_K

    def test_setting_is_read_once_per_call(self, monkeypatch):
        m = self.least_budget()
        monkeypatch.setenv(BUDGET_ENV_VAR, str(m))
        with pytest.raises(FactorBudgetExceeded):
            factorize_product((self.HARD_K, self.HARD_K))
        monkeypatch.setenv(BUDGET_ENV_VAR, str(2 * m))
        assert factorize_product((self.HARD_K, self.HARD_K)).complete


class TestTwoPrimeRule:
    """A threshold hunt reads a rough cofactor below 10**12 from one isqrt.

    What trial division leaves has no prime factor below 10**4, so below
    10**12 it is p, p*q or p**2, and _Trialled.radical takes no
    Miller-Rabin test and no rho step on it.
    """

    rough_primes = st.integers(10007, 10 ** 6 - 1).map(lambda v: sympy.prevprime(v + 1))

    @staticmethod
    def refuse(*args):
        raise AssertionError("split stage reached")

    @given(
        st.one_of(
            rough_primes.map(lambda p: (p,)),
            rough_primes.map(lambda p: (p, p)),
            st.tuples(rough_primes, rough_primes).filter(lambda pq: pq[0] != pq[1]),
        ),
        st.tuples(*[st.integers(0, 8)] * 4),
    )
    @example((999983, 999979), (0, 0, 0, 0))  # the largest p*q below 10**12
    @example((10007, 10007), (1, 0, 0, 0))
    # At least 10**12, so the rule must not read them: p*q*r and p**2*q,
    # whose isqrt is no root.
    @example((10007, 10009, 10037), (0, 0, 0, 0))
    @example((10007, 10007, 10009), (0, 1, 0, 1))
    def test_radical_agrees_with_sympy(self, rough, exponents):
        t = math.prod(rough)
        k = t * math.prod(p ** e for p, e in zip((2, 3, 5, 7), exponents))
        expected = math.prod(sympy.primefactors(k))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(factor, "_brent_rho", self.refuse)
            patch.setattr(factor, "is_prime", self.refuse)
            if t < 10 ** 12:
                assert factor._Trialled((k,), None).radical == expected
            else:
                with pytest.raises(AssertionError, match="split stage"):
                    factor._Trialled((k,), None)
        trialled = factor._Trialled((k,), None)
        assert trialled.radical == expected
        # A kept tuple resumes from the held cofactors to the same factors.
        assert factorize_product(trialled) == factorize(k)

    def test_components_may_share_primes(self):
        p, q = 10007, 10009
        trialled = factor._Trialled((p * q, 6 * q * q, p), None)
        assert trialled.radical == 6 * p * q
        assert factorize_product(trialled) == factorize_product((p * q, 6 * q * q, p))

    def test_one_budget_for_both_stages(self):
        # 10007 * 10037 * 10**6: the rule reads its radical with no rho
        # step, and the resumed split spends the budget factorize_product
        # would.
        k = 10007 * 10037 * 10 ** 6
        m = TestSharedBudget().least_budget()
        assert factor._Trialled((k,), 0).radical == 10 * 10007 * 10037
        with pytest.raises(FactorBudgetExceeded):
            factorize_product(factor._Trialled((k, k), m))
        assert factorize_product(factor._Trialled((k, k), 2 * m)) == factorize_product((k, k))
