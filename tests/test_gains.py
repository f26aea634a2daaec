"""Validation, gains, quality, and bound formulas.

Frozen reference values were computed with an independent high-precision
oracle (mpmath at 60 significant digits) and pasted here as strings.
"""

import math
from decimal import Context, Decimal, localcontext

import pytest
from hypothesis import example, given, strategies as st

from gainlab import gains
from gainlab.bigmath import CTX, ipow, ln_exact, ln_product
from gainlab.gains import (
    COPRIMALITY_VIOLATION,
    IDENTITY_VIOLATION,
    NON_TRIVIAL,
    QMAX_RANGE,
    QMAX_STRONG,
    QMAX_ULTRA,
    QMax,
    RANGE_VIOLATION,
    Solution,
    SolutionError,
    TRIVIAL_X,
    check_solution,
    compute_gains,
    compute_gains_partial,
    custom_qmax,
    ga_lower_bound,
    gp_upper_bound,
    k1_quality_bound,
    max_admissible_exponent,
    q_lower_bound,
    validate_solution,
)

ABS_TOL = Decimal("1e-45")
REL_TOL = Decimal("1e-40")
# A 64-digit value within a few units of its last digit.
BOUND_REL_TOL = Decimal("1e-62")

# (n, x, y, A, B, k) for the three worked examples used throughout.
REYSSAT = (5, 9, 23, 109, 1, 2)
DEWEGER = (3, 25, 128, 3087, 23, 121)
SMALL = (2, 3, 4, 1, 1, 7)

FROZEN = {
    REYSSAT: {
        "C": 6436343,
        "P": 45126,
        "R": 15042,
        "G_a": Decimal("1.4628308523291340664546629145828547311626475590144"),
        "G_p": Decimal("1.1142174650827785928002554526077511195507028541051"),
        "q": Decimal("1.6299116841270481846308600545356048822587010667363"),
    },
    DEWEGER: {
        "C": 48234496,
        "P": 27491587200,
        "R": 53130,
        "G_a": Decimal("0.73601021934237956726829532700790532550654037485284"),
        "G_p": Decimal("2.2091955755199495495703254806256245530955775091190"),
        "q": Decimal("1.6259905201086525320057595888988217279988885384525"),
    },
    SMALL: {
        "C": 16,
        "P": 84,
        "R": 42,
        "G_a": Decimal("0.62575115336828619882420019038638005836544773035629"),
        "G_p": Decimal("1.1854490234153689005420015774966787029888421887479"),
        "q": Decimal("0.74179609366147560216800630998671481195536875499146"),
    },
}

DEWEGER_GA_MIN = Decimal("0.47901912075643725248521695435838752586731749628443")
DEWEGER_GP_MAX_STRONG = Decimal("4.1751986785866171333412138225595089454706583658523")
DEWEGER_GP_MAX_ULTRA = Decimal("3.1313990089399628500059103669196317091029937743892")

# Same coefficient expressed two ways: as the printed decimal integer from
# the historical account, and as the exact product 7^2 * 41^2 * 311^3 the
# account also gives.  The two disagree, so both bound values are pinned.
NITAJ_A_PRODUCT = 7 ** 2 * 41 ** 2 * 311 ** 3
NITAJ_A_PRINTED = 2477678547009
NITAJ_GA_MIN_PRODUCT = Decimal("0.58142804404126075987548553744212847335595469841501")
NITAJ_GA_MIN_PRINTED = Decimal("0.58142804404201511064080725368346579370864487421034")
NITAJ_GP_MAX_STRONG = Decimal("3.4398065598949179126868119073618078114002066999109")
NITAJ_GP_MAX_ULTRA = Decimal("2.5798549199211884345151089305213558585501550249332")


def close(actual: Decimal, frozen: Decimal, tol: Decimal = ABS_TOL) -> bool:
    return abs(actual - frozen) <= tol


class TestValidation:
    def test_worked_examples_are_valid(self):
        for tup in (REYSSAT, DEWEGER, SMALL):
            s = validate_solution(*tup)
            assert (s.n, s.x, s.y, s.A, s.B, s.k) == tup
            assert s.triviality == NON_TRIVIAL
            assert not s.trivial_x

    def test_canonical_key_order(self):
        s = validate_solution(*DEWEGER)
        assert s.canonical_key() == (3, 121, 3087, 23, 25, 128)

    def test_check_solution_clean_report(self):
        report = check_solution(*REYSSAT)
        assert report.ok
        assert report.kinds() == ()

    def test_printed_coefficient_fails_identity(self):
        # The printed decimal coefficient does not satisfy the identity the
        # surrounding account claims for it; the exact residual is pinned.
        n, x, y, A, B, k = 59, 1, 2, NITAJ_A_PRINTED, 1, 11 ** 16 * 13 ** 2 * 79
        expected_residual = B * 2 ** 59 - A - k
        with pytest.raises(SolutionError) as exc:
            validate_solution(n, x, y, A, B, k)
        report = exc.value.report
        assert report.kinds() == (IDENTITY_VIOLATION,)
        assert report.violations[0].residual == expected_residual
        assert expected_residual == -612898385133927045032

    def test_coprimality_violation(self):
        report = check_solution(2, 2, 4, 2, 1, 8)
        assert report.kinds() == (COPRIMALITY_VIOLATION,)
        assert "gcd" in report.violations[0].detail
        assert report.violations[0].residual is None

    def test_all_violations_collected(self):
        report = check_solution(1, 1, 1, 1, 1, 1)
        kinds = report.kinds()
        assert kinds.count(RANGE_VIOLATION) == 2  # n >= 2 and y >= 2
        assert kinds.count(IDENTITY_VIOLATION) == 1
        assert not report.ok

    def test_range_floor_for_each_parameter(self):
        base = dict(n=2, x=1, y=2, A=1, B=1, k=1)
        floors = dict(n=2, x=1, y=2, A=1, B=1, k=1)
        for name, floor in floors.items():
            if floor == 1:
                bad = dict(base, **{name: 0})
                report = check_solution(**bad)
                assert RANGE_VIOLATION in report.kinds(), name

    def test_trivial_x_classification(self):
        s = validate_solution(2, 1, 3, 8, 1, 1)
        assert s.trivial_x
        assert s.triviality == TRIVIAL_X

    def test_rejects_non_integers(self):
        with pytest.raises(TypeError):
            check_solution(2.0, 3, 4, 1, 1, 7)
        with pytest.raises(TypeError):
            check_solution(2, True, 4, 1, 1, 7)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            check_solution(2, -3, 4, 1, 1, 7)

    def test_residual_past_the_int_to_str_digit_limit(self):
        # The residual has 4,352 digits, past Python's default int-to-str
        # limit of 4,300; the violation must still be reported.
        with pytest.raises(SolutionError) as exc:
            validate_solution(2000, 2, 150, 1, 1, 1)
        (violation,) = exc.value.report.violations
        assert violation.kind == IDENTITY_VIOLATION
        assert violation.residual == 150 ** 2000 - 2 ** 2000 - 1
        assert f"<{violation.residual.bit_length()}-bit integer>" in violation.detail


class TestComputeGains:
    @pytest.mark.parametrize("tup", [REYSSAT, DEWEGER, SMALL], ids=["reyssat", "deweger", "small"])
    def test_frozen_values(self, tup):
        frozen = FROZEN[tup]
        g = compute_gains(validate_solution(*tup))
        assert g.C == frozen["C"]
        assert g.P == frozen["P"]
        assert g.R == frozen["R"]
        assert close(g.G_a, frozen["G_a"])
        assert close(g.G_p, frozen["G_p"])
        assert close(g.q, frozen["q"])

    @pytest.mark.parametrize("tup", [REYSSAT, DEWEGER, SMALL], ids=["reyssat", "deweger", "small"])
    def test_quality_is_product_of_gains(self, tup):
        g = compute_gains(validate_solution(*tup))
        with localcontext(CTX):
            assert abs(g.q - g.G_a * g.G_p) <= REL_TOL * g.q

    def test_deweger_bound_fields(self):
        g = compute_gains(validate_solution(*DEWEGER))
        assert close(g.ga_min, DEWEGER_GA_MIN)
        assert close(g.q_min, DEWEGER_GA_MIN, tol=REL_TOL)
        assert close(g.gp_max_strong, DEWEGER_GP_MAX_STRONG)
        assert close(g.gp_max_ultra, DEWEGER_GP_MAX_ULTRA)
        assert g.gp_max_custom is None
        assert g.k1_q_bound == Decimal("1.5")
        assert g.triviality == NON_TRIVIAL

    @pytest.mark.parametrize("tup", [REYSSAT, DEWEGER, SMALL], ids=["reyssat", "deweger", "small"])
    def test_q_min_is_ga_min(self, tup):
        s = validate_solution(*tup)
        for g in (compute_gains(s), compute_gains_partial(s)):
            assert g.q_min == g.ga_min

    def test_custom_cap_matches_ultra_at_same_value(self):
        s = validate_solution(*DEWEGER)
        g = compute_gains(s, q_max_custom=custom_qmax("1.5"))
        assert g.gp_max_custom == g.gp_max_ultra

    def test_partial_report_fields(self):
        s = validate_solution(*DEWEGER)
        g = compute_gains_partial(s)
        assert g.R is None and g.G_p is None and g.q is None
        assert close(g.G_a, FROZEN[DEWEGER]["G_a"])
        assert close(g.ga_min, DEWEGER_GA_MIN)
        assert g.C == FROZEN[DEWEGER]["C"]
        assert g.P == FROZEN[DEWEGER]["P"]

    def test_degenerate_denominator_is_rejected(self):
        # Not constructible through validate_solution; guard the raw path.
        s = Solution(n=2, x=1, y=1, A=1, B=1, k=1)
        with pytest.raises(ValueError, match="degenerate"):
            compute_gains(s)


@pytest.fixture
def counted_logs(monkeypatch):
    """The terms of every ln_product call gains makes."""
    calls = []
    monkeypatch.setattr(gains, "ln_product", lambda terms: calls.append(terms) or ln_product(terms))
    return calls


class TestBoundFormulas:
    def test_deweger_ga_min(self):
        assert close(ga_lower_bound(3, 3087, 23, 128), DEWEGER_GA_MIN)

    def test_deweger_gp_max(self):
        assert close(gp_upper_bound(3, 3087, 23, 128, QMAX_STRONG), DEWEGER_GP_MAX_STRONG)
        assert close(gp_upper_bound(3, 3087, 23, 128, QMAX_ULTRA), DEWEGER_GP_MAX_ULTRA)

    def test_high_exponent_ga_min_both_coefficient_readings(self):
        assert close(ga_lower_bound(59, NITAJ_A_PRODUCT, 1, 2), NITAJ_GA_MIN_PRODUCT)
        assert close(ga_lower_bound(59, NITAJ_A_PRINTED, 1, 2), NITAJ_GA_MIN_PRINTED)

    def test_high_exponent_gp_max(self):
        assert close(gp_upper_bound(59, NITAJ_A_PRODUCT, 1, 2, QMAX_STRONG), NITAJ_GP_MAX_STRONG)
        assert close(gp_upper_bound(59, NITAJ_A_PRODUCT, 1, 2, QMAX_ULTRA), NITAJ_GP_MAX_ULTRA)

    def test_unit_coefficients_are_exact(self):
        assert ga_lower_bound(2, 1, 1, 2) == Decimal("0.5")
        assert q_lower_bound(2, 1, 1, 2) == Decimal("0.5")
        assert ga_lower_bound(3, 1, 1, 5) == Decimal(3) / Decimal(5)
        assert gp_upper_bound(2, 1, 1, 2, QMAX_ULTRA) == Decimal(3)
        assert gp_upper_bound(3, 1, 1, 2, QMAX_ULTRA) == Decimal("2.5")
        assert gp_upper_bound(2, 1, 1, 2, QMAX_STRONG) == Decimal(4)

    @given(
        st.integers(min_value=2, max_value=60),
        st.integers(min_value=1, max_value=10 ** 6),
        st.integers(min_value=1, max_value=10 ** 6),
        st.integers(min_value=2, max_value=10 ** 6),
    )
    def test_q_lower_equals_ga_lower(self, n, A, B, y):
        # q = G_a * G_p with G_p >= 1: the floor on G_a is the floor on q.
        assert q_lower_bound(n, A, B, y) == ga_lower_bound(n, A, B, y)

    @given(
        st.integers(min_value=2, max_value=60),
        st.integers(min_value=1, max_value=10 ** 6),
        st.integers(min_value=1, max_value=10 ** 6),
        st.integers(min_value=2, max_value=10 ** 6),
    )
    @example(2, 1, 1, 2)
    @example(59, NITAJ_A_PRODUCT, 1, 2)
    @example(3, 3087, 23, 128)
    def test_bounds_match_a_wide_reference(self, n, A, B, y):
        # D = n + 2 + (n-1) ln(AB) / ln(B y^n) at 120 digits; every bound is
        # n/D or q_max*D/n and must agree with it to the 64th digit.
        with localcontext(Context(prec=120)):
            ln_byn = n * Decimal(y).ln() + Decimal(B).ln()
            d = n + 2 + (n - 1) * Decimal(A * B).ln() / ln_byn
            expected = [
                (ga_lower_bound(n, A, B, y), n / d),
                (q_lower_bound(n, A, B, y), n / d),
                (gp_upper_bound(n, A, B, y, QMAX_STRONG), QMAX_STRONG.value * d / n),
                (gp_upper_bound(n, A, B, y, QMAX_ULTRA), QMAX_ULTRA.value * d / n),
            ]
            for got, ref in expected:
                assert abs(got - ref) <= BOUND_REL_TOL * ref

    @given(
        st.integers(min_value=2, max_value=60),
        st.integers(min_value=1, max_value=10 ** 6),
        st.integers(min_value=1, max_value=10 ** 6),
        st.integers(min_value=2, max_value=10 ** 6),
        st.sampled_from([QMAX_STRONG, QMAX_ULTRA]),
    )
    def test_gp_upper_times_ga_lower_is_the_cap(self, n, A, B, y, cap):
        ga = ga_lower_bound(n, A, B, y)
        gp = gp_upper_bound(n, A, B, y, cap)
        with localcontext(CTX):
            assert abs(gp * ga - cap.value) <= REL_TOL * cap.value

    def test_ga_min_decreases_as_coefficients_grow(self):
        values = [ga_lower_bound(3, A, 3, 50) for A in range(1, 12)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_ga_min_increases_with_y(self):
        values = [ga_lower_bound(3, 5, 3, y) for y in (2, 5, 20, 100, 10 ** 6)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_bounds_reject_out_of_range_parameters(self):
        with pytest.raises(ValueError):
            ga_lower_bound(1, 1, 1, 2)
        with pytest.raises(ValueError):
            ga_lower_bound(2, 1, 1, 1)
        with pytest.raises(ValueError):
            q_lower_bound(2, 0, 1, 2)
        with pytest.raises(ValueError):
            gp_upper_bound(2, 1, 0, 2, QMAX_STRONG)

    @pytest.mark.parametrize(
        "bound",
        [ga_lower_bound, q_lower_bound, gains.bound_fields,
         lambda *key: gp_upper_bound(*key, QMAX_STRONG)],
        ids=["ga_lower", "q_lower", "bound_fields", "gp_upper"],
    )
    def test_parameters_are_checked_before_the_memo(self, bound):
        # A float or bool equal to a valid key is rejected in a fresh
        # process and after that key is memoized alike: the result must
        # not depend on call history.
        gains._bounds.cache_clear()
        for _ in ("fresh", "warm"):
            for key in ((2, 1, 1, 2.0), (2.0, 1, 1, 2), (2, True, 1, 2), (2.5, 1, 1, 2)):
                with pytest.raises(TypeError):
                    bound(*key)
            bound(2, 1, 1, 2)

    def test_d_is_taken_once_per_key(self, counted_logs):
        # bound_fields with a custom cap and the public bounds all read one
        # evaluation of D for (n, A, B, y), and keep the values n/D and
        # q_max*D/n.
        gains._bounds.cache_clear()
        key, cap = (4, 7, 5, 1234), custom_qmax("1.25")
        fields = gains.bound_fields(*key, cap)
        with localcontext(CTX):
            d = 6 + 3 * ln_product(((35, 1),)) / ln_product(((5, 1), (1234, 4)))
            assert fields["ga_min"] == fields["q_min"] == Decimal(4) / d
            assert fields["gp_max_strong"] == 2 * d / 4
            assert fields["gp_max_ultra"] == Decimal("1.5") * d / 4
            assert fields["gp_max_custom"] == Decimal("1.25") * d / 4
        assert ga_lower_bound(*key) == q_lower_bound(*key) == fields["ga_min"]
        assert gp_upper_bound(*key, QMAX_ULTRA) == fields["gp_max_ultra"]
        assert gp_upper_bound(*key, cap) == fields["gp_max_custom"]
        assert counted_logs == [((5, 1), (1234, 4)), ((35, 1),)]

    def test_memo_holds_the_row_being_filled_whatever_its_width(self, monkeypatch):
        # A key of a new (n, A, B) row empties the memo once it holds _HELD
        # keys, and only then: the row being filled, which each x of a scan
        # walks again, stays whole however wide, and a key taken again has
        # the same values.
        monkeypatch.setattr(gains, "_HELD", 8)
        gains._bounds.cache_clear()
        narrow = [(3, 2, B, y) for B in (3, 5, 7) for y in (2, 3, 4)]
        wide = [(3, 2, 11, y) for y in range(2, 22)]
        before = {key: gains._bounds(*key) for key in narrow}
        assert gains._bounds.cache_info().currsize == 9
        before.update((key, gains._bounds(*key)) for key in wide)
        assert gains._bounds.cache_info().currsize == 20
        misses = gains._bounds.cache_info().misses
        assert [gains._bounds(*key) for key in wide] == [before[key] for key in wide]
        assert gains._bounds.cache_info().misses == misses
        # A finished row's key, as the CLI renders rows a batch behind.
        assert gains._bounds(*narrow[-1]) == before[narrow[-1]]
        assert gains._bounds.cache_info().currsize == 1

    def test_reports_and_bounds_share_one_ln_c(self, counted_logs):
        # analyze --n 2 --x 157 --y 91 --A 1 --B 3 --k 194: G_a and
        # ga_min = 2/D read the one correctly rounded ln(3*91^2) that both
        # reports on this key share.
        gains._bounds.cache_clear()
        s = validate_solution(2, 157, 91, 1, 3, 194)
        full, partial = compute_gains(s), compute_gains_partial(s)
        ln_c = ln_product(((3, 1), (91, 2)))
        with localcontext(CTX):
            d = 4 + ln_product(((3, 1),)) / ln_c
            assert full.G_a == partial.G_a == ln_c / ln_exact(157 * 91 * 3 * 194)
            assert full.ga_min == partial.ga_min == 2 / d
        assert str(full.ga_min).endswith("810346")
        assert counted_logs.count(((3, 1), (91, 2))) == 1


class TestUnitCaseBound:
    def test_values(self):
        assert k1_quality_bound(2) == Decimal(1)
        assert k1_quality_bound(4) == Decimal(2)
        assert k1_quality_bound(6) == Decimal(3)
        assert k1_quality_bound(5) == Decimal("2.5")

    def test_rejects_low_exponent(self):
        with pytest.raises(ValueError):
            k1_quality_bound(1)


class TestMaxAdmissibleExponent:
    def test_integral_doubles_step_down(self):
        # n/2 < cap is strict, so an integral 2*cap loses one.
        assert max_admissible_exponent(QMAX_STRONG) == 3
        assert max_admissible_exponent(QMAX_ULTRA) == 2
        assert max_admissible_exponent(custom_qmax("2.5")) == 4

    def test_fractional_doubles_floor(self):
        assert max_admissible_exponent(custom_qmax("1.01")) == 2
        assert max_admissible_exponent(custom_qmax("1.7")) == 3
        assert max_admissible_exponent(10) == 19

    def test_plain_numbers_accepted(self):
        assert max_admissible_exponent(2) == 3

    def test_caps_longer_than_working_precision_are_exact(self):
        # 2*cap rounded to 64 digits would read 2 and 2*10**64.
        just_above_one = "1." + "0" * 70 + "1"
        assert max_admissible_exponent(custom_qmax(just_above_one)) == 2
        assert max_admissible_exponent(custom_qmax("9" * 64)) == 2 * int("9" * 64) - 1

    def test_rejects_caps_at_or_below_one(self):
        with pytest.raises(ValueError):
            max_admissible_exponent(1)
        with pytest.raises(ValueError):
            max_admissible_exponent(custom_qmax("0.5"))


class TestQMax:
    def test_labels(self):
        assert QMAX_STRONG.label == "strong" and QMAX_STRONG.value == 2
        assert QMAX_ULTRA.label == "ultra" and QMAX_ULTRA.value == Decimal("1.5")
        assert custom_qmax("1.25").label == "custom"

    def test_validation(self):
        with pytest.raises(ValueError):
            QMax(Decimal(0), "zero")
        with pytest.raises(TypeError):
            QMax(2, "plain")
        with pytest.raises(ValueError):
            custom_qmax(-1)

    def test_range(self):
        low, high = QMAX_RANGE
        assert custom_qmax("1e-64").value == low
        assert custom_qmax("9.99e63").value < high
        for text in ("9.99e-65", "1e-999999", "1e64", "1e999999"):
            with pytest.raises(ValueError, match="must lie in"):
                custom_qmax(text)

    def test_rejects_non_finite(self):
        for text in ("nan", "snan", "inf", "-inf"):
            with pytest.raises(ValueError, match="finite"):
                custom_qmax(text)

    @pytest.mark.parametrize("value, error, match", [
        (Decimal(0), ValueError, "positive"),
        (Decimal("inf"), ValueError, "finite"),
        (Decimal("1e64"), ValueError, "must lie in"),
        (2, TypeError, "Decimal"),
    ])
    def test_every_construction_path_checks(self, value, error, match):
        # _replace goes through _make, which would otherwise build the tuple
        # without QMax's checks.
        for build in (
            lambda: QMax(value, "custom"),
            lambda: QMax._make((value, "custom")),
            lambda: QMAX_STRONG._replace(value=value),
        ):
            with pytest.raises(error, match=match):
                build()
        assert QMAX_STRONG._replace(label="custom") == QMax(Decimal(2), "custom")
        assert QMax._make((Decimal("1.5"), "ultra")) == QMAX_ULTRA


class TestRandomValidSolutions:
    @given(
        st.integers(min_value=2, max_value=8),
        st.integers(min_value=2, max_value=50),
        st.integers(min_value=2, max_value=50),
        st.integers(min_value=1, max_value=20),
        st.integers(min_value=1, max_value=20),
    )
    def test_gain_invariants(self, n, x, y, A, B):
        k = B * ipow(y, n) - A * ipow(x, n)
        if k < 1 or math.gcd(A * x, B * y, k) != 1:
            return
        s = validate_solution(n, x, y, A, B, k)
        g = compute_gains(s)
        assert g.C == B * ipow(y, n)
        assert g.P == x * y * A * B * k
        assert g.G_p >= 1
        assert g.q >= g.G_a
        assert g.G_a > g.ga_min
        assert g.q > g.q_min
        with localcontext(CTX):
            assert abs(g.q - g.G_a * g.G_p) <= REL_TOL * g.q
