"""Built-in corpus entries and their verification reports.

Frozen reference values were computed with an independent high-precision
oracle (mpmath at 60 significant digits) and pasted here as strings.
"""

from decimal import Decimal, localcontext

import pytest

from gainlab.bigmath import CTX
from gainlab.corpus import (
    FAIL,
    NOT_APPLICABLE,
    PASS,
    CorpusEntry,
    builtin_corpus,
    verify_entry,
)
from gainlab.gains import (
    NON_TRIVIAL,
    TRIVIAL_X,
    compute_gains,
    validate_solution,
)

ABS_TOL = Decimal("1e-45")

# Honest recomputation of the high-exponent entry from its raw parameters
# (k taken from the equation, all factorizations exact).
NITAJ_K_DERIVED = 576458274624876249
NITAJ_K_PRINTED = 613474843408551921511
NITAJ_GP_RECOMPUTED = Decimal("1.3234512560759225616442688741350234370807670970588")
NITAJ_RATIO_RECOMPUTED = Decimal("0.38474583760208668749807751801058237536216533198659")


def by_name(name: str):
    return next(e for e in builtin_corpus() if e.name == name)


class TestBuiltinCorpus:
    def test_three_entries(self):
        names = [e.name for e in builtin_corpus()]
        assert names == ["reyssat", "deweger", "nitaj"]

    def test_reyssat_parameters(self):
        e = by_name("reyssat")
        assert (e.n, e.x, e.y, e.A, e.B) == (5, 9, 23, 109, 1)
        assert e.k_printed == 2
        assert e.k_derived == 2

    def test_deweger_parameters(self):
        e = by_name("deweger")
        assert (e.n, e.x, e.y, e.A, e.B) == (3, 25, 128, 3087, 23)
        assert e.k_printed == 121
        assert e.k_derived == 121

    def test_nitaj_derived_k_disagrees_with_printed(self):
        e = by_name("nitaj")
        assert e.A == 7 ** 2 * 41 ** 2 * 311 ** 3 == 2477678547239
        assert e.k_derived == 2 ** 59 - e.A == NITAJ_K_DERIVED
        assert e.k_printed == 11 ** 16 * 13 ** 2 * 79 == NITAJ_K_PRINTED
        assert e.k_printed != e.k_derived
        # The printed k exceeds 2^59 by itself, so no coefficient choice
        # could reconcile it with the equation.
        assert e.k_printed > 2 ** 59

    def test_expected_tables_carry_tolerances(self):
        for e in builtin_corpus():
            assert e.expected
            for name, (value, tolerance) in e.expected.items():
                assert isinstance(value, Decimal), name
                assert tolerance >= 0


class TestVerifyEntry:
    def test_reyssat_all_pass(self):
        r = verify_entry(by_name("reyssat"))
        assert r.all_consistency_pass
        assert r.all_quantities_pass
        assert r.consistency == {
            "identity": PASS,
            "printed_k": PASS,
            "coprimality": PASS,
        }
        assert set(r.quantities) == {"q", "G_a", "G_p"}

    def test_deweger_all_pass_including_exact_radical(self):
        r = verify_entry(by_name("deweger"))
        assert r.all_consistency_pass
        assert r.all_quantities_pass
        v = r.quantities["radical_P"]
        assert v.actual == 53130
        assert v.tolerance == 0

    def test_nitaj_printed_k_fails_other_consistency_passes(self):
        r = verify_entry(by_name("nitaj"))
        assert r.consistency["identity"] == PASS
        assert r.consistency["printed_k"] == FAIL
        assert r.consistency["coprimality"] == PASS
        assert not r.all_consistency_pass

    def test_nitaj_bound_quantities_pass(self):
        r = verify_entry(by_name("nitaj"))
        assert r.quantities["ga_min"].passed
        assert r.quantities["gp_max_strong"].passed

    def test_nitaj_gain_quantities_fail_against_published_values(self):
        # Recomputing from raw parameters with the derived k gives a power
        # gain far below the published 3.2737; the mismatch is reported as
        # two failed verdicts with exact actuals attached.
        r = verify_entry(by_name("nitaj"))
        gp = r.quantities["G_p"]
        ratio = r.quantities["limit_ratio"]
        assert not gp.passed
        assert not ratio.passed
        assert abs(gp.actual - NITAJ_GP_RECOMPUTED) <= ABS_TOL
        assert abs(ratio.actual - NITAJ_RATIO_RECOMPUTED) <= ABS_TOL
        assert not r.all_quantities_pass

    def test_missing_printed_k_is_not_applicable(self):
        e = by_name("reyssat")._replace(k_printed=None)
        r = verify_entry(e)
        assert r.consistency["printed_k"] == NOT_APPLICABLE
        assert r.all_consistency_pass

    def test_negative_derived_k_fails_every_verdict(self):
        # 2^2 - 3^2 = -5: no solution, so nothing is computed.
        e = CorpusEntry(
            name="negative", n=2, x=3, y=2, A=1, B=1, k_printed=None,
            expected={
                "q": (Decimal(1), Decimal("1e-3")),
                "radical_P": (Decimal(6), Decimal(0)),
                "limit_ratio": (Decimal(1), Decimal(1)),
            },
        )
        assert e.k_derived == -5
        r = verify_entry(e)
        assert r.consistency == {
            "identity": FAIL,
            "printed_k": NOT_APPLICABLE,
            "coprimality": NOT_APPLICABLE,
        }
        assert {name: (v.actual, v.passed) for name, v in r.quantities.items()} == {
            "q": (None, False), "radical_P": (None, False), "limit_ratio": (None, False),
        }

    def test_every_quantity_name_reads_its_report_field(self):
        # q_min is accepted though no shipped entry uses it.
        e = by_name("deweger")._replace(expected={
            name: (Decimal(0), Decimal(1)) for name in (
                "G_a", "G_p", "q", "ga_min", "q_min", "gp_max_strong", "gp_max_ultra",
                "radical_P", "limit_ratio",
            )
        })
        g = compute_gains(validate_solution(e.n, e.x, e.y, e.A, e.B, e.k_derived))
        with localcontext(CTX):
            limit_ratio = g.G_p / g.gp_max_strong
        r = verify_entry(e)
        actual = {name: v.actual for name, v in r.quantities.items()}
        assert actual == {
            "G_a": g.G_a, "G_p": g.G_p, "q": g.q, "ga_min": g.ga_min, "q_min": g.q_min,
            "gp_max_strong": g.gp_max_strong, "gp_max_ultra": g.gp_max_ultra,
            "radical_P": g.R, "limit_ratio": limit_ratio,
        }

    @pytest.mark.parametrize("name", ["bogus", "R", "k1_q_bound", "gp_max_custom", "triviality"])
    def test_unknown_quantity_name_raises(self, name):
        e = by_name("deweger")._replace(expected={name: (Decimal(0), Decimal(1))})
        with pytest.raises(ValueError, match="unknown corpus quantity"):
            verify_entry(e)

    def test_verification_is_deterministic(self):
        for e in builtin_corpus():
            assert verify_entry(e) == verify_entry(e)


class TestEntriesAsSolutions:
    def test_consistency_passing_entries_build_valid_solutions(self):
        for name in ("reyssat", "deweger"):
            e = by_name(name)
            s = validate_solution(e.n, e.x, e.y, e.A, e.B, e.k_derived)
            assert s.triviality == NON_TRIVIAL
            g = compute_gains(s)
            assert g.G_p >= 1
            assert g.G_a > g.ga_min
            assert g.q > g.q_min
            with localcontext(CTX):
                assert abs(g.q - g.G_a * g.G_p) <= Decimal("1e-40") * g.q

    def test_nitaj_with_derived_k_is_valid_and_trivial(self):
        e = by_name("nitaj")
        s = validate_solution(e.n, e.x, e.y, e.A, e.B, e.k_derived)
        assert s.trivial_x
        assert s.triviality == TRIVIAL_X

    def test_nitaj_claimed_power_gain_reproduction(self):
        # The published account states the power gain of this case exceeds
        # the conjectured ceiling of 3.0.  Recomputing exactly from the raw
        # parameters does not reproduce that: the honest value is ~1.3234.
        # This test states the published claim and fails until the data
        # supports it.
        e = by_name("nitaj")
        s = validate_solution(e.n, e.x, e.y, e.A, e.B, e.k_derived)
        g = compute_gains(s)
        assert g.G_p > 3
