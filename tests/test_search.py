"""Box search: fixed-k enumeration, derived-k hunt, oracle equivalence."""

import collections
import contextlib
import math
import os
import re
import subprocess
import sys
import tracemalloc
from decimal import Context, Decimal, localcontext
from pathlib import Path

import pytest
import sympy
from hypothesis import Phase, example, given, settings, strategies as st

import gainlab
from gainlab import bigmath, cli, corpus, factor, gains, runs, search
from gainlab.bigmath import CTX, clear_ln_cache, ln_sums
from gainlab.factor import BUDGET_ENV_VAR, factorize_product
from gainlab.gains import check_solution, quality_below, validate_solution
from gainlab.search import (
    BoxTooLarge,
    DEFAULT_CELL_CEILING,
    DERIVED_K,
    FIXED_K,
    ORACLE_CELL_CEILING,
    SearchBox,
    SearchResult,
    brute_force_oracle,
    cell_count,
    enumerate_fixed_k,
    hunt_derived_k,
    iterated_axes,
    merge_results,
    split_box,
)

REYSSAT_Q = Decimal("1.6299116841270481846308600545356048822587010667363")

# 10022^2 - 15^2 = 10007 * 10037, two primes just above the trial
# division limit, so its factorization requires the rho stage (and more
# than 100 iterations of it).
HARD_K = 100440259


def fixed_box(n, x, y, A, B, k, **kw) -> SearchBox:
    return SearchBox(
        n_range=n, x_range=x, y_range=y, A_range=A, B_range=B,
        mode=FIXED_K, k_range=k, **kw,
    )


def derived_box(n, x, y, A, B, **kw) -> SearchBox:
    return SearchBox(
        n_range=n, x_range=x, y_range=y, A_range=A, B_range=B,
        mode=DERIVED_K, **kw,
    )


def spec_fixed_box(**kw) -> SearchBox:
    return fixed_box((2, 2), (2, 10), (2, 10), (1, 1), (1, 1), (1, 10), **kw)


def keys(result: SearchResult):
    return [s.canonical_key() for s, _ in result.solutions]


class TestBoxValidation:
    def test_mode_mismatch(self):
        with pytest.raises(ValueError, match="mode"):
            enumerate_fixed_k(derived_box((2, 2), (2, 3), (2, 3), (1, 1), (1, 1)))
        with pytest.raises(ValueError, match="mode"):
            hunt_derived_k(spec_fixed_box())

    def test_fixed_requires_k_range(self):
        box = SearchBox(
            n_range=(2, 2), x_range=(2, 3), y_range=(2, 3),
            A_range=(1, 1), B_range=(1, 1), mode=FIXED_K,
        )
        with pytest.raises(ValueError, match="k_range"):
            enumerate_fixed_k(box)

    def test_range_floors(self):
        with pytest.raises(ValueError, match="n_range"):
            hunt_derived_k(derived_box((1, 2), (2, 3), (2, 3), (1, 1), (1, 1)))
        with pytest.raises(ValueError, match="y_range"):
            hunt_derived_k(derived_box((2, 2), (2, 3), (1, 3), (1, 1), (1, 1)))
        with pytest.raises(ValueError, match="A_range"):
            hunt_derived_k(derived_box((2, 2), (2, 3), (2, 3), (0, 1), (1, 1)))

    def test_empty_interval(self):
        with pytest.raises(ValueError, match="empty"):
            hunt_derived_k(derived_box((2, 2), (5, 3), (2, 3), (1, 1), (1, 1)))

    def test_non_integer_bounds(self):
        with pytest.raises(ValueError, match="integers"):
            hunt_derived_k(derived_box((2, 2), (2.0, 3.0), (2, 3), (1, 1), (1, 1)))
        # A bool is not an integer here, as it is not for check_solution.
        with pytest.raises(ValueError, match="k_range bounds must be integers"):
            enumerate_fixed_k(fixed_box((2, 2), (2, 10), (2, 10), (1, 1), (1, 1), (True, True)))
        with pytest.raises(ValueError, match="x_range bounds must be integers"):
            hunt_derived_k(derived_box((2, 2), (2, True), (2, 3), (1, 1), (1, 1)))

    def test_unknown_mode_axes(self):
        with pytest.raises(ValueError, match="mode"):
            iterated_axes("diagonal")


class TestCellCount:
    def test_fixed_counts_iterated_axes_only(self):
        # y is derived in fixed mode, so its width never multiplies in.
        assert cell_count(spec_fixed_box()) == 90

    def test_derived_counts(self):
        box = derived_box((2, 3), (2, 11), (2, 6), (1, 4), (1, 2))
        assert cell_count(box) == 2 * 10 * 5 * 4 * 2

    def test_nontrivial_floor_shrinks_x(self):
        box = derived_box((2, 2), (1, 10), (2, 2), (1, 1), (1, 1))
        assert cell_count(box) == 9
        relaxed = derived_box(
            (2, 2), (1, 10), (2, 2), (1, 1), (1, 1), require_nontrivial=False
        )
        assert cell_count(relaxed) == 10

    def test_nontrivial_floor_can_empty_the_box(self):
        box = derived_box((2, 2), (1, 1), (2, 2), (1, 1), (1, 1))
        assert cell_count(box) == 0

    def test_fixed_box_without_k_range_has_no_cells(self):
        # A missing k_range has width 0, so the widest axis to split is x.
        box = spec_fixed_box()._replace(k_range=None)
        assert cell_count(box) == 0
        assert [p.x_range for p in split_box(box, 2)] == [(2, 6), (7, 10)]


class TestEnumerateFixedK:
    def test_small_square_box(self):
        result = enumerate_fixed_k(spec_fixed_box())
        got = keys(result)
        assert (2, 5, 1, 1, 2, 3) in got
        assert (2, 7, 1, 1, 3, 4) in got
        assert got == [(2, 5, 1, 1, 2, 3), (2, 7, 1, 1, 3, 4), (2, 9, 1, 1, 4, 5)]
        assert all(s.k != 1 for s, _ in result.solutions)
        assert result.cells_scanned == 90

    def test_single_cell_box(self):
        box = fixed_box((3, 3), (25, 25), (128, 128), (3087, 3087), (23, 23), (121, 121))
        result = enumerate_fixed_k(box)
        assert keys(result) == [(3, 121, 3087, 23, 25, 128)]
        assert result.cells_scanned == 1
        g = result.solutions[0][1]
        assert g.R == 53130

    def test_infeasible_exponent_box(self):
        # Fourth powers of x >= 2 are never 1 apart.
        box = fixed_box((4, 4), (2, 100), (2, 100), (1, 1), (1, 1), (1, 1))
        result = enumerate_fixed_k(box)
        assert result.solutions == ()
        assert result.cells_scanned == 99

    def test_canonical_ordering(self):
        box = fixed_box((2, 3), (2, 20), (2, 20), (1, 2), (1, 2), (1, 30))
        result = enumerate_fixed_k(box)
        got = keys(result)
        assert got == sorted(got)
        assert len(set(got)) == len(got)

    def test_scanned_equals_cell_count(self):
        box = fixed_box((2, 3), (2, 9), (2, 9), (1, 2), (1, 3), (1, 7))
        assert enumerate_fixed_k(box).cells_scanned == cell_count(box)


class TestHuntDerivedK:
    def test_single_cell_high_quality(self):
        box = derived_box((5, 5), (9, 9), (23, 23), (109, 109), (1, 1))
        result = hunt_derived_k(box)
        assert keys(result) == [(5, 2, 109, 1, 9, 23)]
        assert result.cells_scanned == 1
        q = result.solutions[0][1].q
        assert abs(q - REYSSAT_Q) <= Decimal("1e-45")

    def test_equal_sides_derive_no_solution(self):
        box = derived_box((2, 2), (5, 5), (5, 5), (1, 1), (1, 1))
        result = hunt_derived_k(box)
        assert result.solutions == ()
        assert result.cells_scanned == 1

    def test_threshold_filters_quality(self):
        box = derived_box(
            (2, 2), (2, 50), (2, 50), (1, 1), (1, 1), q_threshold=Decimal(1)
        )
        result = hunt_derived_k(box)
        assert result.solutions
        for _, g in result.solutions:
            assert g.q >= 1
            assert g.q > Decimal("0.5")
        oracle = brute_force_oracle(box)
        assert result.solutions == oracle.solutions

    def test_descending_quality_order(self):
        box = derived_box((2, 3), (2, 12), (2, 12), (1, 2), (1, 2))
        result = hunt_derived_k(box)
        qs = [g.q for _, g in result.solutions]
        assert all(a >= b for a, b in zip(qs, qs[1:]))
        # Ties (if any) fall back to canonical order.
        for (s1, g1), (s2, g2) in zip(result.solutions, result.solutions[1:]):
            if g1.q == g2.q:
                assert s1.canonical_key() < s2.canonical_key()

    def test_order_ignores_the_callers_decimal_context(self):
        # Negated under a 2-digit context, qualities that differ past their
        # second digit would tie, and this box's order would change from
        # its fourth entry on.
        box = derived_box((2, 3), (2, 30), (2, 30), (1, 2), (1, 2))
        expected = hunt_derived_k(box).solutions
        with localcontext(Context(prec=2)):
            assert hunt_derived_k(box).solutions == expected
        qs = [g.q for _, g in expected]
        assert len(qs) == 1146 and all(a >= b for a, b in zip(qs, qs[1:]))

    def test_trivial_x_skipped_by_default(self):
        box = derived_box((2, 2), (1, 1), (2, 2), (1, 1), (1, 1))
        assert hunt_derived_k(box).solutions == ()

    def test_trivial_x_admitted_when_relaxed(self):
        box = derived_box(
            (2, 2), (1, 1), (2, 2), (1, 1), (1, 1), require_nontrivial=False
        )
        result = hunt_derived_k(box)
        assert keys(result) == [(2, 3, 1, 1, 1, 2)]
        s, g = result.solutions[0]
        assert s.trivial_x
        assert g.triviality == "trivial_x"


class TestOracleEquivalence:
    def test_fixed_mode_sequences_identical(self):
        box = fixed_box((2, 2), (2, 30), (2, 30), (1, 1), (1, 1), (1, 20))
        fast = enumerate_fixed_k(box)
        slow = brute_force_oracle(box)
        assert fast == slow
        # The oracle loops over y as well, but counts the mode's cells.
        assert fast.cells_scanned == slow.cells_scanned == 29 * 20

    def test_oracle_single_cell(self):
        box = fixed_box((3, 3), (25, 25), (128, 128), (3087, 3087), (23, 23), (121, 121))
        slow = brute_force_oracle(box)
        assert keys(slow) == [(3, 121, 3087, 23, 25, 128)]

    def test_derived_mode_sequences_identical(self):
        box = derived_box((2, 3), (2, 15), (2, 15), (1, 3), (1, 3))
        assert hunt_derived_k(box) == brute_force_oracle(box)

    @given(
        st.integers(min_value=2, max_value=3),
        st.integers(min_value=0, max_value=1),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=2, max_value=6),
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=0, max_value=3),
        st.booleans(),
    )
    def test_random_small_boxes_match_oracle(
        self, n_lo, n_w, x_lo, x_w, y_lo, y_w, a_lo, a_w, b_lo, b_w, k_lo, k_w, fixed
    ):
        common = dict(
            n_range=(n_lo, n_lo + n_w),
            x_range=(x_lo, x_lo + x_w),
            y_range=(y_lo, y_lo + y_w),
            A_range=(a_lo, a_lo + a_w),
            B_range=(b_lo, b_lo + b_w),
        )
        if fixed:
            box = SearchBox(mode=FIXED_K, k_range=(k_lo, k_lo + k_w), **common)
            fast = enumerate_fixed_k(box)
        else:
            box = SearchBox(mode=DERIVED_K, **common)
            fast = hunt_derived_k(box)
        assert fast == brute_force_oracle(box)


@pytest.fixture
def root_calls(monkeypatch):
    calls = []
    root = search.nth_root_floor

    def counting_root(v, n):
        calls.append((v, n))
        return root(v, n)

    monkeypatch.setattr(search, "nth_root_floor", counting_root)
    return calls


class TestFixedKWindow:
    """The fixed-k scan steps y through one window per (n, A, B, x)."""

    def test_one_x_window_holds_several_y(self):
        # y^2 = 4 + k for k <= 400 gives y = 3..20; the odd y are coprime.
        box = fixed_box((2, 2), (2, 2), (2, 30), (1, 1), (1, 1), (1, 400))
        fast = enumerate_fixed_k(box)
        assert [s.y for s, _ in fast.solutions] == list(range(3, 21, 2))
        assert fast.solutions == brute_force_oracle(box).solutions

    @given(
        st.integers(min_value=2, max_value=3),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=2, max_value=9),
        st.integers(min_value=0, max_value=20),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=0, max_value=1),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=0, max_value=1),
        st.integers(min_value=1, max_value=60),
        st.integers(min_value=0, max_value=400),
        st.booleans(),
    )
    # B > 1; y_lo above the least root; y_hi cutting the window; x = 1 admitted.
    @example(2, 2, 1, 2, 20, 1, 0, 2, 1, 1, 400, True)
    @example(2, 2, 0, 9, 20, 1, 0, 1, 0, 1, 400, True)
    @example(2, 2, 0, 2, 6, 1, 0, 1, 0, 1, 400, True)
    @example(3, 1, 1, 2, 20, 1, 1, 1, 1, 1, 400, False)
    # The x range is empty after the non-triviality floor.
    @example(2, 1, 0, 2, 20, 1, 0, 1, 0, 1, 400, True)
    # The least y passes y_hi at x = 6, in the middle of the x range.
    @example(2, 2, 6, 2, 4, 1, 0, 1, 0, 1, 20, True)
    def test_wide_k_windows_match_oracle(
        self, n, x_lo, x_w, y_lo, y_w, a_lo, a_w, b_lo, b_w, k_lo, k_w, nontrivial
    ):
        box = fixed_box(
            (n, n), (x_lo, x_lo + x_w), (y_lo, y_lo + y_w), (a_lo, a_lo + a_w),
            (b_lo, b_lo + b_w), (k_lo, k_lo + k_w), require_nontrivial=nontrivial,
        )
        fast = enumerate_fixed_k(box)
        assert fast == brute_force_oracle(box)
        assert fast.cells_scanned == cell_count(box)

    def test_split_along_k_merges_to_the_whole(self):
        box = fixed_box((2, 3), (1, 6), (2, 40), (1, 2), (1, 3), (1, 400), require_nontrivial=False)
        whole = enumerate_fixed_k(box)
        assert len(whole.solutions) > 10
        for parts in (2, 3, 7):
            pieces = split_box(box, parts, axis="k")
            merged = merge_results([enumerate_fixed_k(p) for p in pieces], FIXED_K)
            assert merged == whole

    def test_single_high_x_cell(self):
        x = 10 ** 9
        box = fixed_box((2, 2), (x, x), (2, 10 ** 10), (1, 1), (1, 1), (2 * x + 1, 2 * x + 1))
        result = enumerate_fixed_k(box)
        assert [(s.x, s.y) for s, _ in result.solutions] == [(x, x + 1)]
        assert result.cells_scanned == 1

    def test_at_most_one_root_per_x(self, root_calls):
        box = fixed_box((2, 4), (2, 30), (2, 10 ** 6), (1, 3), (1, 3), (1, 400))
        result = enumerate_fixed_k(box)
        assert result.solutions
        assert len(root_calls) <= cell_count(box) // 400 == 3 * 29 * 3 * 3

    def test_one_root_per_row(self, root_calls):
        # The least y grows by at most two from one x to the next here, so
        # only each (n, A, B) row's first x takes a root.
        box = fixed_box((2, 3), (2, 60), (2, 120), (1, 3), (1, 2), (1, 20))
        result = enumerate_fixed_k(box)
        assert len(root_calls) == 2 * 3 * 2
        assert result.solutions
        assert result.solutions == brute_force_oracle(box).solutions

    def test_long_gaps_take_the_root(self, root_calls):
        # The least y grows by about 10^6 from one x to the next, so every x
        # takes a root rather than walking y up one step at a time.
        box = fixed_box((2, 2), (2, 60), (2, 10 ** 14), (10 ** 12, 10 ** 12), (1, 1), (1, 75))
        result = enumerate_fixed_k(box)
        assert 59 <= len(root_calls) <= 59 + 1
        assert result.solutions == ()
        assert result.cells_scanned == 59 * 75


class TestHuntWindow:
    """A hunt walks the same y window per (n, A, B, x), with k from 1 up."""

    @given(
        st.integers(min_value=2, max_value=3),
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=0, max_value=4),
        st.integers(min_value=2, max_value=40),
        st.integers(min_value=0, max_value=30),
        st.integers(min_value=1, max_value=1000),
        st.integers(min_value=0, max_value=1),
        st.integers(min_value=1, max_value=1000),
        st.integers(min_value=0, max_value=1),
        st.booleans(),
    )
    # x wholly above y, so every k < 1: no solution, every cell counted.
    @example(2, 10, 2, 2, 3, 1, 0, 1, 0, True)
    # y_lo above the least root.
    @example(2, 2, 3, 20, 10, 1, 0, 1, 0, True)
    # A >> B: the least y grows by about 31 per x, so each x takes the root.
    @example(2, 2, 4, 2, 200, 1000, 0, 1, 0, True)
    # x = 1 admitted.
    @example(3, 1, 3, 2, 20, 1, 1, 1, 1, False)
    # The x range is empty after the non-triviality floor.
    @example(2, 1, 0, 2, 20, 1, 0, 1, 0, True)
    # The least y passes y_hi at x = 5, in the middle of the x range.
    @example(2, 2, 6, 2, 3, 1, 0, 1, 0, True)
    def test_windows_match_oracle(
        self, n, x_lo, x_w, y_lo, y_w, a_lo, a_w, b_lo, b_w, nontrivial
    ):
        box = derived_box(
            (n, n), (x_lo, x_lo + x_w), (y_lo, y_lo + y_w), (a_lo, a_lo + a_w),
            (b_lo, b_lo + b_w), require_nontrivial=nontrivial,
        )
        fast = hunt_derived_k(box)
        assert fast == brute_force_oracle(box)
        assert fast.cells_scanned == cell_count(box)

    def test_one_root_per_row(self, root_calls):
        # The least y grows by at most two from one x to the next here, so
        # only each (n, A, B) row's first x takes a root.
        box = derived_box((2, 3), (2, 20), (2, 40), (1, 3), (1, 2))
        result = hunt_derived_k(box)
        assert len(root_calls) == 2 * 3 * 2
        assert result.solutions
        assert result.solutions == brute_force_oracle(box).solutions


class TestBoundedMemory:
    """Scan memory does not grow with the width of any axis."""

    @staticmethod
    def traced_peak(scan, box):
        tracemalloc.start()
        try:
            result = scan(box)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.cells_scanned == cell_count(box)
        return peak

    def test_wide_y_hunt(self):
        # The least y at x = 10^7 is past y_hi, so no cell is a candidate.
        box = derived_box((2, 2), (10 ** 7, 10 ** 7), (2, 2 * 10 ** 6), (1, 1), (1, 1))
        assert self.traced_peak(hunt_derived_k, box) < 10 ** 6

    def test_wide_x_search(self):
        box = fixed_box((2, 2), (2, 50_000), (2, 3), (1, 1), (1, 1), (1, 1))
        assert self.traced_peak(enumerate_fixed_k, box) < 10 ** 6


class TestEmittedInvariants:
    def test_every_solution_revalidates_and_reports_check_out(self):
        boxes = [
            spec_fixed_box(),
            derived_box((2, 3), (2, 12), (2, 12), (1, 2), (1, 2)),
        ]
        results = [enumerate_fixed_k(boxes[0]), hunt_derived_k(boxes[1])]
        for result in results:
            assert result.solutions
            seen = set()
            for s, g in result.solutions:
                key = s.canonical_key()
                assert key not in seen
                seen.add(key)
                assert check_solution(s.n, s.x, s.y, s.A, s.B, s.k).ok
                assert g.G_p >= 1
                assert g.q >= g.G_a
                assert g.G_a > g.ga_min
                assert g.q > g.q_min
                with localcontext(CTX):
                    assert abs(g.q - g.G_a * g.G_p) <= Decimal("1e-40") * g.q


class TestProvenCandidates:
    """The scan yields Solutions that hold every invariant with no check."""

    @given(
        st.integers(min_value=2, max_value=4),
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=0, max_value=6),
        st.integers(min_value=2, max_value=30),
        st.integers(min_value=0, max_value=8),
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=0, max_value=2),
        st.one_of(st.none(), st.tuples(st.integers(1, 60), st.integers(0, 60))),
        st.booleans(),
    )
    # x and A share the prime 2, y and B the prime 3.
    @example(2, 2, 6, 2, 8, 2, 2, 3, 0, None, True)
    @example(3, 2, 6, 3, 8, 4, 0, 3, 3, (1, 60), True)
    # y starts below the least root, and above it.
    @example(2, 5, 4, 2, 8, 1, 0, 1, 0, None, True)
    @example(2, 2, 3, 25, 5, 1, 1, 1, 1, None, True)
    @example(2, 20, 3, 22, 4, 1, 0, 1, 0, (1, 120), True)
    # x = 1 admitted.
    @example(3, 1, 4, 2, 8, 1, 2, 1, 2, None, False)
    @example(2, 1, 4, 2, 8, 1, 2, 1, 2, (1, 30), False)
    def test_every_candidate_is_a_valid_solution(
        self, n, x_lo, x_w, y_lo, y_w, a_lo, a_w, b_lo, b_w, k, nontrivial
    ):
        mode = DERIVED_K if k is None else FIXED_K
        box = SearchBox(
            n_range=(n, n), x_range=(x_lo, x_lo + x_w), y_range=(y_lo, y_lo + y_w),
            A_range=(a_lo, a_lo + a_w), B_range=(b_lo, b_lo + b_w), mode=mode,
            k_range=None if k is None else (k[0], k[0] + k[1]),
            require_nontrivial=nontrivial,
        )
        b = search._normalized(box, mode)
        yielded = list(search._window_cells(b, search._Progress(cell_count(b))))
        for s in yielded:
            assert type(s) is gains.Solution
            assert check_solution(*s).ok, s
        # Both scans visit (n, A, B, x, y) in the same order.
        assert yielded == list(search._oracle_cells(b, search._Progress(0)))

    def test_only_the_oracle_calls_validate_solution(self, monkeypatch):
        calls = []
        original = gains.validate_solution

        def counted(*args):
            calls.append(args)
            return original(*args)

        for module in (gainlab, gains, search, corpus, cli):
            for name, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, name, counted)
        hunt = derived_box((2, 3), (1, 12), (2, 12), (1, 2), (1, 2), require_nontrivial=False)
        for box, scan in ((spec_fixed_box(), enumerate_fixed_k), (hunt, hunt_derived_k)):
            calls.clear()
            assert scan(box).solutions
            assert scan(box._replace(q_threshold=Decimal("0.9"))).solutions
            assert calls == []
            result = brute_force_oracle(box)
            assert sorted(calls) == sorted(tuple(s) for s, _ in result.solutions)


class TestPartition:
    def test_fixed_split_merge_identity(self):
        box = spec_fixed_box()
        whole = enumerate_fixed_k(box)
        for parts in (2, 3, 7):
            pieces = split_box(box, parts)
            merged = merge_results([enumerate_fixed_k(p) for p in pieces], FIXED_K)
            assert merged == whole

    def test_derived_split_merge_identity_on_every_axis(self):
        box = derived_box((2, 3), (2, 12), (2, 12), (1, 2), (1, 2))
        whole = hunt_derived_k(box)
        for axis in iterated_axes(DERIVED_K):
            pieces = split_box(box, 2, axis=axis)
            merged = merge_results([hunt_derived_k(p) for p in pieces], DERIVED_K)
            assert merged == whole

    def test_split_covers_box_disjointly(self):
        box = spec_fixed_box()
        pieces = split_box(box, 4, axis="k")
        covered = []
        for p in pieces:
            lo, hi = p.k_range
            covered.extend(range(lo, hi + 1))
        assert covered == list(range(box.k_range[0], box.k_range[1] + 1))

    def test_split_caps_at_axis_width(self):
        box = spec_fixed_box()
        assert len(split_box(box, 100, axis="n")) == 1
        assert len(split_box(box, 100, axis="k")) == 10

    def test_split_default_axis_is_widest(self):
        box = spec_fixed_box()  # k is the widest iterated axis (10)
        pieces = split_box(box, 2)
        assert pieces[0].k_range != box.k_range

    def test_split_rejects_non_iterated_axis(self):
        with pytest.raises(ValueError, match="not iterated"):
            split_box(spec_fixed_box(), 2, axis="y")
        box = derived_box((2, 2), (2, 5), (2, 5), (1, 1), (1, 1))
        with pytest.raises(ValueError, match="not iterated"):
            split_box(box, 2, axis="k")

    def test_split_rejects_bad_parts(self):
        with pytest.raises(ValueError, match="parts"):
            split_box(spec_fixed_box(), 0)

    def test_merge_rejects_unknown_mode(self):
        def unread():
            pytest.fail("results were read before the mode was checked")
            yield

        for results in ([], unread()):
            with pytest.raises(ValueError, match="mode"):
                merge_results(results, "diagonal")

    def test_merge_adds_accounting(self):
        box = spec_fixed_box()
        pieces = split_box(box, 3)
        results = [enumerate_fixed_k(p) for p in pieces]
        merged = merge_results(results, FIXED_K)
        assert merged.cells_scanned == sum(r.cells_scanned for r in results) == 90


class TestCellCeilings:
    def test_explicit_ceiling(self):
        with pytest.raises(BoxTooLarge) as exc:
            enumerate_fixed_k(spec_fixed_box(), cell_ceiling=10)
        assert exc.value.cells == 90
        assert exc.value.ceiling == 10

    def test_oracle_hard_ceiling(self):
        box = derived_box((2, 2), (2, 101), (2, 12), (1, 100), (1, 100))
        assert cell_count(box) > ORACLE_CELL_CEILING
        with pytest.raises(BoxTooLarge):
            brute_force_oracle(box)

    def test_oracle_ceiling_bounds_the_cells_it_visits(self):
        # Two (n, A, B, x, k) cells, but the oracle loops over every y as
        # well: 2 * (10^9 - 1) cells, minutes of work unless refused at once.
        box = fixed_box((2, 2), (2, 3), (2, 10 ** 9), (1, 1), (1, 1), (1, 1))
        assert cell_count(box) == 2
        # Box validation still comes first.
        with pytest.raises(ValueError, match="^n_range lower bound 1 violates minimum 2$"):
            brute_force_oracle(box._replace(n_range=(1, 2)))
        script = (
            "from time import perf_counter\n"
            "from gainlab.search import BoxTooLarge, SearchBox, brute_force_oracle\n"
            "t0 = perf_counter()\n"
            "try:\n"
            f"    brute_force_oracle({box!r})\n"
            "except BoxTooLarge as err:\n"
            "    print(err.cells, perf_counter() - t0)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(gainlab.__file__).parents[1]))
        out = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env,
            check=True, timeout=30,
        ).stdout.split()
        assert int(out[0]) == 2 * (10 ** 9 - 1)
        assert float(out[1]) < 1.0

    def test_oracle_ceiling_ignores_the_k_width(self):
        # Two (n, A, B, x, y) cells and 2 * 10^7 k values: the oracle's one
        # ceiling is on the cells it visits, so the k width raises nothing,
        # and it counts the search's 2 * 10^7 cells, not the cells it visits.
        box = fixed_box((2, 2), (2, 2), (2, 3), (1, 1), (1, 1), (1, 2 * 10 ** 7))
        assert cell_count(box) == 2 * 10 ** 7 > ORACLE_CELL_CEILING
        oracle = brute_force_oracle(box)
        assert oracle == enumerate_fixed_k(box)
        assert oracle.cells_scanned == 2 * 10 ** 7
        assert [(s.n, s.x, s.y, s.k) for s, _ in oracle.solutions] == [(2, 2, 3, 5)]

    def test_default_ceiling(self):
        box = fixed_box((2, 2), (2, 2), (2, 2), (1, 1), (1, 1), (1, DEFAULT_CELL_CEILING + 1))
        with pytest.raises(BoxTooLarge):
            enumerate_fixed_k(box)

    def test_cell_count_past_the_int_to_str_digit_limit(self):
        # 2 * (10^4400 - 1) cells: more digits than str() allows by default.
        box = derived_box((2, 2), (2, 10 ** 4400), (2, 3), (1, 1), (1, 1))
        with pytest.raises(BoxTooLarge) as exc:
            hunt_derived_k(box)
        assert exc.value.cells == 2 * (10 ** 4400 - 1)
        assert "-bit integer> cells" in str(exc.value)

    def test_empty_interval_past_the_int_to_str_digit_limit(self):
        box = derived_box((2, 2), (10 ** 4400, 2), (2, 3), (1, 1), (1, 1))
        with pytest.raises(ValueError, match=r"^x_range interval \[<14617-bit integer>, 2\] is empty$"):
            hunt_derived_k(box)

    def test_low_bound_past_the_int_to_str_digit_limit(self):
        box = derived_box((2, 2), (-10 ** 4400, 2), (2, 3), (1, 1), (1, 1))
        with pytest.raises(ValueError, match=r"^x_range lower bound -<14617-bit integer> violates minimum 1$"):
            hunt_derived_k(box)


class TestBudgetPartials:
    def test_fixed_mode_emits_partial_report(self):
        box = fixed_box(
            (2, 2), (15, 15), (10022, 10022), (1, 1), (1, 1), (HARD_K, HARD_K)
        )
        result = enumerate_fixed_k(box, budget=10)
        assert keys(result) == [(2, HARD_K, 1, 1, 15, 10022)]
        g = result.solutions[0][1]
        assert g.R is None and g.G_p is None and g.q is None
        assert g.G_a is not None and g.ga_min is not None

    def test_fixed_mode_full_budget_completes(self):
        box = fixed_box(
            (2, 2), (15, 15), (10022, 10022), (1, 1), (1, 1), (HARD_K, HARD_K)
        )
        result = enumerate_fixed_k(box)
        g = result.solutions[0][1]
        # P = 15 * 10022 * HARD_K = (3*5)(2*5011)(10007*10037).
        assert g.R == 2 * 3 * 5 * 5011 * 10007 * 10037
        assert g.q is not None

    def test_hunt_sorts_partials_after_known_quality(self):
        # Odd x in 15..21 pass the coprimality gate.  x = 15 derives HARD_K
        # (blows the tiny budget); 17, 19, 21 derive k values whose factors
        # all fall to trial division, so their reports are complete.
        box = derived_box((2, 2), (15, 21), (10022, 10022), (1, 1), (1, 1))
        result = hunt_derived_k(box, budget=10)
        assert sorted(s.x for s, _ in result.solutions) == [15, 17, 19, 21]
        *known, last = result.solutions
        assert last[0].x == 15 and last[1].q is None
        qs = [g.q for _, g in known]
        assert all(q is not None for q in qs)
        assert all(a >= b for a, b in zip(qs, qs[1:]))

    def test_hunt_partial_report_past_the_int_to_str_digit_limit(self):
        # x has 4,540 digits, past Python's default int-to-str limit of
        # 4,300, and its factorization blows the budget at once: the hunt
        # still gives the tuple a partial report.
        x = 2 ** 15000 * 1000000000039 * 1000000000061
        box = derived_box((2, 2), (x, x), (x + 1, x + 1), (1, 1), (1, 1))
        result = hunt_derived_k(box, budget=0)
        assert keys(result) == [(2, 2 * x + 1, 1, 1, x, x + 1)]
        g = result.solutions[0][1]
        assert g.C == (x + 1) ** 2
        assert g.q is None and g.G_a is not None

    def test_threshold_keeps_unknown_quality(self):
        # k = 2x + 1 = 100003 * 100019 * 100043 has no prime below 10**5 and
        # is at least 10**15, so the screen must split it, and 10 rho
        # iterations do not.
        x = (100003 * 100019 * 100043 - 1) // 2
        box = derived_box(
            (2, 2), (x, x), (x + 1, x + 1), (1, 1), (1, 1),
            q_threshold=Decimal("100"),
        )
        result = hunt_derived_k(box, budget=10)
        # Quality is unknown, so the threshold cannot justify dropping it.
        assert len(result.solutions) == 1
        assert result.solutions[0][1].q is None

    def test_threshold_drops_a_settled_radical_without_rho(self, monkeypatch):
        # k = HARD_K = 10007 * 10037 is below 10**12: its radical is read
        # from one isqrt.  k = 10007 * 10009 * 10037 is at least 10**12, and
        # the first wide block takes its three primes.  Either way q < 100
        # is proven, and no rho iteration is spent, where a partial report
        # was once kept.
        def refuse(*args):
            raise AssertionError("rho entered")

        monkeypatch.setattr(factor, "_brent_rho", refuse)
        x = (10007 * 10009 * 10037 - 1) // 2
        for box in (
            derived_box((2, 2), (15, 15), (10022, 10022), (1, 1), (1, 1)),
            derived_box((2, 2), (x, x), (x + 1, x + 1), (1, 1), (1, 1)),
        ):
            box = box._replace(q_threshold=Decimal("100"))
            assert hunt_derived_k(box, budget=10).solutions == ()


class TestFactorMemo:
    """A hunt's result depends on its inputs and budget, not on earlier calls."""

    # The golden hunt-partial box: under a zero budget two of its five k
    # need the rho stage and get partial reports.
    PARTIAL_BOX = derived_box((9, 9), (38, 41), (38, 41), (1, 2), (1, 1))

    def test_fresh_process_equals_warm_process(self):
        script = (
            "from gainlab.search import SearchBox, hunt_derived_k\n"
            f"r = hunt_derived_k({self.PARTIAL_BOX!r}, budget=0)\n"
            "print(repr([(s.canonical_key(), g.R) for s, g in r.solutions]))\n"
        )
        env = {k: v for k, v in os.environ.items() if k != BUDGET_ENV_VAR}
        env["PYTHONPATH"] = str(Path(gainlab.__file__).parents[1])
        fresh = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env,
            check=True, timeout=60,
        ).stdout
        hunt_derived_k(self.PARTIAL_BOX)
        warm = hunt_derived_k(self.PARTIAL_BOX, budget=0)
        assert fresh == repr([(s.canonical_key(), g.R) for s, g in warm.solutions]) + "\n"
        assert sum(g.R is None for _, g in warm.solutions) == 2

    def test_memo_holds_only_small_ints(self):
        hunt_derived_k(derived_box((2, 3), (2, 40), (2, 40), (1, 2), (1, 2)))
        assert factor._cache
        assert all(type(v) is int and v < 10 ** 4 for v in factor._cache)


class TestScreen:
    """A threshold hunt drops tuples proven below the threshold before any report."""

    REYSSAT_BOX = derived_box((5, 5), (9, 9), (23, 23), (109, 109), (1, 1))
    # The 64-digit q that hunt_derived_k reports for the Reyssat cell.
    REYSSAT_Q64 = Decimal("1.629911684127048184630860054535604882258701066736290987863166712")

    @given(
        st.integers(min_value=2, max_value=6),
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=0, max_value=6),
        st.integers(min_value=2, max_value=30),
        st.integers(min_value=0, max_value=6),
        st.integers(min_value=1, max_value=120),
        st.integers(min_value=0, max_value=1),
        st.integers(min_value=1, max_value=9),
        st.integers(min_value=0, max_value=1),
        st.integers(min_value=0, max_value=10 ** 6),
        st.sampled_from(["0", "1e-63", "-1e-63", "1e-14", "-1e-14", "1e-3", "-1e-3"]),
    )
    @example(5, 9, 0, 23, 0, 109, 0, 1, 0, 0, "0")  # threshold = Reyssat's exact q
    def test_threshold_hunt_equals_the_filtered_hunt(
        self, n, x_lo, x_w, y_lo, y_w, a_lo, a_w, b_lo, b_w, pick, nudge
    ):
        box = derived_box(
            (n, n), (x_lo, x_lo + x_w), (y_lo, y_lo + y_w), (a_lo, a_lo + a_w), (b_lo, b_lo + b_w)
        )
        full = hunt_derived_k(box)
        qs = [g.q for _, g in full.solutions if g.q is not None]
        # A threshold at, or a hair either side of, one of the box's qualities.
        with localcontext(CTX):
            t = qs[pick % len(qs)] * (1 + Decimal(nudge)) if qs else Decimal(1)
        screened = hunt_derived_k(box._replace(q_threshold=t))
        kept = tuple(item for item in full.solutions if item[1].q is None or item[1].q >= t)
        assert screened.solutions == kept
        assert screened.cells_scanned == full.cells_scanned

    def test_threshold_at_an_exact_quality_keeps_it(self):
        box = self.REYSSAT_BOX._replace(q_threshold=self.REYSSAT_Q64)
        assert keys(hunt_derived_k(box)) == [(5, 2, 109, 1, 9, 23)]
        above = box._replace(q_threshold=self.REYSSAT_Q64.next_plus(CTX))
        assert hunt_derived_k(above).solutions == ()

    def test_dropped_tuples_build_no_report(self, monkeypatch):
        # The benchmark's hunt_high_n box at seed 0.
        box = derived_box((7, 12), (2, 34), (2, 34), (1, 2), (1, 2), q_threshold=Decimal("1.1"))
        built = []
        compute_gains = search.compute_gains
        monkeypatch.setattr(
            search, "compute_gains", lambda s, **kw: built.append(s) or compute_gains(s, **kw)
        )
        calls = collections.Counter()
        for name in ("_brent_rho", "is_prime"):
            original = getattr(factor, name)
            monkeypatch.setattr(
                factor, name, lambda *a, f=original, n=name: calls.update([n]) or f(*a)
            )
        clear_ln_cache()
        gains._bounds.cache_clear()
        gains.shared_part.cache_clear()
        result = hunt_derived_k(box)
        # 4,512 coprime tuples; only the 10 kept ones get a report, and the
        # 64-digit logs are those of their primes and bound parameters.
        assert len(result.solutions) == 10
        assert sorted(s.canonical_key() for s in built) == sorted(keys(result))
        assert len(bigmath._ln_cache) < 100
        # The screen reads a rough cofactor below 10**15 with no primality
        # test or rho, once the primes below 10**5 up to its cube root are
        # out.  Factoring every k in full took 895 rho calls and 4,073
        # primality tests; reading cofactors below 10**12 only, 482 and 955.
        assert calls == {"_brent_rho": 114, "is_prime": 242}

    def test_screen_rejects_nothing_it_cannot_prove(self):
        s = validate_solution(5, 9, 23, 109, 1, 2)
        R = factorize_product((9, 23, 109, 1, 2)).radical()
        for t in ("1e400", "NaN", "-Infinity", "1e-310", "1e-400", "0", "-2", "1.629911684127048"):
            assert not quality_below(s, Decimal(t), R), t
        assert quality_below(s, Decimal("1.629911684128"), R)
        # Here the float logs put q more than two unit roundoffs low, so a
        # screen with no margin would reject a threshold two unit
        # roundoffs below the exact q.
        s = validate_solution(6, 7, 18, 1, 2, 67906799)
        q = gains.compute_gains(s).q
        t = CTX.multiply(q, 1 - Decimal(2) ** -52)
        R = factorize_product((7, 18, 1, 2, 67906799)).radical()
        assert t < q and not quality_below(s, t, R)
        assert math.log(2) + 6 * math.log(18) < float(t) * math.log(R)

    def test_each_tuple_is_factored_once(self, monkeypatch):
        # Every tuple has q > 0.1, so the screen keeps all of them and each
        # gets a report, from the factors the screen read.  Each tuple's k
        # is factored once, alone; the parts it shares, A*x and B*y, are
        # factored at most once each, with and without the screen.
        box = derived_box((7, 8), (2, 12), (2, 12), (1, 2), (1, 2), q_threshold=Decimal("0.1"))
        coprime = brute_force_oracle(box._replace(q_threshold=None))
        factored = []
        original = factor.factorize_product

        def counted(components, budget=None):
            factored.append(tuple(components))
            return original(components, budget=budget)

        for module in (gainlab, bigmath, factor, gains, search, corpus, cli):
            for name, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, name, counted)
        for threshold in (None, box.q_threshold):
            factored.clear()
            gains.shared_part.cache_clear()
            result = hunt_derived_k(box._replace(q_threshold=threshold))
            solutions = [s for s, _ in result.solutions]
            assert len(solutions) == len(coprime.solutions) > 100
            assert sorted(c for c in factored if len(c) == 1) == sorted((s.k,) for s in solutions)
            shared = [c for c in factored if len(c) != 1]
            parts = {(s.x, s.A) for s in solutions} | {(s.y, s.B) for s in solutions}
            assert sorted(shared) == sorted(set(shared)) and set(shared) <= parts

    def test_a_row_wider_than_the_held_keys_takes_each_part_once(self):
        # hunt --n 2 --x 2:5 --y 2:6000 --A 1 --B 1: each x walks the row's
        # y again, and the row has more parts than gains._HELD = 4,096 keys;
        # an LRU of 4,096 parts took its 5,799 parts 9,331 times.  The parts
        # memo empties only with gains._bounds, whose one row is never dropped.
        box = derived_box((2, 2), (2, 5), (2, 6000), (1, 1), (1, 1), q_threshold=Decimal("1.2"))
        gains._bounds.cache_clear()
        gains.shared_part.cache_clear()
        hunt_derived_k(box)
        candidates = [(x, y) for x in range(2, 6) for y in range(x + 1, 6001) if math.gcd(x, y) == 1]
        parts = {(x, 1) for x, _ in candidates} | {(y, 1) for _, y in candidates}
        assert gains.shared_part.cache_info().misses == len(parts) == 5799

    @given(st.integers(min_value=2, max_value=2 ** 256))
    @example(2 ** 53 + 1)
    @example(2 ** 256)
    @example(2 ** 1024 + 1)
    @example(3 ** 1000)
    @example(10 ** 400 - 1)
    def test_log_error_bound(self, v):
        # The per-log bound the screen's margin rests on, against a
        # 40-digit Decimal.ln.
        wide = Context(prec=40)
        exact = Decimal(v).ln(wide)
        error = abs(wide.subtract(Decimal(math.log(v)), exact))
        assert error <= wide.multiply(Decimal(gains._LOG_ERR), exact)


def merged_report(s, budget=None):
    """The report of s from factorize_product over all five parts, or its partial report."""
    try:
        f = factorize_product((s.x, s.y, s.A, s.B, s.k), budget=budget)
    except factor.FactorBudgetExceeded:
        return gains.compute_gains_partial(s)
    return gains.compute_gains(validate_solution(*s), sums=ln_sums(f.factors))


def report_text(g):
    return [str(v) if isinstance(v, Decimal) else v for v in g]


class TestPartSums:
    """A scan's report, summed by coprime part, equals the merged factorization's."""

    @staticmethod
    def assert_reports_equal(result, budget=None):
        for s, g in result.solutions:
            assert report_text(g) == report_text(merged_report(s, budget)), s

    @pytest.mark.parametrize(
        "box, budget",
        [
            # A = 2 and x = 4, 6, ...: the A*x part repeats a prime.
            (derived_box((2, 3), (2, 9), (2, 9), (2, 4), (1, 1)), None),
            # B = 3 and y = 3, 6, 9: the B*y part repeats a prime.
            (derived_box((2, 3), (2, 9), (2, 9), (1, 2), (3, 3)), None),
            # x and y near 10**4, past factor._cache's limit.
            (derived_box((2, 3), (10 ** 4 - 2, 10 ** 4 + 2), (10 ** 4, 10 ** 4 + 3), (1, 2), (1, 2)), None),
            # x and y near 10**8: those parts may need rho, and are
            # factored with k under the tuple's budget.
            (derived_box((2, 2), (10 ** 8 - 1, 10 ** 8 + 2), (10 ** 8, 10 ** 8 + 2), (1, 1), (1, 2)), None),
            (derived_box((2, 2), (10 ** 8 - 1, 10 ** 8 + 2), (10 ** 8, 10 ** 8 + 2), (1, 1), (1, 2)), 0),
            # x = HARD_K, then y = HARD_K, need rho while their k do not: a
            # budget of 0 leaves every report partial.
            (derived_box((2, 2), (HARD_K, HARD_K), (HARD_K + 1, HARD_K + 4), (1, 1), (1, 2)), 0),
            (derived_box((2, 2), (HARD_K - 3, HARD_K - 1), (HARD_K, HARD_K), (1, 1), (1, 2)), 0),
            # HARD_K at x = 15 and the golden hunt-partial box: partial
            # reports at budgets 10 and 0.
            (derived_box((2, 2), (15, 21), (10022, 10022), (1, 1), (1, 1)), 10),
            (TestFactorMemo.PARTIAL_BOX, 0),
            (fixed_box((2, 2), (15, 15), (10022, 10022), (1, 1), (1, 1), (HARD_K, HARD_K)), 10),
            (fixed_box((2, 3), (2, 30), (2, 200), (1, 4), (1, 3), (1, 40)), None),
        ],
        ids=["A-x-share", "B-y-share", "past-memo", "rho-part", "rho-part-budget-0", "rho-x",
             "rho-y", "partial-budget-10", "partial-budget-0", "fixed-partial", "fixed"],
    )
    def test_boxes(self, box, budget):
        run = enumerate_fixed_k if box.mode == FIXED_K else hunt_derived_k
        result = run(box, budget=budget)
        assert result.solutions
        self.assert_reports_equal(result, budget)
        if budget is not None:
            assert any(g.R is None for _, g in result.solutions)

    @given(
        st.sampled_from([2, 10 ** 4 - 3, 10 ** 8 - 2, HARD_K - 2]),
        st.integers(2, 3), st.integers(0, 3), st.integers(0, 4), st.integers(0, 4),
        st.integers(1, 6), st.integers(0, 2), st.integers(0, 4), st.integers(0, 2),
        st.sampled_from([None, 0, 10]),
        st.sampled_from([None, "1", "1.2"]),
    )
    def test_random_hunts(self, base, n, x_w, y_lo, y_w, a_lo, a_w, b_up, b_w, budget, threshold):
        # B starts at or above A's start, so most boxes hold a solution;
        # near 10**8, n = 2 keeps the rho stage short.
        n = 2 if base > 10 ** 4 else n
        box = derived_box(
            (n, n), (base, base + x_w), (base + y_lo, base + y_lo + y_w),
            (a_lo, a_lo + a_w), (a_lo + b_up, a_lo + b_up + b_w),
            q_threshold=None if threshold is None else Decimal(threshold),
        )
        self.assert_reports_equal(hunt_derived_k(box, budget=budget), budget)


class TestLogOracle:
    """Gains from cached prime logs equal the gains from direct logs."""

    @staticmethod
    def assert_direct_logs_agree(result: SearchResult):
        for _, g in result.solutions:
            ln_c, ln_p = Decimal(g.C).ln(CTX), Decimal(g.P).ln(CTX)
            with localcontext(CTX):
                assert str(g.G_a) == str(ln_c / ln_p)
                if g.R is not None:
                    ln_r = Decimal(g.R).ln(CTX)
                    assert str(g.G_p) == str(ln_p / ln_r)
                    assert str(g.q) == str(ln_c / ln_r)

    def test_hunt_reports_and_cache_keys(self):
        clear_ln_cache()
        box = derived_box((2, 4), (2, 20), (2, 20), (1, 2), (1, 2))
        result = hunt_derived_k(box)
        assert len(result.solutions) > 100
        self.assert_direct_logs_agree(result)
        # Only primes and the bound formulas' y, B and A*B (all at most 20
        # here) are cached, so the cache does not grow with the solutions.
        assert all(sympy.isprime(v) or v <= 20 for v in bigmath._ln_cache)

    def test_partial_reports(self):
        # x = 15 derives HARD_K, which a zero budget cannot split.
        box = derived_box((2, 2), (15, 21), (10022, 10022), (1, 1), (1, 1))
        result = hunt_derived_k(box, budget=0)
        assert [g.R is None for _, g in result.solutions] == [False, False, False, True]
        self.assert_direct_logs_agree(result)


class TestProgress:
    def test_progress_tick_on_large_box(self, capsys):
        box = fixed_box((9, 9), (2, 107), (2, 2), (1, 100), (1, 100), (1, 1))
        assert cell_count(box) == 1_060_000
        enumerate_fixed_k(box)
        err = capsys.readouterr().err
        assert "progress: 1000000/1060000 cells" in err

    def test_progress_tick_reports_rate_and_eta(self, capsys, monkeypatch):
        monkeypatch.setattr(search, "PROGRESS_INTERVAL", 30)
        enumerate_fixed_k(spec_fixed_box())
        ticks = capsys.readouterr().err.splitlines()
        assert len(ticks) == 3
        for tick in ticks:
            assert re.fullmatch(
                r"progress: \d+/90 cells, \d+ solutions, \d+ cells/s, ETA \d+\.\ds", tick
            )

    def test_hunt_ticks_once_per_x(self, capsys, monkeypatch):
        # Each x stands for its 11 y cells, so ticks fall on multiples of 11.
        monkeypatch.setattr(search, "PROGRESS_INTERVAL", 30)
        box = derived_box((2, 2), (2, 8), (2, 12), (1, 1), (1, 1))
        assert cell_count(box) == 77
        hunt_derived_k(box)
        ticks = capsys.readouterr().err.splitlines()
        for tick in ticks:
            assert re.fullmatch(
                r"progress: \d+/77 cells, \d+ solutions, \d+ cells/s, ETA \d+\.\ds", tick
            )
        assert [int(re.match(r"progress: (\d+)/", t).group(1)) for t in ticks] == [33, 66]

    def test_no_progress_on_small_box(self, capsys):
        enumerate_fixed_k(spec_fixed_box())
        assert "progress" not in capsys.readouterr().err

    @pytest.mark.parametrize(
        "lead, cells, times, interval",
        [
            (0, 11, 7, 30),
            (0, 7, 20, 30),  # 140 cells: the batch spans four intervals
            (2, 3, 10, 30),  # a tick on the interval itself
            (1, 50, 4, 30),  # more cells per step than the interval
            (5, 1, 100, 25),
            (3, 4, 0, 30),
        ],
    )
    def test_batched_ticks_fall_where_single_advances_put_them(
        self, capsys, monkeypatch, lead, cells, times, interval
    ):
        # lead single advances first, so the batch starts between ticks.
        monkeypatch.setattr(search, "PROGRESS_INTERVAL", interval)

        def ticks(batched: bool) -> tuple[list[int], int]:
            progress = search._Progress(10 ** 4)
            for _ in range(lead):
                progress.advance(cells)
            if batched:
                progress.advance(cells, times)
            else:
                for _ in range(times):
                    progress.advance(cells)
            err = capsys.readouterr().err
            return [int(t) for t in re.findall(r"progress: (\d+)/", err)], progress.scanned

        single = ticks(batched=False)
        assert ticks(batched=True) == single
        assert single[1] == (lead + times) * cells


    @pytest.mark.parametrize(
        "run, box, per_x",
        [
            # y stops at 30, so rows end early; k from 1 to 50.
            (enumerate_fixed_k, fixed_box((2, 3), (2, 40), (2, 30), (1, 3), (1, 3), (1, 50)), 50),
            (hunt_derived_k, derived_box((2, 3), (2, 30), (2, 30), (1, 2), (1, 2)), 29),
        ],
    )
    def test_ticks_match_advancing_per_x(self, capsys, monkeypatch, run, box, per_x):
        # Each tick's cell and solution counts, ignoring rate and ETA, are
        # those of a _Progress advanced once per x, in scan order, after
        # that x's solutions are counted.
        monkeypatch.setattr(search, "PROGRESS_INTERVAL", 500)
        tick = re.compile(r"progress: (\d+/\d+ cells, \d+ solutions), ")
        found = collections.Counter((s.n, s.A, s.B, s.x) for s, _ in run(box).solutions)
        got = tick.findall(capsys.readouterr().err)
        progress = search._Progress(cell_count(box))
        for n in range(box.n_range[0], box.n_range[1] + 1):
            for A in range(box.A_range[0], box.A_range[1] + 1):
                for B in range(box.B_range[0], box.B_range[1] + 1):
                    for x in range(box.x_range[0], box.x_range[1] + 1):
                        progress.found += found[n, A, B, x]
                        progress.advance(per_x)
        expected = tick.findall(capsys.readouterr().err)
        assert got == expected
        # Solutions are found between ticks, not only before the first.
        assert len({t.split(", ")[1] for t in expected}) > 5


class TestExhaustedRows:
    """Once a row's least y has passed y_hi, the rest of the row is counted at once."""

    def progress_steps(self, monkeypatch, run, box) -> list[int]:
        steps = []
        advance = search._Progress.advance

        def counted(progress, cells, times=1):
            steps.append(cells * times)
            advance(progress, cells, times)

        monkeypatch.setattr(search._Progress, "advance", counted)
        result = run(box)
        assert result.cells_scanned == cell_count(box) == sum(steps)
        return steps

    def test_fixed_k_row_ends_at_once(self, monkeypatch):
        # No candidate past x = 3: y0 then exceeds y_hi for 999,996 more x.
        box = fixed_box((2, 2), (2, 10 ** 6), (2, 3), (1, 1), (1, 1), (1, 1))
        assert len(self.progress_steps(monkeypatch, enumerate_fixed_k, box)) <= 4

    def test_hunt_row_ends_at_once(self, monkeypatch, capsys):
        box = derived_box((2, 2), (2, 10 ** 6), (2, 3), (1, 1), (1, 1))
        assert len(self.progress_steps(monkeypatch, hunt_derived_k, box)) <= 4
        # Two cells per x: the tick falls where the per-x walk puts it.
        err = capsys.readouterr().err
        assert re.findall(r"progress: (\d+)/", err) == ["1000000"]


# Coefficients of q: 64 digits, as a report's q has, or a few, as an exact
# quotient may have.
COEFFICIENTS = st.one_of(
    st.sampled_from([10 ** 63, 10 ** 64 - 2]),
    st.integers(10 ** 63, 10 ** 64 - 2),
    st.integers(1, 10 ** 4),
)
SOLUTION_FIELDS = st.tuples(*[st.integers(1, 4)] * 6)


def paper_order(item):
    """A hunt's output order spelled out in Decimals, apart from search._ORDER.

    Best quality first (copy_negate is exact, where -q would round), every
    partial report after every known q, canonical order breaking ties.
    """
    s, g = item
    if g.q is None:
        return (True, Decimal(0), s.canonical_key())
    return (False, g.q.copy_negate(), s.canonical_key())


class TestMergeKeys:
    """Rows split into random runs, spilled and merged come out in search order."""

    @staticmethod
    def merged(data, mode, items) -> list[str]:
        cuts = set(data.draw(st.lists(st.integers(1, len(items)), max_size=6)))
        # Few blocks per run put several rows in a block; few rows per
        # render batch let add render some.
        blocks, render_rows = data.draw(st.integers(1, 64)), data.draw(st.integers(1, 8))
        rows = runs.SortedRows(search._ORDER[mode], lambda s, g: repr(s))
        with pytest.MonkeyPatch.context() as patch, contextlib.closing(rows):
            patch.setattr(runs, "RUN_BLOCKS", blocks)
            patch.setattr(runs, "RENDER_ROWS", render_rows)
            for i, item in enumerate(items):
                if i in cuts:
                    rows._hold()
                    rows._spill()
                rows.add(item)
            return [r[-1] for batch in rows.batches() for r in batch]

    @given(st.data())
    def test_hunt_keys(self, data):
        # Each q comes with its neighbour in the 64th digit and with itself
        # padded to 64 digits (an equal value), so ties are frequent.
        pool = [None]
        bases = st.lists(st.tuples(COEFFICIENTS, st.integers(-70, 4)), min_size=1, max_size=4)
        for c, e in data.draw(bases):
            pad = 64 - len(str(c))
            pool += [Decimal(f"{c}E{e}"), Decimal(f"{c + 1}E{e}"),
                     Decimal(f"{c * 10 ** pad}E{e - pad}")]
        qs = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=40))
        n = len(qs)
        fields = data.draw(st.lists(SOLUTION_FIELDS, min_size=n, max_size=n, unique=True))
        blank = gains.GainReport(*[None] * len(gains.GainReport._fields))
        items = [(gains.Solution(*f), blank._replace(q=q)) for f, q in zip(fields, qs)]
        expected = [repr(s) for s, _ in sorted(items, key=paper_order)]
        assert self.merged(data, DERIVED_K, items) == expected

    # No shrink phase, nor the explain phase that follows it: shrinking a
    # failure of this test ran for minutes near 480 MB, so a failure is
    # reported as first found.  Applied here, not as a decorator, since the
    # test's source seeds its derandomized examples: a passing run draws
    # the same ones.
    test_hunt_keys = settings(
        phases=(Phase.explicit, Phase.reuse, Phase.generate, Phase.target)
    )(test_hunt_keys)

    @given(st.data())
    def test_fixed_k_keys(self, data):
        fields = data.draw(st.lists(SOLUTION_FIELDS, min_size=1, max_size=40, unique=True))
        items = [(gains.Solution(*f), None) for f in fields]
        expected = [repr(s) for s, _ in sorted(items, key=lambda item: item[0].canonical_key())]
        assert self.merged(data, FIXED_K, items) == expected
