"""Acceptance gate: one test per acceptance criterion, each printing a verdict.

Every test times its own core work with `time.perf_counter` and checks the
stated tolerance with Decimal arithmetic under the package context.  The
criterion-3 gain-value test states the published figures for the high-exponent
case; recomputation does not support them, so that test fails (see the
companion test for the flagged inconsistency, which passes).
"""

import json
import random
import time
from decimal import Decimal, localcontext

from gainlab.bigmath import CTX, clear_ln_cache, ipow, ln_big, nth_root_floor
from gainlab.cli import solution_report
from gainlab.corpus import FAIL, PASS, builtin_corpus, verify_entry
from gainlab.factor import clear_cache
from gainlab.gains import (
    Solution,
    _bounds,
    compute_gains,
    ga_lower_bound,
    gp_upper_bound,
    max_admissible_exponent,
    q_lower_bound,
)
from gainlab.search import (
    SearchBox,
    brute_force_oracle,
    enumerate_fixed_k,
    hunt_derived_k,
    merge_results,
    split_box,
)


def _verdict(label: str, checks: list) -> None:
    """Print the single pass/fail line for a criterion, then assert it."""
    failures = [name for name, good in checks if not good]
    ok = not failures
    print(f"CRITERION {label}: {'PASS' if ok else 'FAIL'}")
    assert ok, "failed checks: " + "; ".join(failures)


def _close(actual: Decimal, expected: str, tol: str) -> bool:
    with localcontext(CTX):
        return abs(actual - Decimal(expected)) <= Decimal(tol)


def _cold_start() -> None:
    clear_cache()
    clear_ln_cache()
    _bounds.cache_clear()


def test_criterion_1_quintic_case_gains():
    _cold_start()
    start = time.perf_counter()
    g = compute_gains(Solution(n=5, x=9, y=23, A=109, B=1, k=2))
    elapsed = time.perf_counter() - start
    _verdict("1", [
        (f"q={g.q} vs 1.6299", _close(g.q, "1.6299", "1e-3")),
        (f"G_a={g.G_a} vs 1.46283", _close(g.G_a, "1.46283", "5e-4")),
        (f"G_p={g.G_p} vs 1.114", _close(g.G_p, "1.114", "1e-3")),
        (f"elapsed={elapsed:.4f}s < 0.1s", elapsed < 0.1),
    ])


def test_criterion_2_cubic_case_gains_and_bounds():
    _cold_start()
    start = time.perf_counter()
    g = compute_gains(Solution(n=3, x=25, y=128, A=3087, B=23, k=121))
    ga_min = ga_lower_bound(3, 3087, 23, 128)
    gp_strong = gp_upper_bound(3, 3087, 23, 128, Decimal(2))
    gp_ultra = gp_upper_bound(3, 3087, 23, 128, Decimal("1.5"))
    elapsed = time.perf_counter() - start
    _verdict("2", [
        (f"G_p={g.G_p} vs 2.2091", _close(g.G_p, "2.2091", "5e-4")),
        (f"G_a={g.G_a} vs 0.7360", _close(g.G_a, "0.7360", "5e-4")),
        (f"radical={g.R} == 53130", g.R == 53130),
        (f"ga_min={ga_min} vs 0.4790", _close(ga_min, "0.4790", "5e-4")),
        (f"gp_max(2)={gp_strong} vs 4.1754", _close(gp_strong, "4.1754", "1e-3")),
        (f"gp_max(1.5)={gp_ultra} vs 3.1315", _close(gp_ultra, "3.1315", "1e-3")),
        (f"elapsed={elapsed:.4f}s < 0.1s", elapsed < 0.1),
    ])


def test_criterion_3_high_exponent_bounds_and_consistency_flag():
    _cold_start()
    start = time.perf_counter()
    entry = next(e for e in builtin_corpus() if e.name == "nitaj")
    report = verify_entry(entry)
    A = 7 ** 2 * 41 ** 2 * 311 ** 3
    ga_min = ga_lower_bound(59, A, 1, 2)
    gp_strong = gp_upper_bound(59, A, 1, 2, Decimal(2))
    elapsed = time.perf_counter() - start
    _verdict("3 (bounds, printed-k flag)", [
        (f"ga_min={ga_min} vs 0.5815", _close(ga_min, "0.5815", "5e-4")),
        (f"gp_max(2)={gp_strong} vs 3.4394", _close(gp_strong, "3.4394", "1e-3")),
        ("printed k flagged inconsistent",
         report.consistency["printed_k"] == FAIL),
        ("identity holds for derived k",
         report.consistency["identity"] == PASS),
        (f"elapsed={elapsed:.4f}s < 1s", elapsed < 1.0),
    ])


def test_criterion_3_high_exponent_published_gain_values():
    # The published account gives G_p = 3.2737 and a ratio of 0.952 to the
    # conjectured ceiling for this case.  Recomputing from the raw parameters
    # (with k derived from the defining equation, since the printed k fails
    # the identity) gives G_p ~ 1.3234 and ratio ~ 0.3847.  This test states
    # the published figures and fails until the data supports them.
    _cold_start()
    g = compute_gains(
        Solution(n=59, x=1, y=2, A=7 ** 2 * 41 ** 2 * 311 ** 3, B=1,
                 k=2 ** 59 - 7 ** 2 * 41 ** 2 * 311 ** 3)
    )
    with localcontext(CTX):
        ratio = g.G_p / gp_upper_bound(59, 7 ** 2 * 41 ** 2 * 311 ** 3, 1, 2,
                                       Decimal(2))
    _verdict("3 (published gain values)", [
        (f"G_p={g.G_p} vs 3.2737", _close(g.G_p, "3.2737", "5e-3")),
        (f"ratio={ratio} vs 0.952", _close(ratio, "0.952", "5e-3")),
    ])


def test_criterion_4_unit_coefficient_caps_are_exact():
    checks = []
    for y in (2, 10, 1000):
        v2 = gp_upper_bound(2, 1, 1, y, Decimal("1.5"))
        v3 = gp_upper_bound(3, 1, 1, y, Decimal("1.5"))
        checks.append((f"gp_max(n=2, y={y}) == 3 exactly", v2 == Decimal(3)))
        checks.append((f"gp_max(n=3, y={y}) == 2.5 exactly", v3 == Decimal("2.5")))
    _verdict("4", checks)


def test_criterion_5_admissible_exponents_and_exhaustive_null_search():
    start = time.perf_counter()
    box = SearchBox(
        mode="fixed_k",
        n_range=(2, 6), A_range=(1, 1), B_range=(1, 1),
        x_range=(2, 1000), y_range=(2, 1000), k_range=(1, 1),
    )
    direct = enumerate_fixed_k(box, cell_ceiling=10 ** 7)
    oracle = brute_force_oracle(box)
    elapsed = time.perf_counter() - start
    _verdict("5", [
        ("max_admissible_exponent(2) == 3",
         max_admissible_exponent(Decimal(2)) == 3),
        ("max_admissible_exponent(1.5) == 2",
         max_admissible_exponent(Decimal("1.5")) == 2),
        (f"direct search found {len(direct.solutions)} (want 0)",
         direct.solutions == ()),
        (f"oracle found {len(oracle.solutions)} (want 0)",
         oracle.solutions == ()),
        (f"elapsed={elapsed:.2f}s < 10s", elapsed < 10.0),
    ])


def test_criterion_6_survey_box_and_per_solution_invariants():
    start = time.perf_counter()
    box = SearchBox(
        mode="derived_k",
        n_range=(2, 5), A_range=(1, 10), B_range=(1, 10),
        x_range=(2, 60), y_range=(2, 60),
    )
    result = hunt_derived_k(box, cell_ceiling=10 ** 7)
    elapsed = time.perf_counter() - start

    bad_ga = bad_q = bad_product = bad_gp = incomplete = 0
    with localcontext(CTX):
        for s, g in result.solutions:
            if g.q is None:
                incomplete += 1
                continue
            if not g.G_a > ga_lower_bound(s.n, s.A, s.B, s.y):
                bad_ga += 1
            if not g.q > q_lower_bound(s.n, s.A, s.B, s.y):
                bad_q += 1
            if abs(g.q - g.G_a * g.G_p) > Decimal("1e-40") * g.q:
                bad_product += 1
            if g.G_p < 1:
                bad_gp += 1
    _verdict("6", [
        (f"{len(result.solutions)} solutions (want >= 300)",
         len(result.solutions) >= 300),
        (f"{incomplete} incomplete reports (want 0)", incomplete == 0),
        (f"{bad_ga} solutions at or below the approximation floor", bad_ga == 0),
        (f"{bad_q} solutions at or below the quality floor", bad_q == 0),
        (f"{bad_product} solutions where q != G_a*G_p at 1e-40", bad_product == 0),
        (f"{bad_gp} solutions with G_p < 1", bad_gp == 0),
        (f"elapsed={elapsed:.1f}s < 60s", elapsed < 60.0),
    ])


def _random_fixed_box(rng: random.Random) -> SearchBox:
    n_lo = rng.randint(2, 4)
    x_lo = rng.randint(2, 20)
    y_lo = rng.randint(2, 20)
    k_lo = rng.randint(1, 50)
    return SearchBox(
        mode="fixed_k",
        n_range=(n_lo, n_lo + rng.randint(0, 2)),
        A_range=(1, rng.randint(1, 3)),
        B_range=(1, rng.randint(1, 2)),
        x_range=(x_lo, x_lo + rng.randint(0, 25)),
        y_range=(y_lo, y_lo + rng.randint(0, 25)),
        k_range=(k_lo, k_lo + rng.randint(0, 15)),
    )


def _random_derived_box(rng: random.Random) -> SearchBox:
    n_lo = rng.randint(2, 4)
    x_lo = rng.randint(2, 20)
    y_lo = rng.randint(2, 20)
    return SearchBox(
        mode="derived_k",
        n_range=(n_lo, n_lo + rng.randint(0, 1)),
        A_range=(1, rng.randint(1, 4)),
        B_range=(1, rng.randint(1, 3)),
        x_range=(x_lo, x_lo + rng.randint(0, 30)),
        y_range=(y_lo, y_lo + rng.randint(0, 30)),
    )


def _oracle_cells(box: SearchBox) -> int:
    ranges = [box.n_range, box.A_range, box.B_range, box.x_range, box.y_range]
    if box.mode == "fixed_k":
        ranges.append(box.k_range)
    total = 1
    for lo, hi in ranges:
        total *= hi - lo + 1
    return total


def _result_doc(result) -> str:
    return json.dumps({
        "solutions": [solution_report(s, g) for s, g in result.solutions],
        "cells_scanned": result.cells_scanned,
    })


def test_criterion_7_oracle_equivalence_and_partition_merge():
    rng = random.Random(0x5EED)
    start = time.perf_counter()

    mismatches = []
    for i in range(20):
        if i % 2 == 0:
            box = _random_fixed_box(rng)
            direct = enumerate_fixed_k(box, cell_ceiling=10 ** 7)
        else:
            box = _random_derived_box(rng)
            direct = hunt_derived_k(box, cell_ceiling=10 ** 7)
        assert _oracle_cells(box) <= 10 ** 6
        oracle = brute_force_oracle(box)
        if direct.solutions != oracle.solutions:
            mismatches.append(f"box {i} ({box.mode})")

    whole_fixed = SearchBox(
        mode="fixed_k",
        n_range=(2, 3), A_range=(1, 2), B_range=(1, 2),
        x_range=(2, 40), y_range=(2, 60), k_range=(1, 12),
    )
    whole_derived = SearchBox(
        mode="derived_k",
        n_range=(2, 3), A_range=(1, 3), B_range=(1, 3),
        x_range=(2, 40), y_range=(2, 40),
    )
    partition_ok = []
    for whole, runner, mode in (
        (whole_fixed, enumerate_fixed_k, "fixed_k"),
        (whole_derived, hunt_derived_k, "derived_k"),
    ):
        parts = split_box(whole, 8)
        merged = merge_results(
            [runner(p, cell_ceiling=10 ** 7) for p in parts], mode
        )
        partition_ok.append(
            (f"{mode} 8-way partition merge is byte-identical",
             _result_doc(merged) == _result_doc(runner(whole, cell_ceiling=10 ** 7)))
        )

    elapsed = time.perf_counter() - start
    _verdict("7", [
        (f"20 randomized boxes agree with oracle (mismatches: {mismatches})",
         not mismatches),
        *partition_ok,
        (f"elapsed={elapsed:.1f}s < 60s", elapsed < 60.0),
    ])


def test_criterion_8_logarithm_and_root_primitives():
    rng = random.Random(0xB16)
    start = time.perf_counter()

    worst = Decimal(0)
    with localcontext(CTX):
        for _ in range(10 ** 4):
            a = rng.randint(2, 10 ** 18)
            b = rng.randint(2, 10 ** 18)
            total = ln_big(a * b).value
            err = abs(total - (ln_big(a).value + ln_big(b).value))
            rel = err / total
            if rel > worst:
                worst = rel

    root_failures = 0
    for _ in range(10 ** 4):
        n = rng.randint(2, 40)
        v = rng.randint(1, 10 ** 36)
        r = nth_root_floor(v, n)
        if not (ipow(r, n) <= v < ipow(r + 1, n)):
            root_failures += 1

    elapsed = time.perf_counter() - start
    _verdict("8", [
        (f"worst additivity error {worst} <= 1e-45 relative",
         worst <= Decimal("1e-45")),
        (f"{root_failures} root bracketing failures (want 0)",
         root_failures == 0),
        (f"elapsed={elapsed:.1f}s < 30s", elapsed < 30.0),
    ])
