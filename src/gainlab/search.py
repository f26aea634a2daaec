"""Exhaustive solution search over bounded parameter boxes.

Both modes run one scan: for each (n, A, B, x) the admissible y form a
window whose least y, the least y with k = B*y^n - A*x^n in the k window,
never decreases as x grows.  So the scan takes one exact root per
(n, A, B) row, walks that y up by a few exact steps per x (a root again
after a long gap), and steps y up while k stays inside the window.
fixed_k takes the box's k window; derived_k (a hunt) takes every k from
1 up.  No power is tabulated, so scan memory does not grow with the
width of any axis.  A derived_k hunt with a quality threshold screens
each tuple in floats once k is trial divided, and factors k in full and
builds a 64-digit report only if not proven below it.  A deliberately
dumb brute-force oracle backs both in tests: it loops over every
(n, A, B, x, y), derives k, and refuses a box of more such cells than
its ceiling.  Boxes split into disjoint sub-boxes whose merged results
are identical to a single-box run, so parallel schedules cannot change
output.
"""

from __future__ import annotations

import sys
from decimal import Decimal
from math import gcd, inf, prod
from time import perf_counter
from typing import NamedTuple

from .bigmath import CTX, LN_PRECISION, int_text, ln_sums, nth_root_floor
from .factor import FactorBudgetExceeded, _Trialled, factorize_product
from .gains import (
    PARAM_FLOORS,
    GainReport,
    Solution,
    compute_gains,
    compute_gains_partial,
    quality_below,
    shared_part,
    validate_solution,
)

FIXED_K = "fixed_k"
DERIVED_K = "derived_k"

DEFAULT_CELL_CEILING = 10 ** 10
ORACLE_CELL_CEILING = 10 ** 7
PROGRESS_INTERVAL = 10 ** 6
# Steps the fixed-k scan walks its least y up from one x to the next before
# it takes an exact root instead.
_WALK_STEPS = 4


class BoxTooLarge(ValueError):
    """The box's cell count exceeds the allowed ceiling."""

    def __init__(self, cells: int, ceiling: int):
        super().__init__(f"box has {int_text(cells)} cells, ceiling is {ceiling}")
        self.cells = cells
        self.ceiling = ceiling


class SearchBox(NamedTuple):
    """Inclusive parameter intervals plus search mode.

    k_range applies only in fixed_k mode.  q_threshold filters derived_k
    output by quality.  require_nontrivial lifts the effective x lower
    bound to 2 (trivial x = 1 solutions are skipped).
    """

    n_range: tuple[int, int]
    x_range: tuple[int, int]
    y_range: tuple[int, int]
    A_range: tuple[int, int]
    B_range: tuple[int, int]
    mode: str
    k_range: tuple[int, int] | None = None
    q_threshold: Decimal | None = None
    require_nontrivial: bool = True


class SearchResult(NamedTuple):
    """Solutions with their reports, plus the cells the mode's scan counts.

    A plain value: two runs over the same box give equal results.
    """

    solutions: tuple[tuple[Solution, GainReport], ...]
    cells_scanned: int


def _check_range(name: str, rng: tuple[int, int], minimum: int) -> None:
    lo, hi = rng
    if not all(isinstance(v, int) and not isinstance(v, bool) for v in rng):
        raise ValueError(f"{name} bounds must be integers")
    if lo > hi:
        raise ValueError(f"{name} interval [{int_text(lo)}, {int_text(hi)}] is empty")
    if lo < minimum:
        raise ValueError(f"{name} lower bound {int_text(lo)} violates minimum {minimum}")


def _floored(box: SearchBox) -> SearchBox:
    """Apply the non-triviality floor to x (trivial x = 1 tuples are skipped)."""
    if box.require_nontrivial and box.x_range[0] < 2:
        return box._replace(x_range=(2, box.x_range[1]))
    return box


def _normalized(box: SearchBox, expected_mode: str) -> SearchBox:
    """Validate the box and apply the non-triviality floor to x."""
    if box.mode != expected_mode:
        raise ValueError(f"box mode is {box.mode!r}, expected {expected_mode!r}")
    for axis, least in PARAM_FLOORS.items():
        rng = getattr(box, f"{axis}_range")
        if axis == "k":
            if expected_mode != FIXED_K:
                break
            if rng is None:
                raise ValueError("fixed_k mode requires k_range")
        _check_range(f"{axis}_range", rng, least)
    return _floored(box)


def _axis_width(box: SearchBox, axis: str) -> int:
    rng = getattr(box, f"{axis}_range")
    if rng is None:
        return 0
    lo, hi = rng
    return max(0, hi - lo + 1)


def iterated_axes(mode: str) -> tuple[str, ...]:
    """The box axes a given mode actually loops over."""
    if mode == FIXED_K:
        return ("n", "A", "B", "x", "k")
    if mode == DERIVED_K:
        return ("n", "A", "B", "x", "y")
    raise ValueError(f"unknown mode {mode!r}")


def cell_count(box: SearchBox) -> int:
    """Number of tuples the mode's loops visit (after the x floor)."""
    floored = _floored(box)
    return prod(_axis_width(floored, axis) for axis in iterated_axes(box.mode))


class _Progress:
    """Cells scanned and solutions kept, with ticks to stderr every PROGRESS_INTERVAL cells.

    A tick also reports the scan rate since the start and the time left
    at that rate.
    """

    __slots__ = ("scanned", "found", "_next", "_total", "_t0")

    def __init__(self, total: int):
        self.scanned = 0
        self.found = 0
        self._next = PROGRESS_INTERVAL
        self._total = total
        self._t0 = perf_counter()

    def advance(self, cells: int, times: int = 1) -> None:
        """Count cells times over, ticking on the first multiple of cells past each interval."""
        end = self.scanned + cells * times
        while end >= self._next:
            self.scanned += -(-(self._next - self.scanned) // cells) * cells
            rate = self.scanned / (perf_counter() - self._t0)
            eta = (self._total - self.scanned) / rate
            print(
                f"progress: {self.scanned}/{self._total} cells, {self.found} solutions, "
                f"{rate:.0f} cells/s, ETA {eta:.1f}s",
                file=sys.stderr,
            )
            while self._next <= self.scanned:
                self._next += PROGRESS_INTERVAL
        self.scanned = end


# q of a report is positive with at most LN_PRECISION digits, so its
# adjusted exponent e and its coefficient scaled to LN_PRECISION digits, c
# (below _Q_SCALE), give e * _Q_SCALE + c, one int that rises with q exactly.
_Q_SCALE = 10 ** LN_PRECISION


def _hunt_key(item: tuple[Solution, GainReport]) -> tuple:
    s, g = item
    q = g.q
    if q is None:
        return (inf, *s.canonical_key())
    e = q.adjusted()
    return (-e * _Q_SCALE - int(q.scaleb(LN_PRECISION - 1 - e, CTX)), *s.canonical_key())


# Output order of each mode, as a row key of plain numbers, which marshal
# stores as is: canonical for fixed_k; for derived_k best quality first
# (q negated), then every partial report (unknown q, inf), with canonical
# order breaking ties.  No two solutions share a key.
_ORDER = {
    FIXED_K: lambda item: item[0].canonical_key(),
    DERIVED_K: _hunt_key,
}


def _scan(
    box: SearchBox, mode: str, ceiling: float, budget: int | None, cells, sink,
    screen: bool = False,
) -> int:
    """Validate the box, report every candidate that cells yields, filter.

    cells(box, progress) yields a Solution for each coprime candidate of the
    normalized box, proven where it is found (_window_cells) or validated
    (_oracle_cells), and counts its cells on progress; _scan checks no
    invariant again.  A hunt's candidate factors k, within the budget, and
    adds the memoized ln_sums of P's other coprime parts, A*x and B*y
    (gains.shared_part, emptied with gains._bounds), as x and y recur over
    windows of candidates.  When one of them may need rho, or in fixed_k
    mode, whose x and y come about once each, it factors x, y, A, B and k.
    In derived_k mode only, a q_threshold drops reports of lower known
    quality.  With screen, rad(P) is read after trial division of what the
    candidate factors (factor._Trialled), before any split of a cofactor
    below 10^12; a candidate that quality_below proves below the threshold
    is dropped there, and a kept one is factored on from there and gets its
    report.  Each kept (solution, report) pair goes to sink as it is found,
    in scan order; returns the cells scanned.
    """
    b = _normalized(box, mode)
    total = cell_count(b)
    if total > ceiling:
        raise BoxTooLarge(total, ceiling)
    threshold = b.q_threshold if mode == DERIVED_K else None
    screened = threshold if screen else None
    progress = _Progress(total)
    hunt = mode == DERIVED_K
    for s in cells(b, progress):
        _, x, y, A, B, k = s
        parts = (shared_part((x, A)), shared_part((y, B))) if hunt else (None,)
        own, parts = ((x, y, A, B, k), ()) if None in parts else ((k,), parts)
        try:
            if screened is not None:
                own = _Trialled(own, budget)
                if quality_below(s, screened, prod((p[4] for p in parts), start=own.radical)):
                    continue
            f = factorize_product(own, budget=budget)
        except FactorBudgetExceeded:
            # The solution itself is exact; only radical-dependent fields are
            # unavailable, and they are reported as such rather than dropped.
            report = compute_gains_partial(s)
        else:
            report = compute_gains(s, sums=ln_sums(f.factors, *parts))
        if threshold is not None and report.q is not None and report.q < threshold:
            continue
        progress.found += 1
        sink((s, report))
    return progress.scanned


def _collect(
    box: SearchBox, mode: str, ceiling: float, budget: int | None, cells, screen: bool = False
) -> SearchResult:
    """_scan into a list, sorted in the mode's output order."""
    out: list[tuple[Solution, GainReport]] = []
    scanned = _scan(box, mode, ceiling, budget, cells, out.append, screen)
    out.sort(key=_ORDER[mode])
    return SearchResult(tuple(out), scanned)


def _scan_box(box: SearchBox, sink) -> int:
    """enumerate_fixed_k's or hunt_derived_k's scan of box, with their defaults.

    Each kept (solution, report) pair goes to sink, unsorted; returns the
    cells scanned.  The CLI sorts rows itself, holding no report.
    """
    return _scan(
        box, box.mode, DEFAULT_CELL_CEILING, None, _window_cells, sink, box.mode == DERIVED_K
    )


def _window(b: SearchBox) -> tuple[int, int | float, int]:
    """The mode's k window (k_lo, k_hi) and the cells each x counts.

    fixed_k takes the box's k_range and counts its k width.  A hunt's window
    is every k >= 1, with no upper end since y <= y_hi bounds k already, and
    it counts the y width.
    """
    if b.mode == FIXED_K:
        return (*b.k_range, _axis_width(b, "k"))
    return 1, inf, _axis_width(b, "y")


def _window_cells(b: SearchBox, progress: _Progress):
    """Each coprime candidate of b's k window as a Solution, proven as it is found."""
    (n_lo, n_hi), (x_lo, x_hi), (y_lo, y_hi), (a_lo, a_hi), (b_lo, b_hi) = b[:5]
    k_lo, k_hi, per_x = _window(b)
    for n in range(n_lo, n_hi + 1):
        for A in range(a_lo, a_hi + 1):
            for B in range(b_lo, b_hi + 1):
                # y0 is the least y >= y_lo with B*y0^n >= A*x^n + k_lo, carried
                # from x to x; 0 until the row's first x takes the root.  Once
                # y0 has passed y_hi no later x has a candidate, and the rest
                # of the row's cells are counted at once.  done counts the x
                # finished but not yet advanced: they are advanced in one
                # batch before the next yield and at the row's end, so every
                # tick lands on the cell and solution counts that advancing
                # per x would give.
                y0 = byn = done = 0
                for x in range(x_lo, x_hi + 1):
                    if y0 > y_hi:
                        done += x_hi - x + 1
                        break
                    axn = A * x ** n
                    least = axn + k_lo
                    # No y exists unless B divides A*x^n + k for some k in the
                    # window.
                    if -least % B <= k_hi - k_lo:
                        # Walk y0 up from the last x's, or take the root.
                        steps = _WALK_STEPS if y0 else 0
                        while byn < least and steps:
                            y0 += 1
                            byn = B * y0 ** n
                            steps -= 1
                        if byn < least:
                            y0 = max(nth_root_floor((least - 1) // B, n) + 1, y_lo)
                            byn = B * y0 ** n
                        # y steps up from y0 while k <= k_hi.
                        ax = A * x
                        y = y0
                        k = byn - axn
                        while y <= y_hi and k <= k_hi:
                            # _normalized has checked the box's ints and floors,
                            # and k = B*y^n - A*x^n >= k_lo >= 1: past the gcd
                            # gate every invariant of a Solution holds.
                            if gcd(ax, B * y, k) == 1:
                                if done:
                                    progress.advance(per_x, done)
                                    done = 0
                                yield Solution(n, x, y, A, B, k)
                            y += 1
                            k = B * y ** n - axn
                    done += 1
                if done:
                    progress.advance(per_x, done)


def enumerate_fixed_k(
    box: SearchBox,
    *,
    cell_ceiling: int = DEFAULT_CELL_CEILING,
    budget: int | None = None,
) -> SearchResult:
    """All solutions with every parameter inside the box, k in k_range.

    For each (n, A, B, x) the admissible y form one window: the least is
    y0, the least y >= y_lo with B*y0^n >= A*x^n + k_lo, and y steps up
    from y0 while y <= y_hi and k = B*y^n - A*x^n <= k_hi.  For fixed
    (n, A, B), A*x^n + k_lo grows with x, so y0 never decreases: the
    row's first x takes the exact root, y0 = max(nth_root_floor(
    (A*x^n + k_lo - 1) // B, n) + 1, y_lo), and each later x walks y0 up
    by exact steps while B*y0^n < A*x^n + k_lo.  A walk that needs more
    than _WALK_STEPS steps (a long gap) takes the root again instead, and
    once y0 passes y_hi the rest of the row takes no power at all.  The
    walk is skipped when B divides A*x^n + k for no k of the window.  So
    the scan costs about one root per (n, A, B) row plus a few steps per
    x and one per candidate, not one per k; no float ever decides
    membership, and no table of powers is kept.  cells_scanned still
    counts every (n, A, B, x, k) cell of the box.  hunt_derived_k runs
    the same scan.
    """
    return _collect(box, FIXED_K, cell_ceiling, budget, _window_cells)


def hunt_derived_k(
    box: SearchBox,
    *,
    cell_ceiling: int = DEFAULT_CELL_CEILING,
    budget: int | None = None,
) -> SearchResult:
    """All solutions with k derived as B*y^n - A*x^n, ranked by quality.

    The scan is enumerate_fixed_k's window walk with the k window
    [1, inf), since y <= y_hi bounds k already.  Tuples with k < 1 (the
    dominant-term requirement) are counted in cells_scanned, one y-width
    of cells per x, but never visited.  Each tuple past the exact
    coprimality gate is a Solution proven by construction, with no
    validate_solution call.  An optional q_threshold keeps only solutions
    with q >= threshold.  With a threshold, only the tuples that the
    proven float screen (gains.quality_below) does not place below the
    threshold have k factored in full and get 64-digit logs and a report;
    the exact comparison then decides.  A tuple whose factorization
    exceeds the budget gets a partial report, which the threshold keeps,
    unless the screen, which splits no part of k below 10^12, drops it.
    Output is sorted by descending q with canonical order breaking ties.
    """
    return _collect(box, DERIVED_K, cell_ceiling, budget, _window_cells, screen=True)


def _oracle_cells(b: SearchBox, progress: _Progress):
    # Whatever the mode, the oracle visits every (n, A, B, x, y) cell.
    visited = cell_count(b._replace(mode=DERIVED_K))
    if visited > ORACLE_CELL_CEILING:
        raise BoxTooLarge(visited, ORACLE_CELL_CEILING)
    (n_lo, n_hi), (x_lo, x_hi), (y_lo, y_hi), (a_lo, a_hi), (b_lo, b_hi) = b[:5]
    k_lo, k_hi, per_x = _window(b)
    for n in range(n_lo, n_hi + 1):
        for A in range(a_lo, a_hi + 1):
            for B in range(b_lo, b_hi + 1):
                for x in range(x_lo, x_hi + 1):
                    progress.scanned += per_x
                    axn = A * x ** n
                    for y in range(y_lo, y_hi + 1):
                        k = B * y ** n - axn
                        if k_lo <= k <= k_hi and gcd(A * x, B * y, k) == 1:
                            yield validate_solution(n, x, y, A, B, k)


def brute_force_oracle(box: SearchBox, *, budget: int | None = None) -> SearchResult:
    """Reference search: plain nested loops, exact checks, no shortcuts.

    Returns the same SearchResult as the mode's search (same filters,
    same ordering, same cells_scanned).  Both modes loop over every
    (n, A, B, x, y), derive k = B*y^n - A*x^n and keep the coprime tuples
    whose k lies in the mode's window (_window): k_range for fixed_k, every
    k >= 1 for derived_k.  cells_scanned counts the mode's cells per x, as
    the search does: the k width for fixed_k, the y width for derived_k.
    It validates each tuple it keeps with validate_solution, builds every
    report before applying a threshold (no float screen) and prints no
    progress.  Only intended for tests: a box of more than
    ORACLE_CELL_CEILING (10^7) (n, A, B, x, y) cells raises BoxTooLarge.
    """
    return _collect(box, box.mode, inf, budget, _oracle_cells)


def split_box(box: SearchBox, parts: int, axis: str | None = None) -> tuple[SearchBox, ...]:
    """Partition the box into disjoint sub-boxes along one iterated axis.

    Splitting a non-iterated axis would duplicate scan work across parts,
    so only the mode's iterated axes are allowed.  Returns at most
    ``parts`` boxes (fewer when the axis is narrower than that).
    """
    if parts < 1:
        raise ValueError("parts must be >= 1")
    allowed = iterated_axes(box.mode)
    if axis is None:
        axis = max(allowed, key=lambda a: _axis_width(box, a))
    if axis not in allowed:
        raise ValueError(f"axis {axis!r} is not iterated in mode {box.mode!r}")
    lo, hi = getattr(box, f"{axis}_range")
    parts = min(parts, hi - lo + 1)
    # Part i starts after i parts of base values, the first extra of them one longer.
    base, extra = divmod(hi - lo + 1, parts)
    starts = [lo + i * base + min(i, extra) for i in range(parts + 1)]
    return tuple(box._replace(**{f"{axis}_range": (a, b - 1)}) for a, b in zip(starts, starts[1:]))


def merge_results(results, mode: str) -> SearchResult:
    """Deterministic union of disjoint sub-box results.

    Ordering matches a single-box run of the given mode exactly; cell
    counts add.
    """
    if mode not in _ORDER:
        raise ValueError(f"unknown mode {mode!r}")
    merged: list[tuple[Solution, GainReport]] = []
    cells = 0
    for r in results:
        merged.extend(r.solutions)
        cells += r.cells_scanned
    merged.sort(key=_ORDER[mode])
    return SearchResult(tuple(merged), cells)
