"""Built-in verification corpus: three historical solutions.

Each entry carries raw parameters plus the published expected values with
per-quantity tolerances.  k is always recomputed from the equation; a
printed k is a claim to verify, not an input.  The nitaj entry's printed
k factorization (11^16 * 13^2 * 79) is arithmetically inconsistent with
2^59, so its printed-k consistency check fails by design; verification
reports such failures as data, never as errors.
"""

from __future__ import annotations

from decimal import Decimal, localcontext
from math import gcd
from typing import NamedTuple

from .bigmath import CTX
from .gains import GainReport, Solution, compute_gains, validate_solution

PASS = "pass"
FAIL = "fail"
NOT_APPLICABLE = "not-applicable"


class CorpusEntry(NamedTuple):
    """One historical case: raw parameters and published expectations.

    expected maps quantity name to (value, tolerance); tolerance 0 means
    exact integer equality.  k_printed is the k the source printed, kept
    separate from the k the equation implies.
    """

    name: str
    n: int
    x: int
    y: int
    A: int
    B: int
    k_printed: int | None
    expected: dict[str, tuple[Decimal, Decimal]]

    @property
    def k_derived(self) -> int:
        return self.B * self.y ** self.n - self.A * self.x ** self.n


class QuantityVerdict(NamedTuple):
    expected: Decimal
    tolerance: Decimal
    actual: Decimal | int | None
    passed: bool


class VerificationReport(NamedTuple):
    name: str
    quantities: dict[str, QuantityVerdict]
    consistency: dict[str, str]

    @property
    def all_quantities_pass(self) -> bool:
        return all(v.passed for v in self.quantities.values())

    @property
    def all_consistency_pass(self) -> bool:
        return all(v != FAIL for v in self.consistency.values())


def builtin_corpus() -> tuple[CorpusEntry, ...]:
    """The three shipped cases with their published expected values."""
    return (
        CorpusEntry(
            name="reyssat",
            # 109 * 9^5 + 2 = 23^5, the highest-quality triple known.
            n=5,
            x=9,
            y=23,
            A=109,
            B=1,
            k_printed=2,
            expected={
                "q": (Decimal("1.6299"), Decimal("1e-3")),
                "G_a": (Decimal("1.46283"), Decimal("5e-4")),
                "G_p": (Decimal("1.114"), Decimal("1e-3")),
            },
        ),
        CorpusEntry(
            name="deweger",
            # 23 * 128^3 = 3087 * 25^3 + 121.
            n=3,
            x=25,
            y=128,
            A=3087,
            B=23,
            k_printed=121,
            expected={
                "G_p": (Decimal("2.2091"), Decimal("5e-4")),
                "G_a": (Decimal("0.7360"), Decimal("5e-4")),
                "ga_min": (Decimal("0.4790"), Decimal("5e-4")),
                "gp_max_strong": (Decimal("4.1754"), Decimal("1e-3")),
                "gp_max_ultra": (Decimal("3.1315"), Decimal("1e-3")),
                "radical_P": (Decimal(53130), Decimal(0)),
            },
        ),
        CorpusEntry(
            name="nitaj",
            # 2^59 = (7^2 * 41^2 * 311^3) * 1^59 + k.  The published k
            # factorization 11^16 * 13^2 * 79 exceeds 2^59 on its own and
            # cannot be right; k_derived is the exact difference.
            n=59,
            x=1,
            y=2,
            A=7 ** 2 * 41 ** 2 * 311 ** 3,
            B=1,
            k_printed=11 ** 16 * 13 ** 2 * 79,
            expected={
                "ga_min": (Decimal("0.5815"), Decimal("5e-4")),
                "gp_max_strong": (Decimal("3.4394"), Decimal("1e-3")),
                "G_p": (Decimal("3.2737"), Decimal("5e-3")),
                "limit_ratio": (Decimal("0.952"), Decimal("5e-3")),
            },
        ),
    )


# Corpus quantities that are GainReport fields of the same name.
_REPORT_QUANTITIES = ("G_a", "G_p", "q", "ga_min", "q_min", "gp_max_strong", "gp_max_ultra")


def _actual_quantity(name: str, report: GainReport) -> Decimal | int:
    if name in _REPORT_QUANTITIES:
        return getattr(report, name)
    if name == "radical_P":
        return report.R
    if name == "limit_ratio":
        with localcontext(CTX):
            return report.G_p / report.gp_max_strong
    raise ValueError(f"unknown corpus quantity {name!r}")


def verify_entry(e: CorpusEntry, budget: int | None = None) -> VerificationReport:
    """Recompute every expected quantity from raw parameters and compare.

    Consistency checks: the identity with k_derived (exact), agreement of
    printed and derived k when a printed k exists, and triple coprimality.
    Mismatches and out-of-tolerance quantities are verdicts in the report;
    this function does not raise for them.
    """
    kd = e.k_derived
    consistency: dict[str, str] = {}

    identity_ok = kd >= 1
    consistency["identity"] = PASS if identity_ok else FAIL
    if e.k_printed is None:
        consistency["printed_k"] = NOT_APPLICABLE
    else:
        consistency["printed_k"] = PASS if e.k_printed == kd else FAIL
    if identity_ok:
        coprime_ok = gcd(e.A * e.x, e.B * e.y, kd) == 1
        consistency["coprimality"] = PASS if coprime_ok else FAIL
    else:
        consistency["coprimality"] = NOT_APPLICABLE

    report: GainReport | None = None
    if identity_ok and consistency["coprimality"] == PASS:
        solution: Solution = validate_solution(e.n, e.x, e.y, e.A, e.B, kd)
        report = compute_gains(solution, budget=budget)

    quantities: dict[str, QuantityVerdict] = {}
    for qty, (expected, tolerance) in e.expected.items():
        actual = _actual_quantity(qty, report) if report is not None else None
        if actual is None:
            passed = False
        elif tolerance == 0:
            passed = actual == expected
        else:
            with localcontext(CTX):
                passed = abs(Decimal(actual) - expected) <= tolerance
        quantities[qty] = QuantityVerdict(expected, tolerance, actual, passed)

    return VerificationReport(name=e.name, quantities=quantities, consistency=consistency)
