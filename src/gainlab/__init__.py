"""gainlab: gain and ABC-quality analysis for B*y^n = A*x^n + k.

Computes the approximation gain, power gain, and quality of coprime
solutions, evaluates structural and conjectural bounds on them, searches
bounded parameter boxes exhaustively, and ships a verification corpus of
three historical solutions.

Importing the package loads no submodule: each public name loads its
module on first use (PEP 562).
"""

import importlib

__version__ = "1.0.0"

# The public names, by the submodule that defines them.
_SURFACE = {
    "bigmath": (
        "BigLog", "CTX", "LN_PRECISION", "ipow", "ln_big", "nth_root_floor", "round_sig",
    ),
    "factor": (
        "BUDGET_ENV_VAR", "DEFAULT_FACTOR_BUDGET", "FactorBudgetExceeded", "Factorization",
        "factorize", "is_prime", "radical_of_product",
    ),
    "gains": (
        "GainReport", "NON_TRIVIAL", "QMAX_STRONG", "QMAX_ULTRA", "QMax", "Solution",
        "SolutionError", "TRIVIAL_X", "ValidationReport", "Violation", "check_solution",
        "compute_gains", "compute_gains_partial", "custom_qmax", "ga_lower_bound",
        "gp_upper_bound", "k1_quality_bound", "max_admissible_exponent", "q_lower_bound",
        "validate_solution",
    ),
    "search": (
        "BoxTooLarge", "DERIVED_K", "FIXED_K", "SearchBox", "SearchResult",
        "brute_force_oracle", "cell_count", "enumerate_fixed_k", "hunt_derived_k",
        "merge_results", "split_box",
    ),
    "corpus": (
        "CorpusEntry", "QuantityVerdict", "VerificationReport", "builtin_corpus",
        "verify_entry",
    ),
}
_MODULE_OF = {name: module for module, names in _SURFACE.items() for name in names}

__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
