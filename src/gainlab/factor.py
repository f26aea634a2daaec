"""Integer factorization and radicals.

The pipeline is trial division by the primes below 10^4, then
Miller-Rabin with as many witnesses as the value's size needs (a proof
below psi_13 = 3.3e24, a probable-prime test above), then exact
perfect-power roots, then Brent-cycle Pollard rho under an iteration
budget.  Trial division takes the gcd of the value with the product of
each of three blocks of those primes (Bernstein, "How to find smooth
parts of integers", 2004), divides out the primes of each gcd as it finds
them, and stops at the first block whose least prime squared exceeds what
is left of the value.  A threshold hunt reads a radical between the two
stages, and splits no cofactor below 10^15 for a tuple it drops (_Trialled).
A blown budget is always a reported error carrying the partial result,
never a silently incomplete radical: a wrong radical would corrupt every
gain value computed from it.
"""

from __future__ import annotations

import math
import os
from itertools import compress
from typing import NamedTuple

from .bigmath import int_text, nth_root_floor, require_int

DEFAULT_FACTOR_BUDGET = 10 ** 8
BUDGET_ENV_VAR = "GAINLAB_FACTOR_BUDGET"

# Trial division handles every prime factor below this limit, so any
# remaining cofactor below its square is itself prime.
_TRIAL_LIMIT = 10 ** 4
# A threshold hunt's screen also takes gcds with the products of the primes
# in [_TRIAL_LIMIT, _WIDE_LIMIT), in blocks of _WIDE_STEP integers.
_WIDE_LIMIT, _WIDE_STEP = 10 ** 5, 5000

# Miller-Rabin witness sets by size: the first j prime bases prove
# primality for every odd n below psi_j, the least strong pseudoprime to
# all of them (psi_4: Pomerance, Selfridge and Wagstaff 1980; psi_7:
# Jaeschke 1993; psi_9 and psi_12: Jiang and Deng 2014; psi_13: Sorenson
# and Webster 2015).  Each psi_j is itself composite, so the bounds are
# strict.  Above psi_13 an extended list of 43 bases is used, and there the
# test is a probable-prime test, not a proof; analyze reaches that range
# with any k above 3.3e24, such as the prime 20000000000000000000000009.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_TIERS = (
    (3_215_031_751, _MR_WITNESSES[:4]),
    (341_550_071_728_321, _MR_WITNESSES[:7]),
    (3_825_123_056_546_413_051, _MR_WITNESSES[:9]),
    (318_665_857_834_031_151_167_461, _MR_WITNESSES[:12]),
    (3_317_044_064_679_887_385_961_981, _MR_WITNESSES),
)
_MR_EXTENDED = _MR_WITNESSES + (
    43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109,
    113, 127, 131, 137, 139, 149, 151, 157, 163, 167, 173, 179, 181, 191,
)


def _sieve(lo: int, hi: int) -> list[int]:
    """The primes in [lo, hi), lo >= 2: each multiple of a prime p < sqrt(hi) but p is struck."""
    flags = bytearray([1]) * (hi - lo)
    for p in _sieve(2, math.isqrt(hi - 1) + 1) if hi > 4 else ():
        start = max(p * p - lo, -lo % p)
        flags[start::p] = bytes(len(range(start, hi - lo, p)))
    return list(compress(range(lo, hi), flags))


_SMALL_PRIMES = tuple(_sieve(2, _TRIAL_LIMIT))
# The small primes in blocks [2, 100), [100, 1000) and [1000, _TRIAL_LIMIT),
# each as (least prime squared, product, primes).  A value below a block's
# bound needs no gcd with that block's product or any later one.
_PRIME_BLOCKS = tuple(
    (block[0] ** 2, math.prod(block), block)
    for lo, hi in ((2, 100), (100, 1000), (1000, _TRIAL_LIMIT))
    for block in [tuple(p for p in _SMALL_PRIMES if lo <= p < hi)]
)
# The primes in [_TRIAL_LIMIT, _WIDE_LIMIT) as blocks (least prime cubed, product, ()),
# each sieved from its own window of _WIDE_STEP integers when first reached.
_WIDE_BLOCKS: list[tuple[int, int, tuple]] = []


def _screen_blocks():
    """Yield _PRIME_BLOCKS, then the wide blocks, building each on first use."""
    yield from _PRIME_BLOCKS
    for i, lo in enumerate(range(_TRIAL_LIMIT, _WIDE_LIMIT, _WIDE_STEP)):
        if i == len(_WIDE_BLOCKS):
            block = _sieve(lo, lo + _WIDE_STEP)
            _WIDE_BLOCKS.append((block[0] ** 3, math.prod(block), ()))
        yield _WIDE_BLOCKS[i]


class Factorization(NamedTuple):
    """Prime factorization as ((prime, exponent), ...), ascending by prime.

    When complete is True the product of prime**exponent equals the
    factored value exactly; when False the listed factors divide it but a
    composite cofactor remains unfactored.
    """

    factors: tuple[tuple[int, int], ...]
    complete: bool

    def product(self) -> int:
        return math.prod(p ** e for p, e in self.factors)

    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)

    def radical(self) -> int:
        """Product of the listed primes."""
        return math.prod(p for p, _ in self.factors)


class FactorBudgetExceeded(RuntimeError):
    """Factorization ran out of rho iterations.

    Carries the original value, the partial factorization found so far
    (complete = False), and the unfactored composite cofactor.
    """

    def __init__(self, value: int, partial: Factorization, cofactor: int):
        super().__init__(
            f"factorization budget exceeded for {int_text(value)}: "
            f"composite cofactor {int_text(cofactor)} remains"
        )
        self.value = value
        self.partial = partial
        self.cofactor = cofactor


class _BudgetSpent(Exception):
    """Internal signal: rho iteration allowance is gone."""


class _Budget:
    """Rho iterations left for one call; the setting is read on reaching rho."""

    __slots__ = ("budget", "left")

    def __init__(self, budget: int | None):
        self.budget = budget
        self.left = None

    def start(self) -> None:
        if self.left is None:
            self.left = resolve_budget(self.budget)

    def spend(self, amount: int) -> None:
        self.left -= amount
        if self.left < 0:
            raise _BudgetSpent


# factorize_product's memo of its components below _TRIAL_LIMIT, which trial
# division settles with no rho step or budget: a hit is what a fresh call
# would return under any budget, and there are at most _TRIAL_LIMIT entries.
_cache: dict[int, Factorization] = {}


def clear_cache() -> None:
    """Forget the memoized small factorizations, to start a timing cold."""
    _cache.clear()


def is_prime(n: int) -> bool:
    """Miller-Rabin primality test, a proof below psi_13 = 3.3e24.

    Runs only as many witnesses as n's size needs (see _MR_TIERS): four
    below 3.2e9, seven below 3.4e14, nine below 3.8e18 (so every n below
    2**64 takes at most nine), twelve below 3.2e23.  Above psi_13 the
    43-base test is a probable-prime test, not a proof.
    """
    require_int("n", n)
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    witnesses = next((w for below, w in _MR_TIERS if n < below), _MR_EXTENDED)
    for a in witnesses:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _brent_rho(n: int, budget: _Budget) -> int:
    """One nontrivial factor of odd composite n, Brent's cycle variant.

    The polynomial constant steps deterministically 1, 2, 3, ... so results
    are reproducible.  Every polynomial evaluation spends one budget unit.
    """
    c = 1
    while True:
        y, r, q = 2, 1, 1
        g = 1
        x = ys = y
        while g == 1:
            x = y
            budget.spend(r)
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                steps = min(128, r - k)
                budget.spend(steps)
                for _ in range(steps):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += steps
            r *= 2
        if g != n:
            return g
        # The gcd batch overshot; replay one step at a time.
        g = 1
        while g == 1:
            budget.spend(1)
            ys = (ys * ys + c) % n
            g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
        c += 1  # cycle degenerated for this constant; try the next


def _prime_index_root(n: int) -> tuple[int, int] | None:
    """(r, k) with r**k == n for the least prime k below _TRIAL_LIMIT, or None.

    n has no prime factor below _TRIAL_LIMIT, so a root r exceeds
    _TRIAL_LIMIT and only indices k with _TRIAL_LIMIT**k < n can hold.  The
    roots are exact and spend no rho budget.
    """
    for k in _SMALL_PRIMES:
        if _TRIAL_LIMIT ** k > n:
            return None
        r = nth_root_floor(n, k)
        if r ** k == n:
            return r, k
    return None


def resolve_budget(budget: int | None = None) -> int:
    """budget, else the GAINLAB_FACTOR_BUDGET setting (ValueError if bad), else 10**8."""
    if budget is not None:
        return budget
    raw = os.environ.get(BUDGET_ENV_VAR)
    if raw is None:
        return DEFAULT_FACTOR_BUDGET
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"{BUDGET_ENV_VAR} must be an integer, got {raw!r}") from None
    if value < 0:
        raise ValueError(f"{BUDGET_ENV_VAR} must be nonnegative")
    return value


def factorize(v: int, budget: int | None = None) -> Factorization:
    """Complete prime factorization of v >= 1 within the iteration budget.

    budget bounds the total rho iterations for this call; None reads the
    GAINLAB_FACTOR_BUDGET environment variable, defaulting to 10**8.
    Raises FactorBudgetExceeded with the partial result if it runs out.
    Nothing is memoized, so the result depends on v and the budget alone.
    """
    return _factorize(v, _Budget(budget))


def _factorize(v: int, tracker: _Budget) -> Factorization:
    """factorize(v), spending rho iterations from tracker."""
    counts: dict[int, int] = {}
    _split(v, counts, _trial(v, counts), tracker)
    return Factorization(tuple(sorted(counts.items())), True)


def _trial(v: int, counts: dict[int, int], held: list | None = None) -> list[tuple[int, int]]:
    """Add v's primes below _TRIAL_LIMIT to counts; [(rem, 1)] if a cofactor rem is left to split.

    With held, the wide blocks follow (_screen_blocks): their gcds go to held as (g, 1).
    """
    require_int("v", v)
    if v < 1:
        raise ValueError("factorize expects an integer >= 1")
    rem = v
    # Each block's primes are divided out of rem as its gcd finds them, and
    # the next block is tested and gcd'd against what is left.  The gcd g is
    # a product of distinct primes of the block, so only g is trial divided.
    for bound, product, block in _PRIME_BLOCKS if held is None else _screen_blocks():
        if bound > rem:
            break
        g = math.gcd(rem, product)
        for p in block:
            if g == 1:
                break
            if p * p > g:
                p = g  # what is left of g is a prime
            elif g % p:
                continue
            g //= p
            rem //= p
            e = 1
            while rem % p == 0:
                rem //= p
                e += 1
            counts[p] = counts.get(p, 0) + e
        while g > 1:  # a wide block lists no primes: its gcd is held unsplit
            rem //= g
            held.append((g, 1))
            g = math.gcd(rem, g)
    # rem has no prime factor below _TRIAL_LIMIT, or it is below the square of
    # the least prime of a small block left out: below L**2 it is 1 or a prime.
    if rem >= _TRIAL_LIMIT * _TRIAL_LIMIT:
        return [(rem, 1)]
    if rem > 1:
        counts[rem] = counts.get(rem, 0) + 1
    return []


def _split(v: int, counts: dict[int, int], stack: list, tracker: _Budget, floor: int = 0) -> list:
    """Split each (t, m) of stack, t**m dividing v, into counts; return those with t < floor unsplit.

    No t has a prime factor below _TRIAL_LIMIT, so a t below its square is prime untested.
    """
    left = []
    while stack:
        t, m = stack.pop()
        if t < floor:
            left.append((t, m))
        elif t < _TRIAL_LIMIT ** 2 or is_prime(t):
            counts[t] = counts.get(t, 0) + m
        elif root := _prime_index_root(t):
            stack.append((root[0], m * root[1]))
        else:
            tracker.start()
            try:
                d = _brent_rho(t, tracker)
            except _BudgetSpent:
                cofactor = math.prod(u ** j for u, j in (*stack, *left, (t, m)))
                partial = Factorization(tuple(sorted(counts.items())), False)
                raise FactorBudgetExceeded(v, partial, cofactor) from None
            stack += (d, m), (t // d, m)
    return left


class _Trialled(tuple):
    """A product's components, trial divided, with their cofactors below W**3 unsplit.

    A cofactor t < b**3 with no prime factor below b is 1, p, p*q or p**2
    (three primes would make it b**3 or more): rad(t) is isqrt(t) if t is a
    square, else t.  Trial division leaves no prime below _TRIAL_LIMIT; the
    wide blocks take those below W = _WIDE_LIMIT out of t until t < b**3, b
    the next block's least prime, and a t still W**3 or more, with no prime
    below W, is split within budget to parts below W**3.  The gcds are held
    unsplit, squarefree, so radical, an lcm of squarefree values (cofactors
    may share primes), takes no Miller-Rabin test, root or rho step below
    W**3.  factorize_product(trialled) splits what is held, from what is
    left of the budget, to factorize_product(tuple(trialled))'s factors;
    rho meets the gcds' pieces, not whole cofactors, so either may run out
    of budget where the other does not.
    """

    def __new__(cls, components: tuple[int, ...], budget: int | None) -> _Trialled:
        self = super().__new__(cls, components)
        self.tracker, self.counts, self.left = _Budget(budget), {}, []
        for c in components:
            rough = _trial(c, self.counts, self.left)  # the gcds go to left
            self.left += _split(c, self.counts, rough, self.tracker, _WIDE_LIMIT ** 3)
        squarefree = [r if r * r == t else t for t, _ in self.left for r in [math.isqrt(t)]]
        self.radical = math.lcm(math.prod(self.counts), *squarefree)
        return self


def factorize_product(components: tuple[int, ...] | list[int], budget: int | None = None) -> Factorization:
    """Complete factorization of the product of the components.

    Components are factored individually and their exponents merged, so
    the product itself is never factored and components are free to share
    primes.  Components below _TRIAL_LIMIT are memoized in _cache (the type
    is checked first: True and 2.0 would find the entries of 1 and 2).
    budget bounds the rho iterations of all components together; when it
    runs out, FactorBudgetExceeded names the component being factored.
    A single component's factorization is returned as it is.
    """
    counts: dict[int, int] = {}
    if isinstance(components, _Trialled):
        _split(math.prod(components), components.counts, components.left, components.tracker)
        return Factorization(tuple(sorted(components.counts.items())), True)
    tracker = _Budget(budget)
    for c in components:
        if type(c) is int and c < _TRIAL_LIMIT:
            f = _cache.get(c) or _cache.setdefault(c, factorize(c))
        else:
            f = _factorize(c, tracker)
        if len(components) == 1:
            return f
        for p, e in f.factors:
            counts[p] = counts.get(p, 0) + e
    return Factorization(tuple(sorted(counts.items())), True)


def radical_of_product(components: tuple[int, ...] | list[int], budget: int | None = None) -> int:
    """Radical of the product of the components (see factorize_product)."""
    return factorize_product(components, budget=budget).radical()
