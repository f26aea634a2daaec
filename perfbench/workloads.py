"""Seeded inputs for the four workloads.

Seed 0 gives the canonical inputs.  Any other seed shifts the x and y
windows of a hunt box (the x and k windows of a search box) up by an
offset from 1 to the box's max_shift.  Axis widths never change, so the
cell count of a box is the same at every seed.  The shift moves x and y
together, not A and B: dropping A = 1 or B = 1 from a window changes the
survey's solution count by up to a half.  The shift stays small because
a box's cost grows with it (larger numbers to take logarithms of and to
factor): survey and search_fixed_k ran about 10% slower at a shift of 5
to 7 than at 2, and hunt_high_n, whose cost follows the size of y^n with
n up to 12, 1.5 times slower at 7.  Seeds must not move the cost, or the
spread between runs at different seeds measures the inputs, not the code.

Each box takes about 2 s a call on the 2-CPU host the benchmark was
written on, so that a 22 s run holds 7 to 11 passes, each between two
calibrations (see run.py): with 4 s calls the spread between runs was
twice as wide.

For oneshot, each seed draws a fresh set of analyze tuples.
"""

from __future__ import annotations

import math
import random

from sympy import integer_nthroot

BOXES = {
    "survey": {
        "command": "hunt", "n": (2, 5), "x": (2, 45), "y": (2, 45),
        "A": (1, 3), "B": (1, 2), "shift": ("x", "y"), "max_shift": 2,
    },
    "hunt_high_n": {
        "command": "hunt", "n": (7, 12), "x": (2, 34), "y": (2, 34),
        "A": (1, 2), "B": (1, 2), "q_threshold": "1.1", "shift": ("x", "y"),
        "max_shift": 1,
    },
    "search_fixed_k": {
        "command": "search", "n": (2, 4), "x": (2, 200), "y": (2, 1000000),
        "A": (1, 10), "B": (1, 10), "k": (1, 75), "shift": ("x", "k"),
        "max_shift": 2,
    },
}

# Small boxes the oneshot workload runs as single CLI calls, so that the
# search layer's fixed cost is seen there too.
SMALL_BOXES = (
    {"command": "search", "n": (2, 2), "x": (2, 10), "y": (2, 10),
     "A": (1, 1), "B": (1, 1), "k": (1, 10)},
    {"command": "hunt", "n": (2, 3), "x": (2, 30), "y": (2, 30),
     "A": (1, 2), "B": (1, 2), "q_threshold": "1.3"},
)

ONESHOT_CALLS = 100
# analyze factors k completely under the default rho budget of 10**8; a k
# of 94 digits ran for minutes, so drawn tuples keep k below this bound.
ONESHOT_K_BOUND = 10 ** 24
NITAJ = (59, 1, 2, 7 ** 2 * 41 ** 2 * 311 ** 3, 1, 2 ** 59 - 7 ** 2 * 41 ** 2 * 311 ** 3)
BOUNDS_CALL = {"n": 3, "A": 3087, "B": 23, "y": 128, "qmax": "1.5"}


def box(name: str, seed: int) -> dict:
    b = dict(BOXES[name])
    max_shift = b.pop("max_shift")
    shift = 0 if seed == 0 else random.Random(seed).randint(1, max_shift)
    for axis in b.pop("shift"):
        lo, hi = b[axis]
        b[axis] = (lo + shift, hi + shift)
    return b


def box_argv(b: dict) -> list[str]:
    argv = [b["command"]]
    for axis in ("n", "x", "y", "A", "B", "k"):
        if axis in b:
            argv += [f"--{axis}", "%d:%d" % b[axis]]
    if "q_threshold" in b:
        argv += ["--q-threshold", b["q_threshold"]]
    return argv + ["--format", "json"]


def draw_tuple(rng: random.Random) -> tuple[int, ...]:
    """A valid (n, x, y, A, B, k) with n in 2..12, 2 <= x <= 60, k < 10**24."""
    while True:
        n = rng.randint(2, 12)
        x = rng.randint(2, 60)
        A = rng.randint(1, 20)
        B = rng.randint(1, 20)
        # The smallest y with B*y^n > A*x^n, plus a small step.
        y = integer_nthroot(A * x ** n // B, n)[0] + 1 + rng.randint(0, 3)
        k = B * y ** n - A * x ** n
        if 1 <= k < ONESHOT_K_BOUND and math.gcd(A * x, B * y, k) == 1:
            return (n, x, y, A, B, k)


def analyze_argv(t: tuple[int, ...]) -> list[str]:
    argv = ["analyze"]
    for name, v in zip(("n", "x", "y", "A", "B", "k"), t):
        argv += [f"--{name}", str(v)]
    return argv + ["--format", "json"]


def oneshot_calls(seed: int) -> list[tuple[str, object, list[str]]]:
    """(kind, expected input, argv) for each of the ONESHOT_CALLS processes."""
    calls = [
        ("analyze", NITAJ, analyze_argv(NITAJ)),
        ("corpus", None, ["verify-corpus", "--format", "json"]),
        ("bounds", BOUNDS_CALL,
         ["bounds"] + [a for k, v in BOUNDS_CALL.items() for a in (f"--{k}", str(v))]
         + ["--format", "json"]),
    ]
    calls += [("box", b, box_argv(b)) for b in SMALL_BOXES]
    rng = random.Random(seed)
    while len(calls) < ONESHOT_CALLS:
        t = draw_tuple(rng)
        calls.append(("analyze", t, analyze_argv(t)))
    return calls


def pass_calls(name: str, seed: int) -> list[tuple[str, object, list[str]]]:
    """The CLI calls that make up one pass of a workload."""
    if name == "oneshot":
        return oneshot_calls(seed)
    b = box(name, seed)
    return [("box", b, box_argv(b))]
