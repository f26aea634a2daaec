"""Traced CLI call: run gainlab.cli.main(argv) with spans around each layer.

Usage: python3 perfbench/tracer.py OUT.json ARGV...

The public functions named in TRACED are wrapped from outside, on every
module attribute that holds them, because gainlab modules import each
other's functions by name (search calls its own binding of compute_gains,
gains its own binding of ln_cached).  stdout goes to a sink that counts and
hashes the bytes.  At exit OUT.json receives, per traced function, its
calls, inclusive time, self time (inclusive time minus the time of traced
calls made inside it) and the exceptions it raised; the growth of the
logarithm and factorization caches; and the spans of the coarse functions
as (name, start, end, parent).  Spans of the hot functions are only
aggregated, since search_fixed_k makes 18 million nth_root_floor calls.
"""

from __future__ import annotations

import hashlib
import io
import json
import sys
import time

TRACED = {
    "bigmath": ("nth_root_floor", "ln_cached"),
    "factor": ("radical_of_product", "factorize", "is_prime"),
    "gains": ("validate_solution", "compute_gains", "compute_gains_partial"),
    "search": ("enumerate_fixed_k", "hunt_derived_k"),
    "corpus": ("verify_entry",),
    "cli": ("main", "solution_report"),
}
COARSE = {"cli.main", "search.enumerate_fixed_k", "search.hunt_derived_k", "corpus.verify_entry"}


class Tracer:
    def __init__(self):
        self.stack: list[list] = []  # [child time, span index or None, name]
        self.stats: dict[str, list] = {}  # name -> [calls, inclusive s, self s, raised]
        self.spans: list[list] = []  # [name, start, end, parent span index]

    def wrap(self, name: str, fn):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        stack, spans, keep = self.stack, self.spans, name in COARSE
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = None
            if keep:
                parent = next((f[1] for f in reversed(stack) if f[1] is not None), None)
                span = len(spans)
                spans.append([name, 0.0, 0.0, parent])
            frame = [0.0, span, name]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            except Exception:
                stats[3] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                took = end - start
                stats[0] += 1
                stats[1] += took
                stats[2] += took - frame[0]
                if stack:
                    stack[-1][0] += took
                if keep:
                    spans[span][1:3] = [start, end]

        return traced


class Sink(io.RawIOBase):
    """Write-only byte stream that keeps a count and a SHA-256 digest."""

    def __init__(self):
        self.count = 0
        self.digest = hashlib.sha256()

    def writable(self) -> bool:
        return True

    def write(self, b) -> int:
        self.count += len(b)
        self.digest.update(b)
        return len(b)


def install(tracer: Tracer, modules: dict) -> None:
    """Replace each traced function on every gainlab module that binds it."""
    for mod_name, names in TRACED.items():
        for fn_name in names:
            original = getattr(modules[mod_name], fn_name)
            wrapper = tracer.wrap(f"{mod_name}.{fn_name}", original)
            for module in modules.values():
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import gainlab.cli
    import_s = time.perf_counter() - t0

    from gainlab import bigmath, corpus, factor, gains, search
    modules = {"gainlab": sys.modules["gainlab"], "bigmath": bigmath, "factor": factor,
               "gains": gains, "search": search, "corpus": corpus, "cli": gainlab.cli}
    tracer = Tracer()
    install(tracer, modules)
    caches_before = (len(bigmath._ln_cache), len(factor._cache))

    sink = Sink()
    real_stdout = sys.stdout
    sys.stdout = io.TextIOWrapper(io.BufferedWriter(sink), encoding="utf-8")
    try:
        code = gainlab.cli.main(argv)
        sys.stdout.flush()
    finally:
        sys.stdout = real_stdout

    report = {
        "exit_code": code,
        "import_s": import_s,
        "stdout_bytes": sink.count,
        "stdout_sha256": sink.digest.hexdigest(),
        "ln_cache": [caches_before[0], len(bigmath._ln_cache)],
        "factor_cache": [caches_before[1], len(factor._cache)],
        "stats": {name: dict(zip(("calls", "s", "self_s", "raised"), v))
                  for name, v in tracer.stats.items()},
        "spans": tracer.spans,
    }
    with open(out_path, "w") as f:
        json.dump(report, f)
    return code


if __name__ == "__main__":
    sys.exit(main())
