"""The public names and the module attributes the benchmark tracer wraps.

perfbench/tracer.py patches gainlab functions by name from outside the
package, so deleting or renaming one breaks traced benchmark runs without
failing any other test.
"""

import importlib
import importlib.util
from pathlib import Path

import gainlab

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_public_names_resolve():
    assert gainlab.__all__
    assert [name for name in gainlab.__all__ if not hasattr(gainlab, name)] == []


def test_traced_functions_exist():
    traced = load_tracer().TRACED
    assert traced
    for module_name, names in traced.items():
        module = importlib.import_module(f"gainlab.{module_name}")
        for name in names:
            assert callable(getattr(module, name, None)), f"gainlab.{module_name}.{name}"


def test_traced_caches_exist():
    # The tracer reports the growth of these two caches.
    from gainlab import bigmath, factor

    assert isinstance(bigmath._ln_cache, dict)
    assert isinstance(factor._cache, dict)


def test_traced_names_bind_one_object():
    # The tracer wraps each function by identity, on every module attribute
    # that holds it, so a name bound to another object would go uncounted:
    # factor.factorize.calls counts bigmath's calls through its own binding.
    modules = [gainlab] + [
        importlib.import_module(f"gainlab.{name}")
        for name in ("bigmath", "factor", "gains", "search", "corpus", "cli")
    ]
    for module_name, names in load_tracer().TRACED.items():
        for name in names:
            original = getattr(importlib.import_module(f"gainlab.{module_name}"), name)
            for module in modules:
                bound = vars(module).get(name, original)
                assert bound is original, f"{module.__name__}.{name}"
