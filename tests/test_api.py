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
