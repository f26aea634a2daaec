"""The public names, the import graph, and the attributes the tracer wraps.

perfbench/tracer.py patches gainlab functions by name from outside the
package, so deleting or renaming one breaks traced benchmark runs without
failing any other test.
"""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gainlab

ROOT = Path(__file__).resolve().parent.parent
TRACER_PATH = ROOT / "perfbench" / "tracer.py"
SRC = Path(gainlab.__file__).resolve().parent.parent


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_fresh(code: str) -> str:
    """Run code in a fresh interpreter that finds this gainlab; its stdout."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_public_names_resolve():
    assert gainlab.__all__
    assert [name for name in gainlab.__all__ if not hasattr(gainlab, name)] == []
    assert set(gainlab.__all__) <= set(dir(gainlab))
    namespace = {}
    exec("from gainlab import *", namespace)
    assert [name for name in gainlab.__all__ if name not in namespace] == []
    with pytest.raises(AttributeError, match="no_such_name"):
        gainlab.no_such_name


def test_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as f:
        assert gainlab.__version__ == tomllib.load(f)["project"]["version"]


@pytest.mark.parametrize(
    "module", ["bigmath", "factor", "gains", "search", "corpus", "cli", "__main__"]
)
def test_each_module_imports_first(module):
    run_fresh(f"import gainlab.{module}")


def test_package_import_loads_no_submodule():
    loaded = run_fresh("import sys, gainlab; print(*sorted(sys.modules))").split()
    assert [name for name in loaded if name.startswith("gainlab.")] == []


@pytest.mark.parametrize("argv", [
    ["analyze", "--n", "3", "--x", "25", "--y", "128", "--A", "3087", "--B", "23", "--k", "121"],
    ["bounds", "--n", "3", "--A", "3087", "--B", "23", "--y", "128"],
])
def test_single_tuple_commands_skip_search_and_corpus(argv):
    out = run_fresh(
        "import sys\n"
        "from gainlab.cli import main\n"
        f"assert main({argv!r}) == 0\n"
        "print(*sorted(sys.modules))\n"
    )
    loaded = out.splitlines()[-1].split()
    assert "gainlab.gains" in loaded
    assert {"gainlab.search", "gainlab.corpus"}.isdisjoint(loaded)


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
    # bigmath's log fills call factor.factorize through the factor module.
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
