"""The public names, the import graph, and the attributes the tracer wraps.

perfbench/tracer.py patches gainlab functions by name from outside the
package, so deleting or renaming one breaks traced benchmark runs without
failing any other test.
"""

import importlib
import importlib.util
import os
import pickle
import pkgutil
import subprocess
import sys
from decimal import Decimal
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
    "module", ["bigmath", "factor", "gains", "search", "runs", "corpus", "cli", "__main__"]
)
def test_each_module_imports_first(module):
    run_fresh(f"import gainlab.{module}")


def test_package_import_loads_no_submodule():
    loaded = run_fresh("import sys, gainlab; print(*sorted(sys.modules))").split()
    assert [name for name in loaded if name.startswith("gainlab.")] == []


def loaded_after(argv: list) -> list:
    """The modules loaded once cli.main(argv) has run in a fresh interpreter."""
    out = run_fresh(
        "import sys\n"
        "from gainlab.cli import main\n"
        f"assert main({argv!r}) == 0\n"
        "print(*sorted(sys.modules))\n"
    )
    return out.splitlines()[-1].split()


ANALYZE = ["analyze", "--n", "3", "--x", "25", "--y", "128", "--A", "3087", "--B", "23", "--k", "121"]
BOUNDS = ["bounds", "--n", "3", "--A", "3087", "--B", "23", "--y", "128"]


@pytest.mark.parametrize("argv", [ANALYZE, BOUNDS])
def test_single_tuple_commands_skip_search_and_corpus(argv):
    loaded = loaded_after(argv)
    assert "gainlab.gains" in loaded
    assert {"gainlab.search", "gainlab.corpus"}.isdisjoint(loaded)


@pytest.mark.parametrize("argv", [
    ANALYZE,
    BOUNDS,
    ["search", "--n", "2", "--x", "2:5", "--y", "2:5", "--A", "1", "--B", "1", "--k", "1:30"],
    ["hunt", "--n", "2", "--x", "2:5", "--y", "2:5", "--A", "1", "--B", "1"],
    ["verify-corpus"],
], ids=lambda argv: argv[0])
def test_no_command_loads_dataclasses(argv):
    # dataclasses would also load inspect, ast, dis and tokenize on every
    # launch; the records are named tuples so that no command loads them.
    assert {"dataclasses", "inspect"}.isdisjoint(loaded_after(argv))


@pytest.mark.parametrize("argv", [
    ["search", "--n", "2", "--x", "2:5", "--y", "2:5", "--A", "1", "--B", "1", "--k", "1:30"],
    ["hunt", "--n", "2", "--x", "2:5", "--y", "2:5", "--A", "1", "--B", "1"],
], ids=lambda argv: argv[0])
def test_search_that_does_not_spill_loads_no_merge(argv):
    # heapq loads only to merge the runs a search spilled to its temporary file.
    assert "heapq" not in loaded_after(argv)


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


def test_every_lru_memo_is_bounded(monkeypatch):
    # A memo whose key space grows with the box must not grow with it.
    # Found through cache_info(), each under the first name that binds it.
    # gains._bounds has no maxsize and empties itself past gains._HELD keys;
    # gains.shared_part has none either and empties with it (see
    # TestBoundFormulas).  Of the two dict memos, factor._cache holds only
    # keys below factor._TRIAL_LIMIT, and bigmath._ln_cache is checked below.
    from gainlab import bigmath

    memos = {}
    for info in pkgutil.iter_modules(gainlab.__path__):
        module = importlib.import_module(f"gainlab.{info.name}")
        for name, value in vars(module).items():
            if callable(getattr(value, "cache_info", None)):
                memos.setdefault(value, f"{info.name}.{name}")
    unbounded = [name for memo, name in memos.items() if memo.cache_info().maxsize is None]
    assert unbounded == ["gains.shared_part", "gains._bounds"]
    assert "bigmath._quantum" in memos.values()
    # A fill that finds the log table full empties it before it stores,
    # nested fills of p - 1's primes included, and a dropped log is taken
    # again to the same value.
    keys = [*range(2, 600), 10 ** 8 + 7, 2 ** 61 - 1]
    bigmath.clear_ln_cache()
    expected = [bigmath.ln_cached(v) for v in keys]
    assert len(bigmath._ln_cache) > 64
    monkeypatch.setattr(bigmath, "_LN_HELD", 64)
    bigmath.clear_ln_cache()
    sizes = []
    for v, value in zip(keys, expected):
        assert bigmath.ln_cached(v) == value
        sizes.append(len(bigmath._ln_cache))
    # Full at 64, and emptied at least once.
    assert max(sizes) == 64 and sizes != sorted(sizes)


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


_D = Decimal
_VIOLATION = ("range-violation", "n = 1 violates n >= 2")
_VERDICT = (_D("0.5"), _D("0.01"), _D("0.49"), False)

# Each record: its public name, the fields it is built from positionally,
# the defaults that fill the rest, and its repr.
RECORDS = [
    ("BigLog", (_D("0.5"), 64), (), "BigLog(value=Decimal('0.5'), precision_digits=64)"),
    (
        "Factorization", (((2, 4), (5, 1)), True), (),
        "Factorization(factors=((2, 4), (5, 1)), complete=True)",
    ),
    ("Solution", (2, 3, 5, 1, 1, 16), (), "Solution(n=2, x=3, y=5, A=1, B=1, k=16)"),
    (
        "Violation", _VIOLATION, (None,),
        "Violation(kind='range-violation', detail='n = 1 violates n >= 2', residual=None)",
    ),
    (
        "ValidationReport", ((gainlab.Violation("identity-violation", "r", -3),),), (),
        "ValidationReport(violations=(Violation(kind='identity-violation', detail='r', "
        "residual=-3),))",
    ),
    ("QMax", (_D("1.5"), "ultra"), (), "QMax(value=Decimal('1.5'), label='ultra')"),
    (
        "GainReport",
        (25, 240, 30, _D("0.5"), _D("1.6"), _D("0.8"), _D("0.4"), _D("0.4"), _D("5"),
         _D("3.75"), None, _D("1"), "non_trivial"),
        (),
        "GainReport(C=25, P=240, R=30, G_a=Decimal('0.5'), G_p=Decimal('1.6'), "
        "q=Decimal('0.8'), ga_min=Decimal('0.4'), q_min=Decimal('0.4'), "
        "gp_max_strong=Decimal('5'), gp_max_ultra=Decimal('3.75'), gp_max_custom=None, "
        "k1_q_bound=Decimal('1'), triviality='non_trivial')",
    ),
    (
        "SearchBox", ((2, 2), (2, 9), (2, 9), (1, 1), (1, 1), "derived_k"), (None, None, True),
        "SearchBox(n_range=(2, 2), x_range=(2, 9), y_range=(2, 9), A_range=(1, 1), "
        "B_range=(1, 1), mode='derived_k', k_range=None, q_threshold=None, "
        "require_nontrivial=True)",
    ),
    ("SearchResult", ((), 64), (), "SearchResult(solutions=(), cells_scanned=64)"),
    (
        "CorpusEntry", ("demo", 2, 3, 5, 1, 1, 16, {"q": (_D("0.5"), _D(0))}), (),
        "CorpusEntry(name='demo', n=2, x=3, y=5, A=1, B=1, k_printed=16, "
        "expected={'q': (Decimal('0.5'), Decimal('0'))})",
    ),
    (
        "QuantityVerdict", _VERDICT, (),
        "QuantityVerdict(expected=Decimal('0.5'), tolerance=Decimal('0.01'), "
        "actual=Decimal('0.49'), passed=False)",
    ),
    (
        "VerificationReport",
        ("demo", {"q": gainlab.QuantityVerdict(*_VERDICT)}, {"identity": "pass"}), (),
        "VerificationReport(name='demo', quantities={'q': QuantityVerdict("
        "expected=Decimal('0.5'), tolerance=Decimal('0.01'), actual=Decimal('0.49'), "
        "passed=False)}, consistency={'identity': 'pass'})",
    ),
]


@pytest.mark.parametrize("name, args, defaults, text", RECORDS, ids=[r[0] for r in RECORDS])
def test_record_value_semantics(name, args, defaults, text):
    # Records are immutable named tuples: the repr names each field in
    # order, a record hashes and compares as the tuple of its fields, and a
    # field cannot be assigned.  A record holding a dict is unhashable.
    record = getattr(gainlab, name)(*args)
    fields = args + defaults
    assert repr(record) == text
    assert record == fields and tuple(record) == fields
    if any(isinstance(v, dict) for v in fields):
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(fields)
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    copy = pickle.loads(pickle.dumps(record))
    assert type(copy) is type(record) and copy == record


def test_records_cover_the_public_surface():
    # Every public named tuple appears in RECORDS.
    records = {
        name for name in gainlab.__all__
        if isinstance(v := getattr(gainlab, name), type) and issubclass(v, tuple)
    }
    assert records == {name for name, *_ in RECORDS}
