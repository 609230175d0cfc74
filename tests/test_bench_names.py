"""Every pgw name that the benchmark reads exists.

perfbench/spans.py reports a missing name as absent and drops its metrics, so
a rename would silently remove a per-layer measurement; perfbench/arith.py
calls pgw's library directly, so a rename would fail the arith workload
instead of a test.  Both files are only read: spans.py is loaded by path, and
arith.py is parsed for its `from pgw... import` names and the attributes it
takes of the imported modules.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", BENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_SPANS = _load_spans()
WRAPPED = list(dict.fromkeys([(m, a) for _, m, a in _SPANS.SPANS] + list(_SPANS.METERS)))


@pytest.mark.parametrize("module, attribute", WRAPPED, ids=[f"{m}.{a}" for m, a in WRAPPED])
def test_wrapped_name_exists(module, attribute):
    assert hasattr(importlib.import_module(f"pgw.{module}"), attribute)


def _arith_names():
    """(module, attribute) for each pgw name arith.py imports or uses: a
    name imported from a pgw module, and each attribute taken of a pgw
    module it imports under a local name."""
    tree = ast.parse((BENCH / "arith.py").read_text())
    local, names = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "pgw":
            for alias in node.names:
                try:  # a module imported under a local name
                    module = importlib.import_module(f"{node.module}.{alias.name}").__name__
                    local[alias.asname or alias.name] = module
                except ModuleNotFoundError:  # a name taken from a module
                    names.append((node.module, alias.name))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in local:
                names.append((local[node.value.id], node.attr))
    return list(dict.fromkeys(names))


ARITH = _arith_names()


def test_arith_reads_the_library():
    # the names the arith workload is built on; a parse that finds fewer
    # would leave this file checking nothing
    assert {("pgw.presentation", op) for op in ("mul", "inv", "pow_", "comm", "conj")} <= set(ARITH)
    assert {("pgw.tables", "get_tables"), ("pgw.automorphisms", "verify")} <= set(ARITH)


@pytest.mark.parametrize("module, attribute", ARITH, ids=[f"{m}.{a}" for m, a in ARITH])
def test_arith_name_exists(module, attribute):
    assert hasattr(importlib.import_module(module), attribute)
