"""Every pgw name that the benchmark's per-layer spans and meters wrap exists.

perfbench/spans.py reports a missing name as absent and drops its metrics, so
a rename would silently remove a per-layer measurement.  The file is loaded
by path and only read.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_SPANS = _load_spans()
WRAPPED = list(dict.fromkeys([(m, a) for _, m, a in _SPANS.SPANS] + list(_SPANS.METERS)))


@pytest.mark.parametrize("module, attribute", WRAPPED, ids=[f"{m}.{a}" for m, a in WRAPPED])
def test_wrapped_name_exists(module, attribute):
    assert hasattr(importlib.import_module(f"pgw.{module}"), attribute)
