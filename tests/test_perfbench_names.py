"""The traced benchmark names ctmt functions as "module:attr" strings and
fails its run when one no longer resolves; this keeps a rename in the
package from reaching the benchmark unnoticed."""

import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()
NAMES = sorted(
    {q for table in (tracing.SPANS, tracing.COUNTED) for names in table.values() for q in names}
    | set(tracing.TALLIES)
)


@pytest.mark.parametrize("qualified", NAMES)
def test_traced_name_resolves(qualified):
    _, function = tracing._resolve(qualified)
    assert callable(function)
