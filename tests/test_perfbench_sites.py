"""Every function the benchmark harness wraps is still where it looks.

``perfbench/spans.py`` installs its tracing wrappers on module attributes
named in ``CALL_SITES``; a renamed or moved function would otherwise only
show up when the slow benchmark suite runs.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_call_sites():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = spans  # dataclasses look their module up there
    spec.loader.exec_module(spans)
    return spans.CALL_SITES


CALL_SITES = load_call_sites()


@pytest.mark.parametrize("layer, module, attr", CALL_SITES,
                         ids=[f"{module}.{attr}" for _, module, attr in CALL_SITES])
def test_call_site_resolves(layer, module, attr):
    assert callable(getattr(importlib.import_module(module), attr))
