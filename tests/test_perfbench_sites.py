"""Every function and class the benchmark harness looks up is still there.

``perfbench/spans.py`` installs its tracing wrappers on module attributes
named in ``CALL_SITES``, and ``perfbench/run.py`` and ``perfbench/probes.py``
call ``relayqos``, ``cli``, ``specfun``, ``effcap`` and ``delaymodel``
attributes directly; a renamed or moved name would otherwise only show up
when the slow benchmark suite runs.
"""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# the module each name in the harness's code stands for
MODULES = {"relayqos": "relayqos", "cli": "relayqos.cli",
           "specfun": "relayqos.specfun", "effcap": "relayqos.effcap",
           "delaymodel": "relayqos.delaymodel"}


def load_call_sites():
    spec = importlib.util.spec_from_file_location("perfbench_spans",
                                                  PERFBENCH / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = spans  # dataclasses look their module up there
    spec.loader.exec_module(spans)
    return spans.CALL_SITES


def harness_lookups():
    """Sorted (module, attribute) pairs read as ``name.attr`` in the harness."""
    found = set()
    for script in ("run.py", "probes.py"):
        for node in ast.walk(ast.parse((PERFBENCH / script).read_text())):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in MODULES):
                found.add((MODULES[node.value.id], node.attr))
    return sorted(found)


CALL_SITES = load_call_sites()
LOOKUPS = harness_lookups()


@pytest.mark.parametrize("layer, module, attr", CALL_SITES,
                         ids=[f"{module}.{attr}" for _, module, attr in CALL_SITES])
def test_call_site_resolves(layer, module, attr):
    assert callable(getattr(importlib.import_module(module), attr))


def test_harness_lookups_found():
    # the harness reads at least its simulator, solver and CLI entry points
    assert {("relayqos", "simulate_tandem"), ("relayqos", "allocate"),
            ("relayqos.cli", "validate")} <= set(LOOKUPS)


@pytest.mark.parametrize("module, attr", LOOKUPS,
                         ids=[f"{module}.{attr}" for module, attr in LOOKUPS])
def test_harness_lookup_resolves(module, attr):
    assert hasattr(importlib.import_module(module), attr)
