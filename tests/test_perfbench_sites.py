"""Every function, class and attribute the benchmark harness reads is still there.

``perfbench/spans.py`` installs its tracing wrappers on module attributes
named in ``CALL_SITES``, and ``perfbench/run.py`` and ``perfbench/probes.py``
call ``relayqos``, ``cli``, ``specfun``, ``effcap`` and ``delaymodel``
attributes directly.  All three read attributes of the configs, results and
reports they pass around.  A renamed, moved or deleted name would otherwise
only show up when the slow benchmark suite runs.
"""

import ast
import dataclasses
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from relayqos import cli
from relayqos.allocator import Allocation
from relayqos.cli import SweepRow, ValidationReport
from relayqos.qsim import DelayStats, SimConfig, simulate_tandem

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# the module each name in the harness's code stands for
MODULES = {"relayqos": "relayqos", "cli": "relayqos.cli",
           "specfun": "relayqos.specfun", "effcap": "relayqos.effcap",
           "delaymodel": "relayqos.delaymodel"}

# the class of the object each variable name in the harness's code holds
HOLDERS = {"cfg": SimConfig, "stats": DelayStats, "report": ValidationReport,
           "swept": SweepRow, "allocation": Allocation}


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans",
                                                  PERFBENCH / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = spans  # dataclasses look their module up there
    spec.loader.exec_module(spans)
    return spans


def harness_reads(scripts, names):
    """Sorted (name, attribute) pairs read as ``name.attr`` in the scripts."""
    found = set()
    for script in scripts:
        for node in ast.walk(ast.parse((PERFBENCH / script).read_text())):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in names):
                found.add((node.value.id, node.attr))
    return sorted(found)


SPANS = load_spans()
CALL_SITES = SPANS.CALL_SITES
LOOKUPS = [(MODULES[name], attr)
           for name, attr in harness_reads(("run.py", "probes.py"), MODULES)]
READS = harness_reads(("run.py", "spans.py", "probes.py"), HOLDERS)


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


def test_harness_reads_found():
    # the harness reads the simulator's config and delays and the report
    assert {("cfg", "relay_forwarding"), ("stats", "e2e_delays"),
            ("report", "allocation"), ("swept", "kappa1")} <= set(READS)


@pytest.mark.parametrize("name, attr", READS,
                         ids=[f"{name}.{attr}" for name, attr in READS])
def test_harness_read_resolves(name, attr):
    # a dataclass field, or a class attribute such as a property or constant
    cls = HOLDERS[name]
    assert attr in {f.name for f in dataclasses.fields(cls)} or hasattr(cls, attr)


def test_traced_validate_records_the_simulator_spans():
    # the harness reads the sample count and largest e2e delay of the
    # simulate_tandem call validate makes, and times its empirical_ccdf
    # call, through the wrappers on those two cli lookup sites
    profile = cli.RadioProfile(delay_bound=0.1, violation_prob=1e-2,
                               transmission_time=2e-3)
    cfg = SimConfig(n_frames=30_000, warmup_frames=1_000, seed=3)
    tracer = SPANS.Tracer()
    tracer.install()
    try:
        cli.validate(profile, cfg)
    finally:
        tracer.uninstall()
    sims = [s for s in tracer.spans if s.name == "qsim.simulate_tandem"]
    assert len(sims) == 1 and not sims[0].error
    scenario = cli.to_scenario(profile)
    e2e = simulate_tandem(scenario, cli.allocate(scenario), cfg).e2e_delays
    assert sims[0].attrs == {"frames": 30_000, "samples": 29_000,
                             "max_e2e": int(e2e.max())}
    assert any(s.name == "qsim.empirical_ccdf" and not s.error for s in tracer.spans)
