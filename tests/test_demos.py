"""Each demo script runs to completion against the package under test,
without loading scipy, which only the tests need."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import relayqos

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo):
    src = str(Path(relayqos.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    # run the demo as __main__, then report the scipy modules it loaded
    code = ("import runpy, sys; "
            f"runpy.run_path({str(demo)!r}, run_name='__main__'); "
            "print(sorted(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=300)
    assert out.returncode == 0, out.stderr[-2000:]
    assert out.stdout.splitlines()[-1] == "[]"
