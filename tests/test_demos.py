"""The demos run to the end and print the checks they claim.

Demos 01-03 take about four seconds together.  Demo 04, a 64x4x4x4 decay
run of about twenty seconds, is left out: its flow is covered by the
acceptance runs of criterion 6.  Demo 03 integrates a constant field, where
every point ties in the eigenvalue screen of the guard and of stable_dt.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("demo,checks", [("01_pointwise_identities.py", 0),
                                         ("02_seven_dim_lift.py", 1),
                                         ("03_fixed_point_flow.py", 1)])
def test_demo_runs(demo, checks):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert re.findall(r":\s+(True|False)\b", done.stdout) == ["True"] * checks, done.stdout
