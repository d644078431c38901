"""The demo scripts named in the README run and report their summary."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "script, data, trials, summary",
    [
        ("round_trip_demo.py", "pants.json", 3, "worst reconstruction error over 3 trials"),
        ("uniqueness_demo.py", "torus.json", 2, "worst spread across starts"),
    ],
)
def test_demo_runs(script, data, trials, summary):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), str(ROOT / "scripts" / "data" / data), str(trials)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert summary in proc.stdout
