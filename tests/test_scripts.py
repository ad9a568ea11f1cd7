"""The sweep scripts run end to end on tiny arguments."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# script, arguments, the lines its output must contain
RUNS = [
    (
        "census_sweep.py",
        ["--degrees", "3", "4", "--max-T", "2"],
        ["S4^2            2     16     1       0      17          576"],
    ),
    (
        "tower_sweep.py",
        ["--degrees", "3", "4", "--max-T", "2"],
        ["6 specs, degrees (3, 4), T <= 2", "  2 steps: 2"],
    ),
    (
        "oracle_check.py",
        ["--degrees", "3", "--max-T", "2"],
        ["2 specs validated in"],
    ),
]


@pytest.mark.parametrize("script, args, expected", RUNS, ids=[r[0] for r in RUNS])
def test_script_runs(script, args, expected, src_env):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True,
        text=True,
        env=src_env,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    for line in expected:
        assert any(out.startswith(line) for out in lines), (line, proc.stdout)
