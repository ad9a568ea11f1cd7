"""The sweep scripts run end to end on tiny arguments, and pass their bounds on."""

import inspect
import subprocess
import sys
from pathlib import Path

import pytest

from lattower.autgroup import verify_product_formula
from lattower.lattice_core import census_of, enumerate_lattice
from lattower.perm_oracle import differential_validate

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
    (
        "shape_sweep.py",
        ["--max-T", "2"],
        [" 0  2  S3^2                10      2      2      2  match", " 2  0  S4^2  "],
    ),
    (
        "output_digests.py",
        ["--spec", "S3^2"],
        [
            "cb3188bbda1bdc508a9085113d225634c259ba63fe4482ca77f066278d938ca8         506  ",
            "1c2d75ee750f3fbb380453e8cf5c1f4dff7cacdee9d7bae68e6dcac9782629d0        2871  ",
            "3e0dcaa28d7206315818aa85491be8db1e057a1c5b316e09827e01c783ba09f0          94  ",
            "7a08b1b5e5228f94c09f8bdcde4decca3ee995975f1655a028a7fb9b763916fe         175  ",
        ],
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


def _recording(monkeypatch, module, name, real, seen):
    """Replace ``module.name`` by ``real``, first noting the ``max_slots`` it is passed."""
    signature = inspect.signature(real)

    def wrapper(*args, **kwargs):
        seen.append((name, signature.bind(*args, **kwargs).arguments.get("max_slots")))
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)


def test_census_sweep_passes_its_slot_bound(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    import census_sweep

    seen = []
    _recording(monkeypatch, census_sweep, "enumerate_lattice", enumerate_lattice, seen)
    _recording(monkeypatch, census_sweep, "census_of", census_of, seen)
    rows = census_sweep.sweep((3,), 2)
    assert [row[0] for row in rows] == ["S3", "S3^2"]
    assert seen == [(name, 2) for _ in rows for name in ("enumerate_lattice", "census_of")]


def test_oracle_check_passes_its_slot_bound(monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    import oracle_check

    seen = []
    _recording(monkeypatch, oracle_check, "differential_validate", differential_validate, seen)
    argv = ["oracle_check.py", "--degrees", "3", "--max-T", "2", "--max-order", "36"]
    monkeypatch.setattr(sys, "argv", argv)
    oracle_check.main()
    assert seen == [("differential_validate", 2)] * 2
    assert "2 specs validated in" in capsys.readouterr().out


def test_shape_sweep_passes_its_slot_bound(monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    import shape_sweep

    seen = []
    _recording(monkeypatch, shape_sweep, "verify_product_formula", verify_product_formula, seen)
    monkeypatch.setattr(sys, "argv", ["shape_sweep.py", "--max-T", "2"])
    shape_sweep.main()
    assert seen == [("verify_product_formula", 2)] * 5
    assert capsys.readouterr().out.count("match") == 5
