"""The sweep scripts run end to end on tiny arguments, and hand the library no slot bound."""

import inspect
import json
import platform
import subprocess
import sys
from pathlib import Path

import pytest

from lattower.census import census_of
from lattower.lattice_core import enumerate_lattice
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
        [" 0  2  S3^2                   10         2         2         2  match", " 2  0  S4^2  "],
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
    """Replace ``module.name`` by ``real``, first noting the parameters it is passed."""
    signature = inspect.signature(real)

    def wrapper(*args, **kwargs):
        arguments = signature.bind(*args, **kwargs).arguments
        seen.append((name, {key: value for key, value in arguments.items() if key != "spec"}))
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)


# --max-T is only how far a script sweeps: the library is handed the spec
# alone, and oracle_check.py also the order bound, as max_order


def test_census_sweep_hands_the_library_no_bound(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    import census_sweep

    seen = []
    _recording(monkeypatch, census_sweep, "enumerate_lattice", enumerate_lattice, seen)
    _recording(monkeypatch, census_sweep, "census_of", census_of, seen)
    rows = census_sweep.sweep((3,), 2)
    assert [row[0] for row in rows] == ["S3", "S3^2"]
    assert seen == [(name, {}) for _ in rows for name in ("enumerate_lattice", "census_of")]


def test_oracle_check_hands_the_library_only_the_order_bound(monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    import oracle_check

    seen = []
    _recording(monkeypatch, oracle_check, "differential_validate", differential_validate, seen)
    argv = ["oracle_check.py", "--degrees", "3", "--max-T", "2", "--max-order", "36"]
    monkeypatch.setattr(sys, "argv", argv)
    oracle_check.main()
    assert seen == [("differential_validate", {"max_order": 36})] * 2
    assert "2 specs validated in" in capsys.readouterr().out


def test_shape_sweep_hands_the_library_no_bound(monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    import shape_sweep

    seen = []
    _recording(monkeypatch, shape_sweep, "census_of", census_of, seen)
    monkeypatch.setattr(sys, "argv", ["shape_sweep.py", "--max-T", "2"])
    shape_sweep.main()
    assert seen == [("census_of", {})] * 5
    assert capsys.readouterr().out.count("match") == 5


def test_output_digests_hands_the_cli_only_the_lattice_bound(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    import output_digests

    assert output_digests.commands("S3^2", 7) == [
        ["hasse", "--spec", "S3^2", "--max-lattice", "7"],
        ["enumerate", "--spec", "S3^2", "--max-lattice", "7", "--format", "json"],
        ["aut", "--spec", "S3^2"],
        ["aut", "--spec", "S3^2", "--format", "json"],
    ]
    # with no bound given, the CLI's own default applies
    assert output_digests.commands("S3^2", None) == [
        ["hasse", "--spec", "S3^2"],
        ["enumerate", "--spec", "S3^2", "--format", "json"],
        ["aut", "--spec", "S3^2"],
        ["aut", "--spec", "S3^2", "--format", "json"],
    ]


@pytest.mark.parametrize("max_t", ["13", "15"])
def test_shape_sweep_refuses_a_slot_count_past_its_bound(max_t, src_env):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "shape_sweep.py"), "--max-T", max_t],
        capture_output=True,
        text=True,
        env=src_env,
        timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.endswith(
        f"error: --max-T {max_t} is past 12, the slot bound of the closed-form context\n"
    )


# the stdout of each quick ladder rung: its byte count and sha256
LADDER_QUICK = {
    "aut --spec S3^10": (
        203, "23bf9582ac1ed794a0b83bb060183fd78fcad133323951ae65cf7405dec60dff"
    ),
    "hasse --spec S3^7 --max-lattice 1000000": (
        14128011, "cbc03c0a08b183d322a06e5b0e49b55fe8d744dad1fbafa84252ce808b8205b6"
    ),
    "oracle-diff --spec S3^5 --max-order 7776": (
        3, "dc51b8c96c2d745df3bd5590d990230a482fd247123599548e0632fdbf97fc22"
    ),
}


def test_the_quick_ladder_records_each_rung(tmp_path, src_env):
    out = tmp_path / "bench.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "ladder.py"), "--quick", "--out", str(out)],
        capture_output=True,
        text=True,
        env=src_env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    record = json.loads(out.read_text())
    assert set(record) == {"revision", "python", "probe_s", "rungs"}
    assert record["python"] == platform.python_version()
    assert set(record["probe_s"]) == {"before", "after"}
    assert all(seconds > 0 for seconds in record["probe_s"].values())
    rungs = {" ".join(rung["argv"]): rung for rung in record["rungs"]}
    assert list(rungs) == list(LADDER_QUICK)
    for name, (size, sha) in LADDER_QUICK.items():
        rung = rungs[name]
        assert set(rung) == {
            "argv", "wall_s", "max_rss_mb", "exit", "stdout_bytes", "stdout_sha256"
        }
        assert (rung["exit"], rung["stdout_bytes"], rung["stdout_sha256"]) == (0, size, sha), name
        assert rung["wall_s"] > 0 and rung["max_rss_mb"] > 0
