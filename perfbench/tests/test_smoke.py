"""Every workload runs on its smallest rung, untraced and traced, with no
failed op; a wrong verdict or a crash makes the run incorrect."""

from __future__ import annotations

import contextlib
import io
import shutil
import subprocess
import sys

import pytest

import layers
import run
import workloads


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smallest_rung(workload):
    ops = workloads.build_ops(workload, seed=0, smallest=True)
    runner = run.Runner(ops, run.import_program(), run.SpeedSampler(enabled=True))
    runner.run_pass()
    assert runner.failed == 0 and runner.attempted == len(ops)
    recorder = layers.Recorder()
    mirror = layers.Mirror(recorder)
    for i, op in enumerate(ops):
        mirror.run(op, f"{i}:{op.name}")
    figures = layers.summarise_pass(recorder.spans)
    assert set(figures) | set(layers.COUNTS) | {"lattice_core.enumerate_mb"} == set(layers.PER_LAYER)
    assert all(s["end"] >= s["start"] for s in recorder.spans)
    if any(op.kind != "verify-tower" for op in ops):
        assert figures["cli.self_s"] > 0


def _flipped(old: str, new: str):
    """A cli whose main prints the real output with ``old`` replaced by ``new``
    and exits 4, as lattower does on a verification mismatch."""
    cli = run.import_program()

    class Flipped:
        def main(self, argv):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                assert cli.main(argv) == 0
            assert old in buf.getvalue()
            print(buf.getvalue().replace(old, new), end="")
            return cli.EXIT_MISMATCH

    return Flipped()


class Crashing:
    def main(self, argv):
        raise RuntimeError("crash")


@pytest.mark.parametrize(
    "op, cli",
    [
        (workloads.Op("aut", (3, 3, 4, 4)), _flipped(") match", ") MISMATCH")),
        (workloads.Op("oracle-diff", (3, 3)), _flipped('"ok": true', '"ok": false')),
        (workloads.Op("lemmas"), Crashing()),
    ],
)
def test_failed_op_makes_the_run_incorrect(op, cli):
    runner = run.Runner([op, op], cli, run.SpeedSampler(enabled=False))
    runner.run_pass()
    result = run.result([{"attempted": runner.attempted, "failed": runner.failed}], {})
    assert result["attempted"] == 2 and result["failed"] == 2
    assert result["correct"] is False


def test_seed_changes_labels_not_work():
    a = workloads.build_ops("aut", seed=1)
    b = workloads.build_ops("aut", seed=2)
    assert a == workloads.build_ops("aut", seed=1)
    shape = lambda ops: sorted((op.kind, len(op.degrees), op.degrees.count(4)) for op in ops)
    assert shape(a) == shape(b)
    assert len(workloads.build_ops("census", seed=3)) == 2 + 462


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oracle", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
