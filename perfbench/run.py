"""Benchmark of lattower: one workload per process, end to end or per layer.

    python3 perfbench/run.py --workload census --seed 1 --seconds 6 --trace 0

Run from the repository root; the program is imported from ``src/``.  Every
op goes through ``lattower.cli.main(argv)`` with stdout captured, and every
output is checked against an independent computation (``checks.py``).  The
last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are setup_s, pass_s and peak_rss_mb; with
``--trace 1`` they are the per-layer figures of ``layers.py``, and the spans
are written to ``perfbench/out/``.  See README.md for what each figure means.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

import checks  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402

CHECKS = {
    "enumerate": checks.check_census_text,
    "enumerate-json": checks.check_enumerate_json,
    "hasse": checks.check_hasse_dot,
    "aut": checks.check_aut_text,
    "oracle-diff": checks.check_oracle_json,
    "lemmas": checks.check_lemmas_text,
    "verify-tower": checks.check_tower_steps,
}
# Fresh processes per end-to-end run.  Each sets up once and then times
# passes for its share of --seconds, at least one.
PROCESSES = 2
# A run ends within this many seconds, or fails without a result.
RUN_DEADLINE_S = 170
# Wall time between speed samples while an op runs.
SAMPLE_EVERY_S = 0.1
# speed_probe() seconds on the machine the reported times are scaled to.
PROBE_REF_S = 0.0054


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def import_program():
    """Import lattower.cli from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "lattower" / "cli.py").is_file():
        raise BenchError(f"no program source under {src}")
    sys.path.insert(0, str(src))
    import lattower.cli

    if src not in Path(lattower.cli.__file__).resolve().parents:
        raise BenchError(f"lattower imported from {lattower.cli.__file__}, not {src}")
    return lattower.cli


class Runner:
    """Runs and checks whole passes over the ops; counts attempts and failures."""

    def __init__(self, ops, cli, sampler: "SpeedSampler"):
        self.ops = ops
        self.cli = cli
        self.sampler = sampler
        self.attempted = 0
        self.failed = 0

    def _verify_tower(self, op):
        from lattower.group_spec import parse_spec
        from lattower.tower import StartNode, run_tower, verify_step_against_lattice

        run = run_tower(StartNode(parse_spec(op.spec)))
        return [verify_step_against_lattice(node).to_json_dict() for node in run.nodes]

    def _execute(self, op):
        """(seconds, exit code, output) of one op."""
        if op.kind == "verify-tower":
            seconds, out = self.sampler.timed(self._verify_tower, op)
            return seconds, 0, out
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            seconds, rc = self.sampler.timed(self.cli.main, op.argv)
        return seconds, rc, buf.getvalue()

    def run_op(self, op) -> float | None:
        """Run and check one op; its wall time, or None when it raised.

        An op fails when it raises, exits non-zero or prints output that
        fails its check.  The check runs whatever the exit code, so that a
        ``MISMATCH`` verdict or ``"ok": false`` is named as such.
        """
        self.attempted += 1
        try:
            seconds, rc, out = self._execute(op)
        except Exception:
            traceback.print_exc()
            self.failed += 1
            return None
        problems = [] if rc == 0 else [f"exit code {rc}"]
        try:
            if op.kind == "tower":
                checks.check_tower_text(out, op.degrees, sharp=op.sharp)
            else:
                CHECKS[op.kind](out, op.degrees)
        except checks.CheckFailed as exc:
            problems.append(str(exc))
        if problems:
            print(f"{op.name}: {'; '.join(problems)}", file=sys.stderr)
            self.failed += 1
        return seconds

    def run_pass(self) -> tuple[float, list[float]]:
        """One pass over every op: the sum of their times, checks left out,
        and the speed samples taken while they ran."""
        gc.collect()
        first = len(self.sampler.samples)
        total = sum(self.run_op(op) or 0.0 for op in self.ops)
        return total, self.sampler.samples[first:]


PROBE_KEYS = tuple((i % 7, i % 5, i % 3) for i in range(200))


def speed_probe() -> float:
    """Seconds of a fixed pure-Python loop: how fast the machine runs right now."""
    start = time.perf_counter()
    for kj in PROBE_KEYS:
        m = 0
        for i, ki in enumerate(PROBE_KEYS):
            if ki <= kj:
                m |= 1 << i
    return time.perf_counter() - start


class SpeedSampler:
    """Samples the machine's speed while ops run, from a wall-clock timer.

    This machine's speed swings by up to 2x over seconds to minutes, and an
    op can last seconds, so probes between ops miss what happened during
    them.  Every SAMPLE_EVERY_S of wall time a signal handler runs
    speed_probe() in the middle of the op; ``timed`` leaves the handler's
    time out of the op's time.  While disabled, it takes no samples.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.samples: list[float] = []
        self.stolen = 0.0
        if enabled:
            signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self.samples.append(speed_probe())
        self.stolen += time.perf_counter() - start

    def timed(self, fn, *args):
        """(seconds, result) of fn(*args), sampling the speed meanwhile."""
        if not self.enabled:
            start = time.perf_counter()
            result = fn(*args)
            return time.perf_counter() - start, result
        stolen = self.stolen
        start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        try:
            result = fn(*args)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        return time.perf_counter() - start - (self.stolen - stolen), result


def steady(seconds: float, samples: list[float]) -> float:
    """Time rescaled to a machine on which speed_probe() takes PROBE_REF_S.

    Samples come at even intervals of wall time, so their mean, not their
    median, follows the slowness summed over the interval.
    """
    return seconds * PROBE_REF_S / statistics.fmean(samples or [speed_probe()])


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def timed_passes(runner: Runner, seconds: float) -> dict:
    passes, raw = [], []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        total, samples = runner.run_pass()
        passes.append(steady(total, samples))
        raw.append(total)
    return {"passes": passes, "raw_passes": raw, "peak_rss_mb": peak_rss_mb()}


def measure_per_layer(runner: Runner, seconds: float) -> dict:
    recorder = layers.Recorder()
    mirror = layers.Mirror(recorder)
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        recorder.round = len(rounds)
        first = len(recorder.spans)
        gc.collect()
        for i, op in enumerate(runner.ops):
            mirror.run(op, f"{i}:{op.name}")
        rounds.append(layers.summarise_pass(recorder.spans[first:]))
    values = layers.median_metrics(rounds)
    values.update({c: recorder.counts.get(c, 0) // len(rounds) for c in layers.COUNTS})
    values["lattice_core.enumerate_mb"] = layers.enumerate_peak_mb(runner.ops)
    return {"per_layer": values, "rounds": len(rounds), "spans": recorder.spans}


def child_main(args) -> int:
    """One fresh process: set up, then measure for args.child seconds."""
    sampler = SpeedSampler(enabled=not args.trace)
    import_s, cli = sampler.timed(import_program)
    runner = Runner(workloads.build_ops(args.workload, args.seed), cli, sampler)
    total, samples = runner.run_pass()
    out = {"setup_s": steady(import_s + total, sampler.samples), "raw_setup_s": import_s + total}
    if args.trace:
        out.update(measure_per_layer(runner, args.child))
    else:
        out.update(timed_passes(runner, args.child))
    out.update(attempted=runner.attempted, failed=runner.failed)
    print(json.dumps(out))
    return 0


def run_child(args, seconds: float, deadline: float) -> dict:
    """Run one workload process to its end and return its figures."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--child", str(seconds)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=max(deadline - time.monotonic(), 1))
    except subprocess.TimeoutExpired:
        raise BenchError(f"workload process still running after {RUN_DEADLINE_S} s") from None
    if proc.returncode != 0:
        raise BenchError(f"workload process exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="length of the timed phase")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--child", type=float, default=None, help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    deadline = time.monotonic() + RUN_DEADLINE_S
    try:
        if args.child is not None:
            return child_main(args)
        if not (ROOT / "src" / "lattower" / "cli.py").is_file():
            raise BenchError(f"no program source under {ROOT / 'src'}")
        if args.trace:
            children = [run_child(args, args.seconds, deadline)]
            metrics = {m: {"value": children[0]["per_layer"][m], "unit": unit}
                       for m, unit in layers.PER_LAYER.items()}
            OUT.mkdir(exist_ok=True)
            path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
            path.write_text(json.dumps({"workload": args.workload, "seed": args.seed,
                                        "rounds": children[0]["rounds"],
                                        "spans": children[0]["spans"]}))
        else:
            children = [run_child(args, args.seconds / PROCESSES, deadline)
                        for _ in range(PROCESSES)]
            passes = [p for c in children for p in c["passes"]]
            print(json.dumps({k: [c[k] for c in children]
                              for k in ("setup_s", "raw_setup_s", "passes", "raw_passes")}),
                  file=sys.stderr)
            metrics = {
                "setup_s": {"value": statistics.median(c["setup_s"] for c in children), "unit": "s"},
                "pass_s": {"value": statistics.median(passes), "unit": "s"},
                "peak_rss_mb": {"value": statistics.median(c["peak_rss_mb"] for c in children),
                                "unit": "MB"},
            }
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result(children, metrics)))
    return 0


def result(children: list[dict], metrics: dict) -> dict:
    """The result line of a run: a failed op of any process makes it incorrect."""
    failed = sum(c["failed"] for c in children)
    return {
        "correct": failed == 0,
        "attempted": sum(c["attempted"] for c in children),
        "failed": failed,
        "metrics": metrics,
    }


if __name__ == "__main__":
    sys.exit(main())
