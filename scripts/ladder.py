"""Time the spec ladder: each rung is one CLI call in a child process of its own.

Each rung runs ``python -m lattower.cli`` on its arguments, with this
checkout's ``src`` first on the path.  The child is reaped with ``os.wait4``,
which gives that child's own rusage (``RUSAGE_CHILDREN`` would give the
largest child so far), and its stdout goes to a temporary file that is then
hashed in chunks, so even the 738 MB JSON of ``S3^8`` is never held whole.
Each rung's record gives its argv, wall seconds, max RSS, exit code and the
byte count and sha256 of its stdout.  The file also records the git revision
(``-dirty`` when the tree has changes), the Python version and the seconds of
a fixed pure-Python probe loop timed before and after the rungs, by which
runs on a machine whose speed swings can be read against each other.

    python scripts/ladder.py --out BENCH_<n>.json
    python scripts/ladder.py --quick --out bench.json   # three rungs, about 2 s
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

BIG = ["--max-lattice", "1000000"]
RUNGS = [
    ["aut", "--spec", "S3^10"],
    ["aut", "--spec", "S3^11"],
    ["aut", "--spec", "S3^12"],
    ["aut", "--spec", "S4^12"],
    ["aut", "--spec", "S3^13"],  # refused by the slot bound: exit 3, no stdout
    ["hasse", "--spec", "S3^7", *BIG],
    ["hasse", "--spec", "S3^8", *BIG],
    ["enumerate", "--spec", "S3^8", "--format", "json", *BIG],
    ["oracle-diff", "--spec", "S3^5", "--max-order", "7776"],
]
QUICK = [RUNGS[0], RUNGS[5], RUNGS[8]]  # aut S3^10, hasse S3^7, oracle-diff S3^5

PROBE_KEYS = tuple((i % 7, i % 5, i % 3) for i in range(200))


def probe() -> float:
    """Seconds of sixteen rounds of perfbench's fixed pure-Python loop, the best of five."""
    best = float("inf")
    for _ in range(5):
        start = time.perf_counter()
        for _ in range(16):
            for kj in PROBE_KEYS:
                m = 0
                for i, ki in enumerate(PROBE_KEYS):
                    if ki <= kj:
                        m |= 1 << i
        best = min(best, time.perf_counter() - start)
    return best


def run_rung(argv: list[str]) -> dict:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    ))
    with tempfile.TemporaryFile() as out:
        start = time.perf_counter()
        child = subprocess.Popen(
            [sys.executable, "-m", "lattower.cli", *argv],
            stdout=out, stderr=subprocess.DEVNULL, env=env,
        )
        _, status, usage = os.wait4(child.pid, 0)
        wall = time.perf_counter() - start
        child.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        sha, size = hashlib.sha256(), 0
        while chunk := out.read(1 << 20):
            sha.update(chunk)
            size += len(chunk)
    return {
        "argv": argv,
        "wall_s": round(wall, 3),
        "max_rss_mb": round(usage.ru_maxrss / 1024, 1),
        "exit": child.returncode,
        "stdout_bytes": size,
        "stdout_sha256": sha.hexdigest(),
    }


def revision() -> str | None:
    try:
        return subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=12"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", required=True, help="the JSON file to write")
    parser.add_argument("--quick", action="store_true", help="only the three small rungs")
    args = parser.parse_args()
    record = {"revision": revision(), "python": platform.python_version()}
    probe_before = probe()
    rungs = []
    for argv in QUICK if args.quick else RUNGS:
        r = run_rung(argv)
        rungs.append(r)
        print(f"{r['wall_s']:>8.2f} s {r['max_rss_mb']:>7.1f} MB  exit {r['exit']}  "
              f"{r['stdout_sha256'][:12]}  {' '.join(argv)}", flush=True)
    record["probe_s"] = {"before": round(probe_before, 4), "after": round(probe(), 4)}
    record["rungs"] = rungs
    Path(args.out).write_text(json.dumps(record, indent=2) + "\n")


if __name__ == "__main__":
    main()
