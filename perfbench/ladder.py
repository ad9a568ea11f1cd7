"""Reference timings of the top rungs of the spec ladder, measured once.

These rungs take half a minute or more each, too long to repeat in every
benchmark run, so they are timed here once and recorded in README.md:

    python3 perfbench/ladder.py
"""

from __future__ import annotations

import contextlib
import io
import json
import platform
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from lattower.cli import main  # noqa: E402
from lattower.group_spec import parse_spec  # noqa: E402
from lattower.lattice_core import enumerate_lattice  # noqa: E402


def timed_cli(*argv: str) -> dict:
    buf = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        rc = main(list(argv))
    return {"op": " ".join(argv), "seconds": time.perf_counter() - start, "exit": rc,
            "output": buf.getvalue().strip().split("\n")[0]}


def timed_order_relation(spec: str) -> dict:
    lat = enumerate_lattice(parse_spec(spec))
    start = time.perf_counter()
    lat.down_masks
    order = time.perf_counter() - start
    lat.to_abstract().covers
    return {"op": f"order relation of {spec}", "elements": len(lat), "down_masks_s": order,
            "covers_s": time.perf_counter() - start - order}


if __name__ == "__main__":
    print(json.dumps({"python": platform.python_version()}))
    for row in (timed_cli("aut", "--spec", "S3^5"), timed_cli("oracle-diff", "--spec", "S3^4"),
                timed_order_relation("S3^6")):
        print(json.dumps(row), flush=True)
