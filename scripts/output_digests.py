"""Digest the bytes that the lattice writers and ``aut`` print for one spec.

Runs ``hasse``, ``enumerate --format json`` and ``aut`` as text and as JSON
through ``lattower.cli.main`` in this process, with stdout hashed as it is
written, so even a large lattice's output is never held whole.  One line per
command gives the sha256 of its stdout, the byte count, the seconds taken,
the exit code and the command.  Two checkouts print the same digests exactly
when the four outputs are byte-identical.  ``--max-lattice`` goes to
``hasse`` and ``enumerate`` only, and only when it is given, so the CLI's
own default applies otherwise: ``aut`` builds no element and takes no bound.

    python scripts/output_digests.py --spec 'S3^7' --max-lattice 100000
"""

import argparse
import hashlib
import time
from contextlib import redirect_stdout

from lattower import cli


class _Digest:
    """A write-only text stream that keeps the sha256 and the byte count of its UTF-8 bytes."""

    def __init__(self):
        self.sha = hashlib.sha256()
        self.size = 0

    def write(self, text: str) -> int:
        data = text.encode()
        self.sha.update(data)
        self.size += len(data)
        return len(text)

    def flush(self) -> None:
        pass


def commands(spec: str, max_lattice: int | None) -> list[list[str]]:
    bounds = [] if max_lattice is None else ["--max-lattice", str(max_lattice)]
    return [
        ["hasse", "--spec", spec, *bounds],
        ["enumerate", "--spec", spec, *bounds, "--format", "json"],
        ["aut", "--spec", spec],
        ["aut", "--spec", spec, "--format", "json"],
    ]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--spec", required=True)
    parser.add_argument("--max-lattice", type=int)
    args = parser.parse_args()
    failed = False
    for argv in commands(args.spec, args.max_lattice):
        out = _Digest()
        start = time.perf_counter()
        with redirect_stdout(out):
            code = cli.main(argv)
        secs = time.perf_counter() - start
        print(f"{out.sha.hexdigest()}  {out.size:>10}  {secs:>7.2f}  {code}  {' '.join(argv)}")
        failed |= code != 0
    if failed:
        raise SystemExit("a command exited with a nonzero code")


if __name__ == "__main__":
    main()
