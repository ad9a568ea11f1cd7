"""Differentially validate every spec the permutation oracle can reach.

Walks all tower groups whose order fits under the oracle bound, recomputes
their normal subgroups from conjugacy classes, and compares counts, profiles,
every down set and all pairwise meet/join answers against the triple
enumeration.  Any disagreement raises immediately; a clean run prints one
line per spec.  ``--max-T`` is the largest slot count walked; the library is
handed only ``--max-order``, which caps the slots by itself, as every factor
has order at least 6.

    python scripts/oracle_check.py --max-order 1000
    python scripts/oracle_check.py --degrees 3 --max-T 5 --max-order 7776   # up to S3^5
    python scripts/oracle_check.py --degrees 3 4 --max-T 5 --max-order 497664   # S4^3*S3^2
"""

import argparse
import time
from itertools import combinations_with_replacement

from lattower.group_spec import format_spec, spec_of_degrees
from lattower.perm_oracle import DEFAULT_MAX_ORDER, differential_validate


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--degrees", type=int, nargs="+", default=[3, 4, 5])
    parser.add_argument("--max-T", dest="max_t", type=int, default=4)
    parser.add_argument("--max-order", type=int, default=DEFAULT_MAX_ORDER)
    args = parser.parse_args()
    checked = 0
    start = time.perf_counter()
    for t in range(1, args.max_t + 1):
        for combo in combinations_with_replacement(sorted(set(args.degrees)), t):
            spec = spec_of_degrees(combo)
            if spec.group_order > args.max_order:
                continue
            t0 = time.perf_counter()
            report = differential_validate(spec, args.max_order)
            secs = time.perf_counter() - t0
            print(
                f"{format_spec(spec):<12} order {report.group_order:>6}: "
                f"{report.oracle_count:>4} normal subgroups, "
                f"{report.pairs_checked:>7} pairs checked, {secs:.2f}s"
            )
            checked += 1
    print(f"\n{checked} specs validated in {time.perf_counter() - start:.2f}s, no disagreements")


if __name__ == "__main__":
    main()
