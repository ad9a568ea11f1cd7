"""Sweep lattice censuses over a family of tower groups.

Prints one row per spec: slot count, census split, group order, and how long
the enumeration took.  Useful for eyeballing how the mixed family starts to
dominate as slots are added.  Every row is also checked against the
closed-form ``census_of``: a census that differs from the families counted
in the enumeration stops the sweep with an error.  ``--max-T`` is both the
largest slot count swept and the slot bound handed to the library.

    python scripts/census_sweep.py --degrees 3 4 --max-T 4
"""

import argparse
import time
from itertools import combinations_with_replacement

from lattower.group_spec import format_spec, spec_of_degrees
from lattower.lattice_core import census_of, enumerate_lattice


def sweep(degrees: tuple[int, ...], max_slots: int) -> list[tuple]:
    rows = []
    for t in range(1, max_slots + 1):
        for combo in combinations_with_replacement(degrees, t):
            spec = spec_of_degrees(combo)
            start = time.perf_counter()
            lat = enumerate_lattice(spec, max_slots)
            elapsed = time.perf_counter() - start
            c = lat.census
            closed_form = census_of(spec, max_slots)
            if closed_form != c:
                raise SystemExit(f"{format_spec(spec)}: census_of {closed_form}, enumerated {c}")
            rows.append(
                (format_spec(spec), t, c.sub_products, c.sign_parity, c.mixed, c.total,
                 spec.group_order, elapsed)
            )
    return rows


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--degrees", type=int, nargs="+", default=[3, 4, 5])
    parser.add_argument("--max-T", dest="max_slots", type=int, default=4)
    args = parser.parse_args()
    rows = sweep(tuple(sorted(set(args.degrees))), args.max_slots)
    header = (
        f"{'spec':<14} {'T':>2} {'sub':>6} {'par':>5} {'mixed':>7} {'total':>7}"
        f" {'|G|':>12} {'secs':>7}"
    )
    print(header)
    print("-" * len(header))
    for spec, t, sub, par, mixed, total, order, secs in rows:
        print(f"{spec:<14} {t:>2} {sub:>6} {par:>5} {mixed:>7} {total:>7} {order:>12} {secs:>7.3f}")


if __name__ == "__main__":
    main()
