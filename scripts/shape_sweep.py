"""Check the product formula on every shape (a4, B) up to a slot count.

N(G) sees a slot only through its chain, TRIV < V < ALT < FULL at degree 4
and TRIV < ALT < FULL at degree 3, so each shape with 1 <= a4 + B <= --max-T
is realised as S4^a4 * S3^B and checked by ``verify_product_formula``.  One
line per shape gives its element count, the three orders (a4! * B!, the
searched group and the group of the tau maps), the verdict and the seconds
taken.  ``--max-T`` is both the largest slot count swept and the slot bound
handed to the library; the search bound is each lattice's own census, so no
shape is refused.  A shape that does not match stops the sweep with an
error after its line.

    python scripts/shape_sweep.py --max-T 6
"""

import argparse
import time

from lattower.autgroup import verify_product_formula
from lattower.group_spec import format_spec, spec_of_degrees
from lattower.lattice_core import census_of


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-T", dest="max_slots", type=int, default=6)
    args = parser.parse_args()
    header = (
        f"{'a4':>2} {'B':>2}  {'spec':<12} {'elements':>9} {'a4!*B!':>6} {'search':>6}"
        f" {'tau':>6}  {'verdict':<8} {'secs':>6}"
    )
    print(header)
    print("-" * len(header))
    for t in range(1, args.max_slots + 1):
        for a4 in range(t + 1):
            spec = spec_of_degrees((4,) * a4 + (3,) * (t - a4))
            size = census_of(spec, args.max_slots).total
            start = time.perf_counter()
            r = verify_product_formula(spec, args.max_slots, max_size=size)
            secs = time.perf_counter() - start
            verdict = "match" if r.match else "MISMATCH"
            print(
                f"{a4:>2} {t - a4:>2}  {format_spec(spec):<12} {size:>9} {r.predicted_order:>6}"
                f" {r.brute_force_order:>6} {r.constructive_order:>6}  {verdict:<8} {secs:>6.2f}",
                flush=True,
            )
            if not r.match:
                raise SystemExit(f"{format_spec(spec)}: the product formula does not match")


if __name__ == "__main__":
    main()
