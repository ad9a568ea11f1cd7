"""Check the product formula on every shape (a4, B) up to a slot count.

N(G) sees a slot only through its chain, TRIV < V < ALT < FULL at degree 4
and TRIV < ALT < FULL at degree 3, so each shape with 1 <= a4 + B <= --max-T
is realised as S4^a4 * S3^B and checked by ``verify_product_formula``, on
N(G)'s standard context in closed form, with no element enumerated.  One
line per shape gives its element count (the closed-form census), the three
orders (a4! * B!, the searched group and the group of the tau maps that
sift through it), the verdict and the seconds taken.  ``--max-T`` is the largest slot count
swept, and no bound is handed to the library; past ``MAX_CONTEXT_SLOTS``
(12), the closed-form context's own bound, it is refused before any shape is
swept.  A shape that does not match stops the sweep with an error after its
line.

    python scripts/shape_sweep.py --max-T 12
"""

import argparse
import time

from lattower.autgroup import verify_product_formula
from lattower.census import census_of
from lattower.context import MAX_CONTEXT_SLOTS
from lattower.group_spec import format_spec, spec_of_degrees


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-T", dest="max_t", type=int, default=6)
    args = parser.parse_args()
    if args.max_t > MAX_CONTEXT_SLOTS:
        parser.error(
            f"--max-T {args.max_t} is past {MAX_CONTEXT_SLOTS}, the slot bound of the "
            "closed-form context"
        )
    header = (
        f"{'a4':>2} {'B':>2}  {'spec':<12} {'elements':>12} {'a4!*B!':>9} {'search':>9}"
        f" {'tau':>9}  {'verdict':<8} {'secs':>6}"
    )
    print(header)
    print("-" * len(header))
    for t in range(1, args.max_t + 1):
        for a4 in range(t + 1):
            spec = spec_of_degrees((4,) * a4 + (3,) * (t - a4))
            start = time.perf_counter()
            elements = census_of(spec).total
            r = verify_product_formula(spec)
            secs = time.perf_counter() - start
            verdict = "match" if r.match else "MISMATCH"
            print(
                f"{a4:>2} {t - a4:>2}  {format_spec(spec):<12} {elements:>12}"
                f" {r.predicted_order:>9} {r.brute_force_order:>9} {r.constructive_order:>9}"
                f"  {verdict:<8} {secs:>6.2f}",
                flush=True,
            )
            if not r.match:
                raise SystemExit(f"{format_spec(spec)}: the product formula does not match")


if __name__ == "__main__":
    main()
