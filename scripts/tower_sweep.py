"""Run the LatAut tower over every spec up to a size bound.

Buckets the runs by step count and lists the specs that need the full three
steps.  With G_1 = S_a4 x S_B, a tower needs all three exactly when a4 >= 2
and B >= 2, unless one of the two is 4 and the other is at least 3 but not 4
(then G_2 is already trivial).  Most sharp towers pass through C2 at step 2:
with the defaults below, 95 of the 105 do, and only the 10 whose first step
lands on C2^2 pass through S3.

    python scripts/tower_sweep.py --degrees 3 4 5 6 7 --max-T 6
"""

import argparse
from collections import Counter
from itertools import combinations_with_replacement

from lattower.group_spec import spec_of_degrees
from lattower.tower import StartNode, format_run, run_tower


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--degrees", type=int, nargs="+", default=[3, 4, 5, 6, 7])
    parser.add_argument("--max-T", dest="max_slots", type=int, default=6)
    args = parser.parse_args()
    degrees = tuple(sorted(set(args.degrees)))
    histogram: Counter[int] = Counter()
    sharp_lines = []
    total = 0
    for t in range(args.max_slots + 1):
        for combo in combinations_with_replacement(degrees, t):
            run = run_tower(StartNode(spec_of_degrees(combo)))
            histogram[run.steps] += 1
            total += 1
            if run.sharp:
                sharp_lines.append(format_run(run))
    print(f"{total} specs, degrees {degrees}, T <= {args.max_slots}")
    for steps in sorted(histogram):
        print(f"  {steps} steps: {histogram[steps]}")
    if sharp_lines:
        print(f"\nsharp towers ({len(sharp_lines)}):")
        for line in sharp_lines:
            print(" ", line)


if __name__ == "__main__":
    main()
