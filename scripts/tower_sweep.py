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
from dataclasses import dataclass
from itertools import combinations_with_replacement

from lattower.group_spec import format_spec, spec_of_degrees
from lattower.tower import StartNode, format_run, run_tower


@dataclass
class TowerSweepConfig:
    degrees: tuple[int, ...]
    max_slots: int
    show_sharp: bool


def parse_args() -> TowerSweepConfig:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--degrees", type=int, nargs="+", default=[3, 4, 5, 6, 7])
    parser.add_argument("--max-T", dest="max_slots", type=int, default=6)
    parser.add_argument("--no-sharp-list", dest="show_sharp", action="store_false")
    args = parser.parse_args()
    return TowerSweepConfig(tuple(sorted(set(args.degrees))), args.max_slots, args.show_sharp)


def main() -> None:
    config = parse_args()
    histogram: Counter[int] = Counter()
    sharp_specs = []
    total = 0
    for t in range(config.max_slots + 1):
        for combo in combinations_with_replacement(config.degrees, t):
            spec = spec_of_degrees(combo)
            run = run_tower(StartNode(spec))
            histogram[run.steps] += 1
            total += 1
            if run.sharp:
                sharp_specs.append((format_spec(spec), format_run(run)))
    print(f"{total} specs, degrees {config.degrees}, T <= {config.max_slots}")
    for steps in sorted(histogram):
        print(f"  {steps} steps: {histogram[steps]}")
    if config.show_sharp and sharp_specs:
        print(f"\nsharp towers ({len(sharp_specs)}):")
        for _, line in sharp_specs:
            print(" ", line)


if __name__ == "__main__":
    main()
