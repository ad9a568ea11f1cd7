"""Command line interface.

Subcommands: enumerate, aut, tower, oracle-diff, hasse, lemmas.  Output is
deterministic; identical invocations print identical bytes.  Exit codes:
0 success, 1 unexpected error, 2 parse errors, 3 bound violations,
4 verification mismatches.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import (
    DegreeTooLarge,
    DegreeTooSmall,
    LatTowerError,
    NegativeExponent,
    OracleMismatch,
    SpecParseError,
    TooLarge,
)
from .autgroup import (
    DEFAULT_MAX_LATTICE,
    automorphism_group,
    searchable_lattice,
    verify_product_formula,
)
from .group_spec import format_spec, parse_spec
from .lattice_core import DEFAULT_MAX_SLOTS, Lattice, census_of
from .perm_oracle import (
    DEFAULT_MAX_ORDER,
    LEMMA_GROUP_DEGREES,
    ConcreteGroup,
    all_normal_subgroups,
    differential_validate,
    lemma_lattices,
    normal_subgroup_poset,
)
from .tower import StartNode, format_node, format_run, run_tower

EXIT_PARSE = 2
EXIT_BOUNDS = 3
EXIT_MISMATCH = 4

_PARSE_ERRORS = (SpecParseError, DegreeTooSmall, DegreeTooLarge, NegativeExponent)


# Every option a subcommand can take; each bound default comes from the
# module that enforces the bound.
_OPTIONS = {
    "--spec": dict(required=True, help="group literal, e.g. S4^2*S3^2"),
    "--format": dict(choices=("text", "json"), default="text"),
    "--out": dict(help="write output to this file"),
    "--max-order": dict(type=int, default=DEFAULT_MAX_ORDER),
    "--max-T": dict(dest="max_slots", type=int, default=DEFAULT_MAX_SLOTS),
    "--max-lattice": dict(type=int, default=DEFAULT_MAX_LATTICE),
}

# subcommand -> (help, the options its handler reads)
_SUBCOMMANDS = {
    "enumerate": ("census or full dump of N(G)", "--spec --format --out --max-T --max-lattice"),
    "aut": (
        "check LatAut(G) against the slot formula",
        "--spec --format --out --max-T --max-lattice",
    ),
    "tower": ("iterate G -> LatAut(G) to the trivial group", "--spec --format --out"),
    "oracle-diff": (
        "differential validation against permutations",
        "--spec --format --out --max-order --max-T",
    ),
    "hasse": ("covering relations as DOT", "--spec --out --max-order --max-T --max-lattice"),
    "lemmas": (
        "small-group lattices and their symmetries",
        "--format --out --max-order --max-lattice",
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lattower",
        description="normal-subgroup lattices of products of symmetric groups",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, options) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for option in options.split():
            p.add_argument(option, **_OPTIONS[option])
    return parser


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")


def _json_dump(data) -> str:
    return json.dumps(data, indent=2, sort_keys=True)


def cmd_enumerate(args) -> int:
    spec = parse_spec(args.spec)
    if args.format == "json":
        lat = searchable_lattice(spec, max_slots=args.max_slots, max_size=args.max_lattice)
        _emit(_json_dump(lat.to_json_dict()), args.out)
        return 0
    c = census_of(spec, max_slots=args.max_slots)
    try:
        line = (
            f"total {c.total}: sub-products {c.sub_products}, "
            f"sign-parity {c.sign_parity}, mixed {c.mixed}"
        )
    except ValueError:
        # past the interpreter's int-to-str digit limit, which stays as it is
        raise TooLarge(
            f"census of {format_spec(spec)} has a total of {c.total.bit_length()} bits, "
            "too long to print in decimal"
        ) from None
    _emit(line, args.out)
    return 0


def cmd_aut(args) -> int:
    spec = parse_spec(args.spec)
    report = verify_product_formula(spec, max_slots=args.max_slots, max_size=args.max_lattice)
    if args.format == "json":
        _emit(_json_dump(report.to_json_dict()), args.out)
    else:
        verdict = "match" if report.match else "MISMATCH"
        lines = [
            f"spec {report.spec}: LatAut order {report.predicted_order} "
            f"= {report.a4}!*{report.b}! "
            f"(brute force {report.brute_force_order}, constructive {report.constructive_order}) "
            f"{verdict}"
        ]
        if report.generators:
            lines.append("generators: " + ", ".join(report.generators))
        _emit("\n".join(lines), args.out)
    return 0 if report.match else EXIT_MISMATCH


def cmd_tower(args) -> int:
    spec = parse_spec(args.spec)
    run = run_tower(StartNode(spec))
    if args.format == "json":
        data = {
            "nodes": [format_node(n) for n in run.nodes],
            "steps": run.steps,
            "sharp": run.sharp,
        }
        _emit(_json_dump(data), args.out)
    else:
        _emit(format_run(run), args.out)
    return 0


def cmd_oracle_diff(args) -> int:
    spec = parse_spec(args.spec)
    report = differential_validate(spec, max_order=args.max_order, max_slots=args.max_slots)
    if args.format == "json":
        _emit(_json_dump(report.to_json_dict()), args.out)
    else:
        _emit("ok", args.out)
    return 0


def _dot(labels, covers) -> str:
    lines = ["digraph lattice {", "  rankdir=BT;"]
    lines += [f'  n{i} [label="{label}"];' for i, label in enumerate(labels)]
    lines += [f"  n{i} -> n{j};" for i, j in covers]
    lines.append("}")
    return "\n".join(lines)


def _dot_of_lattice(lat: Lattice) -> str:
    return _dot((f"{e.family}:{e.order}" for e in lat.elements), lat.covers())


def cmd_hasse(args) -> int:
    name = args.spec.strip()
    if name in LEMMA_GROUP_DEGREES:
        group = ConcreteGroup(LEMMA_GROUP_DEGREES[name], max_order=args.max_order)
        normals = all_normal_subgroups(group)
        poset = normal_subgroup_poset(group, normals)
        _emit(_dot((len(n) for n in normals), poset.covers), args.out)
        return 0
    spec = parse_spec(args.spec)
    lat = searchable_lattice(spec, max_slots=args.max_slots, max_size=args.max_lattice)
    _emit(_dot_of_lattice(lat), args.out)
    return 0


def cmd_lemmas(args) -> int:
    rows = []
    for name, poset in lemma_lattices(args.max_order).items():
        order = automorphism_group(poset, max_size=args.max_lattice).order
        rows.append({"group": name, "elements": poset.n, "automorphisms": order})
    if args.format == "json":
        _emit(_json_dump(rows), args.out)
    else:
        _emit(
            "\n".join(
                f"{r['group']}: {r['elements']} elements, {r['automorphisms']} automorphisms"
                for r in rows
            ),
            args.out,
        )
    return 0


_HANDLERS = {
    "enumerate": cmd_enumerate,
    "aut": cmd_aut,
    "tower": cmd_tower,
    "oracle-diff": cmd_oracle_diff,
    "hasse": cmd_hasse,
    "lemmas": cmd_lemmas,
}


_PARSER = build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except _PARSE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except TooLarge as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BOUNDS
    except OracleMismatch as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    except LatTowerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
