"""Command line interface.

Subcommands: enumerate, aut, tower, oracle-diff, hasse, lemmas.  Output is
deterministic; identical invocations print identical bytes.  Exit codes:
0 success, 1 unexpected error or a reader that closed the output pipe early,
2 usage errors (an unparseable spec, an option the subcommand does not
take, a negative bound, an ``--out`` path that cannot be written), 3 bound
violations, 4 verification mismatches.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from itertools import chain, islice
from typing import TYPE_CHECKING, Iterable, Iterator

from .census import DEFAULT_MAX_LATTICE, census_of, check_lattice_size
from .errors import (
    DegreeTooLarge,
    DegreeTooSmall,
    LatTowerError,
    NegativeExponent,
    OracleMismatch,
    SpecParseError,
    TooLarge,
    decimal,
)
from .group_spec import (
    DEFAULT_MAX_ORDER,
    LEMMA_GROUP_DEGREES,
    ChainPosition,
    format_spec,
    parse_spec,
)
from .tower import StartNode, format_node, format_run, run_tower

if TYPE_CHECKING:
    from .lattice_core import Lattice

EXIT_USAGE = 2
EXIT_BOUNDS = 3
EXIT_MISMATCH = 4


class _Unwritable(LatTowerError):
    """The ``--out`` path cannot be opened for writing."""


# the exit code of each kind of error; any other LatTowerError exits 1
_EXIT_CODES = (
    ((SpecParseError, DegreeTooSmall, DegreeTooLarge, NegativeExponent, _Unwritable), EXIT_USAGE),
    (TooLarge, EXIT_BOUNDS),
    (OracleMismatch, EXIT_MISMATCH),
)


def _bound(text: str) -> int:
    """A bound option's value: an int, and not negative, else a usage error naming the flag."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must not be negative, got {value}")
    return value


# Every option a subcommand can take; each bound default comes from a module
# the CLI loads anyway: --max-order's from group_spec, which the oracle that
# enforces it imports, and --max-lattice's from census, which checks it.
_OPTIONS = {
    "--spec": dict(required=True, help="group literal, e.g. S4^2*S3^2"),
    "--format": dict(choices=("text", "json"), default="text"),
    "--out": dict(help="write output to this file"),
    "--max-order": dict(
        type=_bound,
        default=DEFAULT_MAX_ORDER,
        help="largest permutation group oracle-diff builds (default %(default)s)",
    ),
    "--max-lattice": dict(
        type=_bound,
        default=DEFAULT_MAX_LATTICE,
        help="most elements of N(G) that hasse and enumerate --format json build "
        "(default %(default)s); enumerate as text builds none, and hasse on a "
        "small-group name ignores it",
    ),
}

# subcommand -> (help, the options its handler reads)
_SUBCOMMANDS = {
    "enumerate": ("census or full dump of N(G)", "--spec --format --out --max-lattice"),
    "aut": ("check LatAut(G) against the slot formula", "--spec --format --out"),
    "tower": ("iterate G -> LatAut(G) to the trivial group", "--spec --format --out"),
    "oracle-diff": (
        "differential validation against permutations",
        "--spec --format --out --max-order",
    ),
    "hasse": ("covering relations as DOT", "--spec --out --max-lattice"),
    "lemmas": ("small-group lattices and their symmetries", "--format --out"),
}


def build_parser() -> argparse.ArgumentParser:
    """The top-level parser; its ``subcommands`` map each name to that subcommand's parser."""
    parser = argparse.ArgumentParser(
        prog="lattower",
        description="normal-subgroup lattices of products of symmetric groups",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parser.subcommands = {}
    for name, (help_text, options) in _SUBCOMMANDS.items():
        p = parser.subcommands[name] = sub.add_parser(name, help=help_text)
        for option in options.split():
            p.add_argument(option, **_OPTIONS[option])
    return parser


def _emit(text: str | Iterable[str], out: str | None) -> None:
    """Write text, whole or as an iterable of chunks, ending it with a newline.

    The first chunk is made before ``out`` is opened, so a writer that fails
    before its first chunk leaves no file behind; the handlers check every
    bound before they call this.  The covers stream while they are written,
    so only a corrupted lattice, one with a cover move that leaves it, can
    raise later: part of the output has then gone out, and the run exits 1.
    """
    chunks = iter((text,) if isinstance(text, str) else text)
    first = next(chunks, "")
    try:
        fh = sys.stdout if out is None else open(out, "w", encoding="utf-8")
    except OSError as exc:
        raise _Unwritable(f"cannot write {out}: {exc.strerror}") from None
    try:
        fh.write(first)
        ends_line = first.endswith("\n")
        for chunk in chunks:
            if chunk:
                fh.write(chunk)
                ends_line = chunk.endswith("\n")
        if not ends_line:
            fh.write("\n")
    finally:
        if out is not None:
            fh.close()


def _json_dump(data) -> str:
    return json.dumps(data, indent=2, sort_keys=True)


def cmd_enumerate(args) -> int:
    spec = parse_spec(args.spec)
    if args.format == "json":
        from .lattice_core import enumerate_lattice

        check_lattice_size(spec, args.max_lattice)
        _emit(_lattice_json(enumerate_lattice(spec)), args.out)
        return 0
    c = census_of(spec)
    total = decimal(c.total)  # the other three counts are smaller
    if total is None:
        raise TooLarge(
            f"census of {format_spec(spec)} has a total of {c.total.bit_length()} bits, "
            "too long to print in decimal"
        )
    _emit(
        f"total {total}: sub-products {c.sub_products}, "
        f"sign-parity {c.sign_parity}, mixed {c.mixed}",
        args.out,
    )
    return 0


def cmd_aut(args) -> int:
    from .autgroup import verify_product_formula

    report = verify_product_formula(parse_spec(args.spec))
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
    from . import perm_oracle

    spec = parse_spec(args.spec)
    report = perm_oracle.differential_validate(spec, max_order=args.max_order)
    if args.format == "json":
        _emit(_json_dump(report.to_json_dict()), args.out)
    else:
        _emit("ok", args.out)
    return 0


def _batches(items: Iterable[str], size: int = 4096) -> Iterator[list[str]]:
    """The items in lists of at most ``size``, so a writer holds one chunk at a time."""
    it = iter(items)
    while batch := list(islice(it, size)):
        yield batch


def _edge_rows(
    up_covers: Iterable[list[int]], names: list[str], head: str, tail: str, sep: str
) -> Iterator[str]:
    """The edges out of each element with up-covers, one ``str.join`` per element.

    An edge is ``head`` with the lower end put in, the upper end and ``tail``,
    each end as ``names[i] == str(i)``; ``sep`` goes between two edges.
    """
    end = tail + sep
    for name, above in zip(names, up_covers):
        if above:
            start = head.format(name)
            yield start + (end + start).join([names[j] for j in above]) + tail


def _dot(labels: Iterable[str], up_covers: Iterable[list[int]], n: int) -> Iterator[str]:
    """The DOT text of n elements, in chunks of lines."""
    yield "digraph lattice {\n  rankdir=BT;"
    names = list(map(str, range(n)))
    nodes = map('  n{} [label="{}"];'.format, names, labels)
    for batch in _batches(chain(nodes, _edge_rows(up_covers, names, "  n{} -> n", ";", "\n"))):
        yield "\n" + "\n".join(batch)
    yield "\n}"


def _dot_of_lattice(lat: Lattice) -> Iterator[str]:
    return _dot(map("{}:{}".format, lat.families, lat.orders), lat.up_covers(), len(lat))


def _lattice_json(lat: Lattice) -> Iterator[str]:
    """``_json_dump(lat.to_json_dict())`` byte for byte, in chunks, with no dict tree.

    Read off the columns: one f-string per element, one join per row of
    up-covers, J and H rendered once per (J, H) block, and P, the key's
    digits off J, once per J and key.
    """
    q = json.encoder.encode_basestring_ascii
    n = lat.spec.num_slots
    names = list(map(str, range(len(lat))))

    def block(brackets, items):  # a value in "triple": its key at 8 spaces, its items at 10
        inner = ",\n          ".join(items)
        return f"{brackets[0]}\n          {inner}\n        {brackets[1]}" if items else brackets

    # sort_keys compares the P keys as strings: "10" before "2"
    p_order = sorted(range(n), key=str)
    p_items = [[f'"{s}": "{p.token}"' for p in ChainPosition] for s in range(n)]

    def p_block(coupled, key):
        return block("{}", [p_items[s][(key >> 2 * s) & 3] for s in p_order if s not in coupled])

    heads = []  # per block: the H and J lines, its J, and the P blocks of that J by key
    p_by_j: dict[tuple[int, ...], dict[int, str]] = {}
    for coupled, signs in lat.blocks:
        h = block("[]", list(map(q, signs.to_strings())))
        j = block("[]", list(map(str, coupled)))
        head = f'        "H": {h},\n        "J": {j},\n        "P": '
        heads.append((head, coupled, p_by_j.setdefault(coupled, {})))

    def elements():
        columns = zip(names, lat.keys, lat.block_of, lat.orders, map(q, lat.families))
        for i, key, b, order, family in columns:
            head, coupled, p_blocks = heads[b]
            p = p_blocks.get(key) or p_blocks.setdefault(key, p_block(coupled, key))
            yield (
                f'    {{\n      "family": {family},\n      "index": {i},\n      "order": {order},\n'
                f'      "triple": {{\n{head}{p}\n      }}\n    }}'
            )

    def array(key, items):
        batches = _batches(items)
        first = next(batches, None)
        if first is None:
            yield f'\n  "{key}": [],'
            return
        yield f'\n  "{key}": [\n' + ",\n".join(first)
        for batch in batches:
            yield ",\n" + ",\n".join(batch)
        yield "\n  ],"

    c = lat.census
    yield (f'{{\n  "census": {{\n    "mixed": {c.mixed},\n    "sign_parity": {c.sign_parity},\n'
           f'    "sub_products": {c.sub_products},\n    "total": {c.total}\n  }},')
    yield from array("elements", elements())
    edges = _edge_rows(lat.up_covers(), names, "    [\n      {},\n      ", "\n    ]", ",\n")
    yield from array("hasse_edges", edges)
    yield from array("slots", [
        f'    {{\n      "class": {q(s.slot_class)},\n      "copy": {s.copy},\n'
        f'      "degree": {s.degree},\n      "index": {s.index}\n    }}'
        for s in lat.spec.slots
    ])
    yield f'\n  "spec": {q(format_spec(lat.spec))}\n}}'


# the small-group names, with case and whitespace ignored as in parse_spec
_SMALL_GROUPS = {name.casefold(): degrees for name, degrees in LEMMA_GROUP_DEGREES.items()}


def cmd_hasse(args) -> int:
    degrees = _SMALL_GROUPS.get("".join(args.spec.split()).casefold())
    if degrees is not None:
        from .perm_oracle import ConcreteGroup, all_normal_subgroups, normal_subgroup_poset

        group = ConcreteGroup(degrees)
        normals = all_normal_subgroups(group)
        poset = normal_subgroup_poset(group, normals)
        _emit(_dot(map(group.class_table.order, normals), poset.upper, poset.n), args.out)
        return 0
    from .lattice_core import enumerate_lattice

    spec = parse_spec(args.spec)
    check_lattice_size(spec, args.max_lattice)
    _emit(_dot_of_lattice(enumerate_lattice(spec)), args.out)
    return 0


def cmd_lemmas(args) -> int:
    from .autgroup import automorphism_group
    from .perm_oracle import lemma_lattices

    rows, lines = [], []
    for name, poset in lemma_lattices().items():
        order = automorphism_group(poset).order
        rows.append({"group": name, "elements": poset.n, "automorphisms": order})
        lines.append(f"{name}: {poset.n} elements, {order} automorphisms")
    _emit(_json_dump(rows) if args.format == "json" else "\n".join(lines), args.out)
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


def _plain_args(command: str, rest: list[str]) -> argparse.Namespace | None:
    """The namespace argparse gives a call of whole, distinct options with valid values, read
    off ``_OPTIONS``; None for any other call, which argparse parses or refuses itself."""
    names = _SUBCOMMANDS[command][1].split()
    given = dict(zip(rest[::2], rest[1::2]))
    if len(given) * 2 != len(rest) or not given.keys() <= set(names):
        return None
    args = argparse.Namespace(command=command)
    for name in names:
        kw = _OPTIONS[name]
        value = given.get(name)
        if value is None:
            if kw.get("required"):
                return None
            value = kw.get("default")
        elif value.startswith("-"):
            return None
        else:
            try:
                value = kw.get("type", str)(value)
            except argparse.ArgumentTypeError:
                return None
            if value not in kw.get("choices", (value,)):
                return None
        setattr(args, name[2:].replace("-", "_"), value)
    return args


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    sub = _PARSER.subcommands.get(argv[0]) if argv else None
    if sub is None:  # no arguments, -h, an unknown word or a leading --
        args = _PARSER.parse_args(argv)
    else:  # a plain call off the table, else the rest as the top-level parser hands it on
        args = _plain_args(argv[0], argv[1:])
        if args is None:
            args = sub.parse_args(argv[1:], argparse.Namespace(command=argv[0]))
    try:
        code = _HANDLERS[args.command](args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed the pipe: send what is still buffered to devnull,
        # so the flush at exit raises nothing, and stop as on SIGPIPE
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except LatTowerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next((code for kinds, code in _EXIT_CODES if isinstance(exc, kinds)), 1)


if __name__ == "__main__":
    sys.exit(main())
