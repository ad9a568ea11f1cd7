"""The benchmark's checks accept the program's real output and reject perturbed output."""

from __future__ import annotations

import contextlib
import io
import json
from itertools import combinations
from math import factorial

import pytest

import checks
from checks import CheckFailed
from lattower.cli import main


def run_cli(*argv: str) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(list(argv)) == 0
    return buf.getvalue()


def _brute_admissible(w: int) -> int:
    """a(w) from the spans of every set of at most w vectors of GF(2)^w."""
    spaces = set()
    for k in range(w + 1):
        for gens in combinations(range(1, 1 << w), k):
            members = {0}
            for g in gens:
                members |= {m ^ g for m in members}
            spaces.add(frozenset(members))
    count = 0
    for members in spaces:
        active = 0
        for v in members:
            active |= v
        if active == (1 << w) - 1 and not any(1 << j in members for j in range(w)):
            count += 1
    return count


def test_admissible_counts():
    assert [checks.admissible_count(w) for w in range(8)] == [1, 0, 1, 2, 11, 72, 677, 8686]
    assert [checks.admissible_count(w) for w in range(5)] == [_brute_admissible(w) for w in range(5)]


@pytest.mark.parametrize(
    "degrees, total",
    [((3, 3, 3), 38), ((3,) * 7, 59866), ((3, 3, 3, 4, 4, 4, 4), 92092), ((3,) * 5, 930)],
)
def test_census_closed_form(degrees, total):
    c = checks.census(degrees)
    assert c["total"] == total
    assert c["sign_parity"] == 2 ** len(degrees) - len(degrees) - 1


def test_census_text_rejects_off_by_one():
    out = run_cli("enumerate", "--spec", "S5^3")
    checks.check_census_text(out, (5, 5, 5))
    with pytest.raises(CheckFailed):
        checks.check_census_text(out.replace("total 38", "total 39"), (5, 5, 5))
    with pytest.raises(CheckFailed):
        checks.check_census_text(out.replace("mixed 7", "mixed 6"), (5, 5, 5))


@pytest.mark.parametrize("spec, degrees", [("S3^3", (3, 3, 3)), ("S4*S6^2", (4, 6, 6))])
def test_hasse_rejects_any_missing_edge(spec, degrees):
    out = run_cli("hasse", "--spec", spec)
    checks.check_hasse_dot(out, degrees)
    lines = out.split("\n")
    edges = [k for k, line in enumerate(lines) if "->" in line]
    assert edges
    for k in edges:
        with pytest.raises(CheckFailed):
            checks.check_hasse_dot("\n".join(lines[:k] + lines[k + 1:]), degrees)


def test_hasse_rejects_wrong_order_label():
    out = run_cli("hasse", "--spec", "S3^2")
    wrong = out.replace('n1 [label="sub-product:3"]', 'n1 [label="sub-product:4"]')
    with pytest.raises(CheckFailed):
        checks.check_hasse_dot(wrong, (3, 3))


def test_enumerate_json_rejects_perturbations():
    out = run_cli("enumerate", "--spec", "S4*S5^2", "--format", "json")
    degrees = (4, 5, 5)
    checks.check_enumerate_json(out, degrees)
    data = json.loads(out)
    data["elements"][3]["order"] += 1
    with pytest.raises(CheckFailed):
        checks.check_enumerate_json(json.dumps(data), degrees)
    data = json.loads(out)
    del data["hasse_edges"][len(data["hasse_edges"]) // 2]
    with pytest.raises(CheckFailed):
        checks.check_enumerate_json(json.dumps(data), degrees)


def test_aut_rejects_short_brute_force_count():
    out = run_cli("aut", "--spec", "S4^2*S3^2")
    degrees = (3, 3, 4, 4)
    checks.check_aut_text(out, degrees)
    want = factorial(2) * factorial(2)
    with pytest.raises(CheckFailed):
        checks.check_aut_text(out.replace(f"brute force {want}", f"brute force {want - 1}"), degrees)
    with pytest.raises(CheckFailed):
        checks.check_aut_text(out.replace(") match", ") MISMATCH"), degrees)


def test_oracle_rejects_ok_with_wrong_count():
    out = run_cli("oracle-diff", "--spec", "S3^2", "--format", "json")
    checks.check_oracle_json(out, (3, 3))
    data = json.loads(out)
    data["oracle_count"] += 1
    data["enumerated_count"] += 1
    with pytest.raises(CheckFailed):
        checks.check_oracle_json(json.dumps(data), (3, 3))
    data = json.loads(out)
    data["pairs_checked"] -= 1
    with pytest.raises(CheckFailed):
        checks.check_oracle_json(json.dumps(data), (3, 3))


def test_lemmas_rejects_wrong_count():
    out = run_cli("lemmas")
    checks.check_lemmas_text(out)
    with pytest.raises(CheckFailed):
        checks.check_lemmas_text(out.replace("5 elements, 6 automorphisms", "5 elements, 5 automorphisms"))


def test_tower_checks():
    out = run_cli("tower", "--spec", "S4^2*S3^2")
    checks.check_tower_text(out, (3, 3, 4, 4), sharp=True)
    with pytest.raises(CheckFailed):
        checks.check_tower_text(out.replace("G_1 = C2^2", "G_1 = S3"), (3, 3, 4, 4))
    short = run_cli("tower", "--spec", "S3^3")
    checks.check_tower_text(short, (3, 3, 3))
    with pytest.raises(CheckFailed):
        checks.check_tower_text(short, (3, 3, 3), sharp=True)
    # the same G_1 may print in either factor order
    checks.check_tower_text(run_cli("tower", "--spec", "S4^3*S3^2"), (3, 3, 4, 4, 4))
    checks.check_tower_text(run_cli("tower", "--spec", "1"), ())


def test_tower_steps_reject_a_skipped_step():
    from lattower.tower import PairNode, StartNode, verify_step_against_lattice
    from lattower.group_spec import parse_spec

    nodes = [StartNode(parse_spec("S4^2*S3^2")), PairNode(2, 2), PairNode(0, 3), PairNode(0, 0)]
    reports = [verify_step_against_lattice(n).to_json_dict() for n in nodes]
    checks.check_tower_steps(reports)
    skipped = [verify_step_against_lattice(nodes[0], max_size=10).to_json_dict()] + reports[1:]
    with pytest.raises(CheckFailed):
        checks.check_tower_steps(skipped)
