import json
import subprocess
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lattower import cli
from lattower.cli import main
from lattower.errors import OracleMismatch


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_enumerate_text(capsys):
    code, out = run_cli(capsys, "enumerate", "--spec", "S3^3")
    assert code == 0
    assert out == "total 38: sub-products 27, sign-parity 4, mixed 7\n"


def test_enumerate_json(capsys):
    code, out = run_cli(capsys, "enumerate", "--spec", "S3^2", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["census"]["total"] == 10
    assert data["spec"] == "S3^2"
    assert len(data["elements"]) == 10


def test_enumerate_is_deterministic(capsys):
    _, first = run_cli(capsys, "enumerate", "--spec", "S3^3", "--format", "json")
    _, second = run_cli(capsys, "enumerate", "--spec", "S3^3", "--format", "json")
    assert first == second


def test_exit_code_on_parse_error(capsys):
    assert main(["enumerate", "--spec", "S2"]) == 2
    assert main(["enumerate", "--spec", "junk"]) == 2
    assert main(["tower", "--spec", "S3^"]) == 2
    assert main(["tower", "--spec", "S" + "9" * 5000]) == 2


def test_exit_code_on_bound_violation(capsys):
    assert main(["enumerate", "--spec", "S3^9"]) == 3
    assert main(["enumerate", "--spec", "S3^3", "--max-T", "2"]) == 3
    assert main(["aut", "--spec", "S4^3*S3^2", "--max-lattice", "100"]) == 3
    assert main(["aut", "--spec", "S3^2", "--max-T", "1"]) == 3
    assert main(["hasse", "--spec", "S3^3", "--max-T", "2"]) == 3
    assert main(["hasse", "--spec", "C2^2", "--max-order", "1"]) == 3
    assert main(["oracle-diff", "--spec", "S3", "--max-T", "0"]) == 3
    assert main(["lemmas", "--max-order", "1"]) == 3
    assert main(["lemmas", "--max-lattice", "0"]) == 3
    assert main(["tower", "--spec", "S3^99999999999"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert all(line.startswith("error:") for line in captured.err.splitlines())


# The options each subcommand takes besides --out.
ACCEPTED = {
    "enumerate": {"--spec", "--format", "--max-T"},
    "aut": {"--spec", "--format", "--max-T", "--max-lattice"},
    "tower": {"--spec", "--format"},
    "oracle-diff": {"--spec", "--format", "--max-order", "--max-T"},
    "hasse": {"--spec", "--max-order", "--max-T"},
    "lemmas": {"--format", "--max-order", "--max-lattice"},
}
REJECTED = [
    ("enumerate", "--max-order", "1"),
    ("enumerate", "--max-lattice", "1"),
    ("enumerate", "--format", "dot"),
    ("aut", "--max-order", "1"),
    ("aut", "--format", "dot"),
    ("tower", "--max-T", "1"),
    ("tower", "--max-order", "1"),
    ("tower", "--max-lattice", "1"),
    ("tower", "--format", "dot"),
    ("oracle-diff", "--max-lattice", "1"),
    ("oracle-diff", "--format", "dot"),
    ("hasse", "--format", "text"),
    ("hasse", "--max-lattice", "1"),
    ("lemmas", "--max-T", "1"),
    ("lemmas", "--format", "dot"),
]


@pytest.mark.parametrize("command, option, value", REJECTED)
def test_options_a_subcommand_does_not_read_are_rejected(command, option, value, capsys):
    spec = [] if command == "lemmas" else ["--spec", "S3"]
    with pytest.raises(SystemExit) as exc:
        main([command, *spec, option, value])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_oracle_mismatch_goes_to_stderr(fmt, monkeypatch, capsys):
    def mismatch(*args, **kwargs):
        raise OracleMismatch("S3^2: leq disagrees on pair (0, 1)")

    monkeypatch.setattr(cli, "differential_validate", mismatch)
    assert main(["oracle-diff", "--spec", "S3^2", "--format", fmt]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


@given(
    command=st.sampled_from(sorted(ACCEPTED)),
    spec=st.sampled_from([None, "1", "S3", "S4", "S3^2", "S4*S3", "C2^2", "S2", "S3^", "junk"]),
    fmt=st.sampled_from([None, "text", "json", "dot"]),
    bounds=st.dictionaries(
        st.sampled_from(["--max-order", "--max-T", "--max-lattice"]), st.integers(-1, 3)
    ),
)
def test_exit_codes_of_any_old_flag_combination(command, spec, fmt, bounds):
    argv = [command]
    if spec is not None:
        argv += ["--spec", spec]
    if fmt is not None:
        argv += ["--format", fmt]
    for option, value in bounds.items():
        argv += [option, str(value)]
    used = set(argv[1::2])
    usage_error = (
        not used <= ACCEPTED[command]
        or fmt == "dot"
        or (command != "lemmas" and spec is None)
    )
    try:
        code = main(argv)
    except SystemExit as exc:
        assert exc.code == 2 and usage_error
    else:
        assert not usage_error
        assert code in (0, 2, 3, 4)


def test_tower_text(capsys):
    code, out = run_cli(capsys, "tower", "--spec", "S4^2*S3^2")
    assert code == 0
    assert out == "G_0 = S4^2*S3^2 → G_1 = C2^2 → G_2 = S3 → G_3 = 1 (3 steps, sharp)\n"


def test_tower_json(capsys):
    code, out = run_cli(capsys, "tower", "--spec", "S3^3", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["nodes"] == ["S3^3", "S3", "1"]
    assert data["steps"] == 2
    assert data["sharp"] is False


def test_aut_text(capsys):
    code, out = run_cli(capsys, "aut", "--spec", "S3^2")
    assert code == 0
    assert "LatAut order 2" in out
    assert out.rstrip().endswith("(3.1 3.2)")


def test_aut_json(capsys):
    code, out = run_cli(capsys, "aut", "--spec", "S3*S4", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["match"] is True
    assert data["predicted_order"] == 1


def test_oracle_diff(capsys):
    code, out = run_cli(capsys, "oracle-diff", "--spec", "S3^2")
    assert code == 0
    assert out == "ok\n"
    code, out = run_cli(capsys, "oracle-diff", "--spec", "S3^2", "--format", "json")
    assert json.loads(out)["ok"] is True


def test_oracle_diff_respects_max_order(capsys):
    assert main(["oracle-diff", "--spec", "S3^2", "--max-order", "10"]) == 3


def test_hasse_of_lemma_group(capsys):
    code, out = run_cli(capsys, "hasse", "--spec", "C2^2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "digraph lattice {"
    assert sum("label=" in l for l in lines) == 5
    assert sum("->" in l for l in lines) == 6


def test_hasse_of_tower_group(capsys):
    code, out = run_cli(capsys, "hasse", "--spec", "S4")
    assert code == 0
    lines = out.splitlines()
    assert sum("label=" in l for l in lines) == 4
    assert sum("->" in l for l in lines) == 3
    assert 'label="sub-product:12"' in out


def test_lemmas_listing(capsys):
    code, out = run_cli(capsys, "lemmas")
    assert code == 0
    assert "C2^2: 5 elements, 6 automorphisms" in out
    assert "C2xS5: 7 elements, 2 automorphisms" in out
    code, out = run_cli(capsys, "lemmas", "--format", "json")
    rows = json.loads(out)
    assert {r["group"]: r["automorphisms"] for r in rows}["C2xS4"] == 2


def test_out_writes_file(tmp_path, capsys):
    target = tmp_path / "lattice.json"
    code, out = run_cli(capsys, "enumerate", "--spec", "S3^2", "--format", "json", "--out", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["census"]["total"] == 10


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "lattower.cli", "tower", "--spec", "S3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "G_0 = S3 → G_1 = 1 (1 step)"


@pytest.mark.parametrize("command", ["enumerate", "aut", "tower", "oracle-diff", "hasse"])
def test_spec_flag_is_required(command):
    with pytest.raises(SystemExit):
        main([command])
