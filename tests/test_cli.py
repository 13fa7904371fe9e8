"""End-to-end tests of the command line front end.

Most cases drive main() in-process and read captured stdout; one test runs
the module as a real subprocess to cover the interpreter entry point.  The
exit-code contract under test: 0 all checks passed, 1 usage or input
error, 2 a mathematical check came back false.
"""

import contextlib
import gc
import hashlib
import io
import json
import os
import subprocess
import sys
import tracemalloc

import pytest

from braidrep import cli
from braidrep.cli import main

# `python -m braidrep` subprocesses import the braidrep these tests import,
# whether it is installed or found through pytest's pythonpath
SRC = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
SUBPROCESS_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])),
}


def run_cli(capsys, argv, stdin_text=None, monkeypatch=None):
    if stdin_text is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# construct


def test_construct_smallest_pair_frozen(capsys):
    code, out, _ = run_cli(capsys, ["construct", "--dim", "2", "--eig", "1", "--eig", "1"])
    assert code == 0
    data = json.loads(out)
    assert data["dim"] == 2
    assert data["family"] == "classified"
    assert data["A"] == [["1", "1"], ["0", "1"]]
    assert data["B"] == [["1", "0"], ["-1", "1"]]


def test_construct_rejects_zero_root(capsys):
    code, out, err = run_cli(capsys, [
        "construct", "--dim", "4", "--eig", "1", "--eig", "2", "--eig", "3",
        "--eig", "4", "--D", "0",
    ])
    assert code == 1
    assert out == ""
    assert "zero root parameter" in err


def test_construct_rejects_decimal_input(capsys):
    code, _, err = run_cli(capsys, ["construct", "--dim", "2", "--eig", "0.5", "--eig", "1"])
    assert code == 1
    assert "error:" in err


@pytest.mark.parametrize("argv", [
    ["--eig", "1/0", "--eig", "1"],
    ["--eig", "(1)/(0)", "--eig", "1"],
    ["--modulus", "z^2+1", "--eig", "(z)/(z^2+1)", "--eig", "1"],
], ids=["literal", "zero-polynomial", "zero-in-field"])
def test_zero_denominator_is_an_input_error(argv):
    result = subprocess.run(
        [sys.executable, "-m", "braidrep", "classify", "--dim", "2", *argv],
        capture_output=True, text=True, env=SUBPROCESS_ENV,
    )
    assert result.returncode == 1
    assert "error:" in result.stderr
    assert "Traceback" not in result.stdout
    assert "Traceback" not in result.stderr


def test_reducible_modulus_is_an_input_error(capsys):
    code, out, err = run_cli(capsys, [
        "classify", "--dim", "2", "--modulus", "z^2-1", "--eig", "z+1", "--eig", "1",
    ])
    assert code == 1
    assert out == ""
    assert "reducible" in err


# (z^2+1)(z^3+2): a quintic modulus is trusted, and the spec boundary ends
# the run whatever flags follow, since RepSpec inverts the eigenvalue product
# and z^2+1 is a zero divisor
QUINTIC = ["--modulus", "z^5+z^3+2*z^2+2", "--eig", "z^2+1", "--eig", "1"]


@pytest.mark.parametrize("argv", [
    ["--dim", "2", "--modulus", "z^3-1", "--eig", "z", "--eig", "1"],
    ["--dim", "2", "--modulus", "z^4+3*z^2+2", "--eig", "z^2+1", "--eig", "1",
     "--oracle", "burnside"],
    ["--dim", "2", *QUINTIC],
    ["--dim", "2", *QUINTIC, "--oracle", "burnside"],
    ["--dim", "3", *QUINTIC, "--eig", "2", "--membership"],
], ids=["cubic", "quartic", "quintic-plain", "quintic-oracle", "quintic-membership"])
def test_reducible_higher_degree_modulus_is_an_input_error(argv):
    result = subprocess.run(
        [sys.executable, "-m", "braidrep", "classify", *argv],
        capture_output=True, text=True, env=SUBPROCESS_ENV,
    )
    assert result.returncode == 1
    assert "error:" in result.stderr
    assert "reducible" in result.stderr
    assert "Traceback" not in result.stdout
    assert "Traceback" not in result.stderr


@pytest.mark.xfail(strict=True, reason="a modulus of degree 5 or more is trusted while "
                   "every eigenvalue is a unit, so the verdicts come from a ring that is not a field")
def test_reducible_quintic_with_unit_eigenvalues_is_an_input_error(capsys):
    code, _, err = run_cli(capsys, [
        "classify", "--dim", "2", "--modulus", "z^5+z^3+2*z^2+2", "--eig", "z", "--eig", "1",
        "--oracle", "burnside",
    ])
    assert code == 1
    assert "reducible" in err


def test_construct_binomial_family(capsys):
    code, out, _ = run_cli(capsys, [
        "construct", "--family", "binomial", "--eig", "1", "--eig", "2", "--eig", "4",
    ])
    assert code == 0
    assert json.loads(out)["family"] == "binomial"


@pytest.mark.parametrize("spec, fmt, digest", [
    (["--symbolic"], "json",
     "6bff248493ba68ffb1ede1a9c39b3abfc0a89f20883fb1b8465885dfa2a7bf97"),
    (["--symbolic"], "text",
     "81222668a5ee4bfd0ecc448c2b99ac4d4bb4f12ed8701807438bd23300bb688f"),
    (["--eig", "2/3", "--eig=-5", "--eig", "7/4"], "json",
     "83aae4415024caa9de36d30808b7ffec5c10baf991d5661399d9eb78d4f65100"),
    (["--eig", "2/3", "--eig=-5", "--eig", "7/4"], "text",
     "c8a1f9cff3beb12797ede2dbc8a7030d86c45197784e2774229e1c3da1446293"),
])
def test_construct_dim3_bytes(capsys, spec, fmt, digest):
    code, out, _ = run_cli(capsys, ["construct", "--dim", "3", *spec, "--format", fmt])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("params, fmt, digest", [
    (["--eig", "1", "--eig", "2", "--eig", "4"], "json",
     "e358757b6adb8850864e5e6fc9b09461daa90400dc9dfb40811ec4575c0c823a"),
    (["--eig", "1", "--eig", "2", "--eig", "4"], "text",
     "f0160657c716aba4b5f8c07e18fc12ad69c96ae318219b611acf168d59a7d7b1"),
    (["--modulus", "z^2+1", "--eig", "z", "--eig", "1", "--eig", "2", "--eig=-2*z"], "json",
     "76fc2d3216b0e1b2d25a53a40bb395d125c4e222d5dafc75dab9347954b3dee2"),
    (["--modulus", "z^2+1", "--eig", "z", "--eig", "1", "--eig", "2", "--eig=-2*z"], "text",
     "e03271d5278ce21a229bf55312e5ef7020daf24e0e14f9e4c3c826feb3b77aa1"),
])
def test_construct_binomial_bytes(capsys, params, fmt, digest):
    code, out, err = run_cli(capsys, ["construct", "--family", "binomial", *params,
                                      "--format", fmt])
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv, message", [
    (["--dim", "4", "--eig", "1", "--eig", "2", "--eig", "4"],
     "--dim 4 does not match 3 --eig values"),
    ([], "need --eig parameter values"),
    (["--dim", "3"], "need --eig parameter values"),
    (["--eig", "1", "--eig", "2", "--D", "1"], "the binomial family takes no root parameter"),
    (["--eig", "1", "--eig", "2", "--gamma", "1"], "the binomial family takes no root parameter"),
], ids=["dim-mismatch", "no-eig", "dim-without-eig", "D", "gamma"])
def test_construct_binomial_refusals(capsys, argv, message):
    code, out, err = run_cli(capsys, ["construct", "--family", "binomial", *argv])
    assert (code, out, err) == (1, "", "error: %s\n" % message)


# ---------------------------------------------------------------------------
# verify


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_construct_verify_pipe(capsys, monkeypatch, d):
    code, out, _ = run_cli(capsys, ["construct", "--dim", str(d), "--symbolic"])
    assert code == 0

    def formed_twice(rep):
        raise AssertionError("structure_report already checked the braid relation")

    monkeypatch.setattr(cli, "verify_braid", formed_twice)
    code, out, _ = run_cli(capsys, ["verify"], stdin_text=out, monkeypatch=monkeypatch)
    assert code == 0
    report = json.loads(out)
    assert report["braid_ok"] is True
    assert report["structure_error"] is None


def test_verify_perturbed_entry_fails(capsys, monkeypatch):
    _, out, _ = run_cli(capsys, ["construct", "--dim", "2", "--eig", "1", "--eig", "1"])
    data = json.loads(out)
    data["A"][0][1] = "5"
    code, out, _ = run_cli(
        capsys, ["verify"], stdin_text=json.dumps(data), monkeypatch=monkeypatch
    )
    assert code == 2
    assert json.loads(out)["braid_ok"] is False


def hand_written_pair(diagonal, modulus=None):
    """Pair JSON with A = B = diag(diagonal), braided since A and B commute."""
    d = len(diagonal)
    diag = [[diagonal[i] if i == j else "0" for j in range(d)] for i in range(d)]
    data = {"dim": d, "family": "classified", "eigenvalues": diagonal, "A": diag, "B": diag}
    if modulus:
        data["modulus"] = modulus
    return json.dumps(data)


def test_verify_reports_missing_structure(capsys, monkeypatch):
    # braided, but B's diagonal is not A's reversed and (ABA)^2 = diag(1, 64)
    code, out, _ = run_cli(
        capsys, ["verify"], stdin_text=hand_written_pair(["1", "2"]), monkeypatch=monkeypatch
    )
    assert code == 2
    assert json.loads(out) == {
        "braid_ok": True, "triangular_ok": False, "structure_error": "ABA squared is not scalar",
    }


def test_verify_zero_divisor_is_an_input_error(capsys, monkeypatch):
    # the eigenvalue product -(z^2+1)^2 is a zero divisor; reading the spec
    # refuses it before any matrix is formed
    text = hand_written_pair(["z^2+1", "-z^2-1"], modulus="z^5+z^3+2*z^2+2")
    code, out, err = run_cli(capsys, ["verify"], stdin_text=text, monkeypatch=monkeypatch)
    assert code == 1
    assert out == ""
    assert "error: zero divisor: modulus z^5+z^3+2*z^2+2" in err


def test_verify_rejects_malformed_json(capsys, monkeypatch):
    code, _, err = run_cli(
        capsys, ["verify"], stdin_text="not json", monkeypatch=monkeypatch
    )
    assert code == 1
    assert "cannot parse" in err


# `construct --dim 2 --eig 1 --eig 2`, which verifies with exit 0
PAIR_1_2 = {
    "dim": 2, "family": "classified", "variables": [], "eigenvalues": ["1", "2"],
    "root_param": None, "A": [["1", "1"], ["0", "2"]], "B": [["2", "0"], ["-2", "1"]],
}
# the symbolic pair of dimension 2 in the variables a and b
PAIR_A_B = {
    "dim": 2, "family": "classified", "variables": ["a", "b"], "eigenvalues": ["a", "b"],
    "root_param": None, "A": [["a", "a"], ["0", "b"]], "B": [["b", "0"], ["-b", "a"]],
}


@pytest.mark.parametrize("text, named", [
    ("[]", "the top level must be an object"),
    ('"x"', "the top level must be an object"),
    ("5", "the top level must be an object"),
    # a string where a list belongs would iterate as its characters, and
    # each of these documents would then verify
    (json.dumps({**PAIR_1_2, "eigenvalues": "12"}), "eigenvalues must be a list"),
    (json.dumps({**PAIR_A_B, "variables": "ab"}), "variables must be a list"),
    (json.dumps({**PAIR_1_2, "A": ["11", "02"]}), "A row must be a list"),
    (json.dumps({**PAIR_1_2, "B": ["20", ["-2", "1"]]}), "B row must be a list"),
    # an object would iterate as its keys
    (json.dumps({**PAIR_1_2, "A": {"11": 0, "02": 0}}), "A must be a list"),
    # a number or a list where a scalar string belongs
    (json.dumps({**PAIR_1_2, "eigenvalues": [1, 2]}), "an eigenvalue must be a string"),
    (json.dumps({**PAIR_1_2, "root_param": ["1"]}), "root_param must be a string"),
    (json.dumps({**PAIR_1_2, "A": [[1, 1], [0, 2]]}), "an entry of A must be a string"),
    (json.dumps({**PAIR_1_2, "B": [["2", "0"], ["-2", 1]]}), "an entry of B must be a string"),
    (json.dumps({**PAIR_1_2, "modulus": 5}), "modulus must be a string"),
    # a dim that is not a JSON integer; 2.0 was once read as 2
    (json.dumps({**PAIR_1_2, "dim": "2"}), "dim must be an integer"),
    (json.dumps({**PAIR_1_2, "dim": True}), "dim must be an integer"),
    (json.dumps({**PAIR_1_2, "dim": [2]}), "dim must be an integer"),
    (json.dumps({**PAIR_1_2, "dim": 2.0}), "dim must be an integer"),
    # a falsy non-list once passed as "no variables"
    (json.dumps({**PAIR_1_2, "variables": False}), "variables must be a list"),
    (json.dumps({**PAIR_1_2, "variables": 0}), "variables must be a list"),
    (json.dumps({**PAIR_1_2, "variables": {}}), "variables must be a list"),
    (json.dumps({**PAIR_1_2, "variables": ""}), "variables must be a list"),
    # a modulus beside variables was once ignored, and this verified over
    # the free variable z
    (json.dumps({**PAIR_1_2, "variables": ["z"], "modulus": "z^2+1", "eigenvalues": ["z", "1"],
                 "A": [["z", "z"], ["0", "1"]], "B": [["1", "0"], ["-1", "z"]]}),
     "modulus must be empty when variables are given"),
] + [
    (json.dumps({k: v for k, v in PAIR_1_2.items() if k != key}), "missing field %r" % key)
    for key in ("family", "dim", "eigenvalues", "A", "B")
], ids=["list", "string", "number", "eigenvalues", "variables", "A-rows", "B-row",
        "A-object", "eigenvalue-number", "root-list", "A-numbers", "B-number",
        "modulus-number", "dim-string", "dim-bool", "dim-list", "dim-float",
        "variables-false", "variables-zero", "variables-object", "variables-empty-string",
        "modulus-beside-variables", "no-family", "no-dim", "no-eigenvalues", "no-A", "no-B"])
def test_verify_refuses_json_of_the_wrong_shape(text, named):
    result = subprocess.run(
        [sys.executable, "-m", "braidrep", "verify"], input=text,
        capture_output=True, text=True, env=SUBPROCESS_ENV,
    )
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr == "error: cannot parse representation JSON: %s\n" % named


def test_verify_missing_file_is_an_input_error(capsys, tmp_path):
    missing = str(tmp_path / "missing.json")
    code, out, err = run_cli(capsys, ["verify", "--file", missing])
    assert code == 1
    assert out == ""
    assert err == "error: cannot read %s: No such file or directory\n" % missing


def test_verify_braid_only_partial_report(capsys, monkeypatch):
    _, out, _ = run_cli(capsys, ["construct", "--dim", "3", "--symbolic"])
    code, out, _ = run_cli(
        capsys, ["verify", "--check", "braid"], stdin_text=out, monkeypatch=monkeypatch
    )
    assert code == 0
    assert list(json.loads(out)) == ["braid_ok", "triangular_ok"]


def test_verify_full_report_keys(capsys, monkeypatch):
    _, out, _ = run_cli(capsys, ["construct", "--dim", "3", "--symbolic"])
    code, out, _ = run_cli(capsys, ["verify"], stdin_text=out, monkeypatch=monkeypatch)
    assert code == 0
    assert list(json.loads(out)) == [
        "braid_ok", "triangular_ok", "skew_diag_ok", "sigma", "delta",
        "delta_power_ok", "b_symmetry_ok", "ba_skew_ok", "ba_zero_ok",
        "corner_ok", "strict_symmetry", "sign_pattern_ok", "structure_error",
    ]


# ---------------------------------------------------------------------------
# classify


def test_classify_nonsimple_exit_and_witness(capsys):
    code, out, _ = run_cli(capsys, [
        "classify", "--dim", "3", "--eig", "1", "--eig", "1", "--eig", "-1",
    ])
    assert code == 2
    report = json.loads(out)
    assert report["simple"] is False
    labels = [item["generator"] for item in report["vanishing_factors"]]
    assert "l1^2+l2*l3" in labels


def test_classify_report_only_keeps_exit_zero(capsys):
    code, out, _ = run_cli(capsys, [
        "classify", "--dim", "3", "--eig", "1", "--eig", "1", "--eig", "-1",
        "--report-only",
    ])
    assert code == 0
    assert json.loads(out)["simple"] is False


def test_classify_report_keys(capsys):
    _, out, _ = run_cli(capsys, ["classify", "--dim", "2", "--eig", "2", "--eig", "3"])
    assert list(json.loads(out)) == [
        "simple", "vanishing_factors", "sl2z", "psl2z", "burnside",
        "deligne_certificate", "westbury",
    ]


def test_classify_with_span_oracle(capsys):
    code, out, _ = run_cli(capsys, [
        "classify", "--dim", "2", "--eig", "1", "--eig", "1", "--oracle", "burnside",
    ])
    assert code == 0
    report = json.loads(out)
    assert report["simple"] is True
    assert report["burnside"] is True


def test_classify_membership_flags(capsys):
    code, out, _ = run_cli(capsys, [
        "classify", "--dim", "2", "--eig", "1", "--eig", "-1", "--membership",
    ])
    assert code == 0
    report = json.loads(out)
    assert report["sl2z"] is True
    assert report["psl2z"] is True


def test_classify_disagreeing_oracle_exits_two(capsys, monkeypatch):
    real = cli.burnside_oracle
    monkeypatch.setattr(cli, "burnside_oracle", lambda rep: not real(rep))
    for extra in ([], ["--report-only"]):
        code, out, _ = run_cli(capsys, [
            "classify", "--dim", "2", "--eig", "1", "--eig", "1",
            "--oracle", "burnside", *extra,
        ])
        assert code == 2
        report = json.loads(out)
        assert report["simple"] is True
        assert report["burnside"] is False


def test_classify_certificate_flag(capsys):
    code, out, _ = run_cli(capsys, [
        "classify", "--dim", "2", "--eig", "1", "--eig", "2", "--certificate",
    ])
    assert code == 0
    assert json.loads(out)["deligne_certificate"] in (True, False)


def test_classify_bad_root_parameter(capsys):
    code, _, err = run_cli(capsys, [
        "classify", "--dim", "5", "--eig", "1", "--eig", "1", "--eig", "1",
        "--eig", "1", "--eig", "1", "--gamma", "2",
    ])
    assert code == 1
    assert "root parameter" in err


def test_classify_symbolic_generic_verdict(capsys):
    code, out, _ = run_cli(capsys, ["classify", "--dim", "4", "--symbolic"])
    assert code == 0
    report = json.loads(out)
    assert report["simple"] is True
    assert report["vanishing_factors"] == []


SIMPLE_DIM5 = ["--dim", "5", "--eig", "1", "--eig", "2", "--eig", "3", "--eig", "4",
               "--eig", "4/3", "--gamma", "2"]
NONSIMPLE_DIM4 = ["--dim", "4", "--eig", "1", "--eig", "2", "--eig", "3", "--eig", "1/6",
                  "--D=-6"]


@pytest.mark.parametrize("spec, fmt, exit_code, digest", [
    (SIMPLE_DIM5, "json", 0,
     "72a837f3207cb35761447ced9fd7e122e437bd33c9b5ac761f8e8043947a7342"),
    (SIMPLE_DIM5, "text", 0,
     "e829726e4f26d3b84922bfd13f7fa22407d34e894034b6f69e21368f0f3c3ec1"),
    (NONSIMPLE_DIM4, "json", 2,
     "cc0a731a056f5cb446ed5e8f8b841169fcdf2454119043a2cba5dcb02a93c1da"),
    (NONSIMPLE_DIM4, "text", 2,
     "c5460ee645c90dd3f245b11108f40a3d526a70724620c840639e610bdddb9522"),
])
def test_classify_with_every_check_bytes(capsys, spec, fmt, exit_code, digest):
    code, out, _ = run_cli(capsys, [
        "classify", *spec, "--oracle", "burnside", "--membership", "--certificate",
        "--format", fmt,
    ])
    assert code == exit_code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_classify_symbolic_membership_is_an_input_error(capsys):
    code, _, err = run_cli(capsys, ["classify", "--dim", "3", "--symbolic", "--membership"])
    assert code == 1
    assert "specialized" in err


# ---------------------------------------------------------------------------
# qpoly


def test_qpoly_frozen_values(capsys):
    code, out, _ = run_cli(capsys, [
        "qpoly", "--dim", "3", "--eig", "1", "--eig", "2", "--eig", "3",
    ])
    assert code == 0
    data = json.loads(out)
    values = {(item["r"], item["s"]): item["q"] for item in data["pairs"]}
    assert values == {(1, 2): "49", (1, 3): "77", (2, 3): "77"}


def test_qpoly_single_pair_symbolic(capsys):
    code, out, _ = run_cli(capsys, [
        "qpoly", "--dim", "2", "--symbolic", "--r", "1", "--s", "2",
    ])
    assert code == 0
    data = json.loads(out)
    assert data["pairs"] == [{"r": 1, "s": 2, "q": "-l1^2+l1*l2-l2^2"}]


@pytest.mark.parametrize("dim, digest", [
    (2, "401730a40ec891dadd60b0c8a267dc65c105673deb489ad834a8e399d46f2692"),
    (3, "018fa97f7dc2f55772afce6cbaf51e53b8279f34ce0cabe3c144176a01a456e3"),
    (4, "bc37c29d61d329cea149a58a7d2b2fd1ea7de698fa3e09419f291c9263fd16ab"),
    (5, "c9f03c4cdb0bfaf4856f95ab9823345dd7fa9f9d076f4d810a89a787355b0473"),
])
def test_qpoly_symbolic_bytes(capsys, dim, digest):
    code, out, _ = run_cli(capsys, ["qpoly", "--symbolic", "--dim", str(dim)])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_qpoly_rejects_equal_indices(capsys):
    code, _, err = run_cli(capsys, [
        "qpoly", "--dim", "2", "--symbolic", "--r", "1", "--s", "1",
    ])
    assert code == 1
    assert "distinct" in err


@pytest.mark.parametrize("r, s", [("1", "3"), ("2", "2")])
def test_qpoly_refuses_bad_indices_with_one_message(capsys, r, s):
    code, out, err = run_cli(capsys, [
        "qpoly", "--dim", "2", "--eig", "2", "--eig", "3", "--r", r, "--s", s,
    ])
    assert (code, out, err) == (1, "", "error: indices must be distinct and within 1..2\n")


# ---------------------------------------------------------------------------
# scan


def test_scan_deterministic_bytes(capsys):
    argv = ["scan", "--dim", "3", "--count", "6", "--seed", "42"]
    _, first, _ = run_cli(capsys, argv)
    _, second, _ = run_cli(capsys, argv)
    assert first == second
    lines = first.splitlines()
    assert lines[0] == "index,eigenvalues,root_param,simple,vanishing,sl2z,psl2z,oracle,agree"
    assert len(lines) == 7


def test_scan_different_seeds_differ(capsys):
    _, first, _ = run_cli(capsys, ["scan", "--dim", "3", "--count", "6", "--seed", "1"])
    _, second, _ = run_cli(capsys, ["scan", "--dim", "3", "--count", "6", "--seed", "2"])
    assert first != second


def test_scan_empty_is_header_only(capsys):
    code, out, _ = run_cli(capsys, ["scan", "--dim", "2", "--count", "0"])
    assert code == 0
    assert out.splitlines() == [
        "index,eigenvalues,root_param,simple,vanishing,sl2z,psl2z,oracle,agree"
    ]


def test_scan_degenerate_rows_agree_with_oracle(capsys):
    code, out, _ = run_cli(capsys, [
        "scan", "--dim", "4", "--count", "4", "--seed", "7",
        "--kind", "degenerate", "--oracle", "burnside",
    ])
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert len(rows) == 4
    for row in rows:
        assert row[3] == "false"
        assert row[4] != ""
        assert row[8] == "agree"


def test_scan_rejects_unknown_dimension(capsys):
    code, _, err = run_cli(capsys, ["scan", "--dim", "7", "--count", "1"])
    assert code == 1
    assert "2..5" in err


def test_scan_disagreeing_oracle_exits_two(capsys, monkeypatch):
    real = cli.burnside_oracle
    monkeypatch.setattr(cli, "burnside_oracle", lambda rep: not real(rep))
    code, out, _ = run_cli(capsys, [
        "scan", "--dim", "2", "--count", "2", "--seed", "5", "--oracle", "burnside",
    ])
    assert code == 2
    assert [line.split(",")[8] for line in out.splitlines()[1:]] == ["disagree"] * 2


@pytest.mark.parametrize("bound", ["0", "-2"])
def test_scan_refuses_a_bound_below_one(bound):
    result = subprocess.run(
        [sys.executable, "-m", "braidrep", "scan", "--dim", "3", "--count", "2",
         "--bound", bound],
        capture_output=True, text=True, env=SUBPROCESS_ENV,
    )
    assert result.returncode == 1
    assert result.stdout == ""
    assert "error:" in result.stderr
    assert "Traceback" not in result.stderr


def test_scan_into_closed_pipe_stops_quietly():
    proc = subprocess.Popen(
        [sys.executable, "-m", "braidrep", "scan", "--dim", "3", "--count", "3000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=SUBPROCESS_ENV,
    )
    assert proc.stdout.readline().startswith("index,")
    proc.stdout.close()
    try:
        _, err = proc.communicate(timeout=120)
    finally:
        proc.kill()
    assert proc.returncode != 0
    assert "Traceback" not in err
    assert "BrokenPipeError" not in err


def test_scan_internal_error_propagates(monkeypatch):
    def broken(spec):
        raise RuntimeError("classifier and obstruction list disagree")

    monkeypatch.setattr(cli, "is_simple", broken)
    with pytest.raises(RuntimeError, match="obstruction list"):
        main(["scan", "--dim", "3", "--count", "1"])


# ---------------------------------------------------------------------------
# dims


def test_dims_bcd_passes(capsys):
    code, out, _ = run_cli(capsys, ["dims", "--series", "bcd"])
    assert code == 0
    payload = json.loads(out)
    assert [item["summand"] for item in payload] == ["alternating", "symmetric_traceless"]
    assert all(item["equal"] for item in payload)


def test_dims_exceptional_reports_catalog_mismatches(capsys):
    # the route disagrees with the catalog on three summands; the CLI
    # reports that honestly and signals it through the exit code
    code, out, _ = run_cli(capsys, ["dims", "--series", "exceptional", "--format", "text"])
    assert code == 2
    assert "adjoint: equal=false" in out
    assert "alternating_complement: equal=true" in out
    assert "gamma: u^4" in out


def test_dims_exceptional_explains_each_mismatch_on_stderr(capsys):
    # one line per summand with equal=false: catalog/route as a unit times
    # a monomial, then the atoms the catalog entry has extra and lacks
    code, _, err = run_cli(capsys, ["dims", "--series", "exceptional"])
    assert code == 2
    assert err.splitlines() == [
        "mismatch: adjoint: catalog/route = -1; catalog extra: none; catalog lacks: none",
        "mismatch: symmetric: catalog/route = -1; catalog extra: none; catalog lacks: none",
        "mismatch: symmetric_dual: catalog/route = -u^-1; catalog extra: Phi_4(u^3*w);"
        " catalog lacks: Phi_4(u^2*w)",
    ]
    code, _, err = run_cli(capsys, ["dims", "--series", "bcd", "--format", "text"])
    assert (code, err) == (0, "")


def test_dims_unknown_series(capsys):
    code, _, err = run_cli(capsys, ["dims", "--series", "foo"])
    assert code == 1
    assert "bcd" in err


# ---------------------------------------------------------------------------
# entry point and usage errors


def test_unknown_subcommand_exits_one(capsys):
    with pytest.raises(SystemExit) as info:
        main(["nonsense"])
    assert info.value.code == 1


@pytest.mark.parametrize("argv", [
    ["--eig", "1/2", "--eig", "-3/4"],
    ["--modulus", "z^2+1", "--eig", "-z", "--eig", "3"],
    ["--eig", "1/2", "--eig", "2/3", "--eig", "3/4", "--eig", "9", "--D", "-1/3"],
    ["--eig", "1/3", "--eig", "2", "--eig", "3/4", "--eig", "-1/5", "--eig", "5/16",
     "--gamma", "-1/2"],
])
def test_negative_values_stand_as_arguments_of_their_own(capsys, argv):
    # argparse takes a lone "-3/4" or "-z" for an option unless the parser
    # reads every "-..." that names no option as a value
    joined = []
    for option, value in zip(argv[::2], argv[1::2]):
        joined += [option + "=" + value] if value.startswith("-") else [option, value]
    for command, extra in (("classify", ["--report-only"]), ("qpoly", [])):
        separate = run_cli(capsys, [command, *argv, *extra])
        assert separate == run_cli(capsys, [command, *joined, *extra])
        assert separate[0] == 0
    with pytest.raises(SystemExit) as info:
        main(["classify", "-h"])
    assert info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: braidrep classify")


def test_module_entry_point_subprocess():
    result = subprocess.run(
        [sys.executable, "-m", "braidrep", "construct", "--dim", "2",
         "--eig", "1", "--eig", "1"],
        capture_output=True, text=True, env=SUBPROCESS_ENV,
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["dim"] == 2


def test_repeated_calls_retain_no_memory():
    # main keeps one parser per process; one built per call left about 200 B
    # of argparse's strings behind on every call
    argv = ["scan", "--dim", "5", "--count", "0"]
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        for _ in range(2):
            assert main(argv) == 0
        tracemalloc.start()
        try:
            gc.collect()
            before = tracemalloc.get_traced_memory()[0]
            for _ in range(300):
                main(argv)
            gc.collect()
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
    assert kept < 4096
