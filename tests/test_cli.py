import json
from fractions import Fraction

import prymck.cli as cli
import prymck.prym_bn as prym_bn
from prymck.cli import main
from prymck.series_ring import ThetaPoly


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_class_beta_zero_plain(capsys):
    code, out, err = run_cli(
        capsys, "class", "--genus", "4", "-r", "1", "--vanishing", "1,2", "--beta", "0"
    )
    assert code == 0 and err == ""
    assert "gamma: 1/24" in out
    assert "exponent: 3" in out
    assert "(1/24)*(2xi)^3" in out


def test_class_beta_minus_one_plain(capsys):
    code, out, _ = run_cli(
        capsys, "class", "--genus", "3", "-r", "1", "--vanishing", "0,1", "--beta", "-1"
    )
    assert code == 0
    assert "theta_poly: 0, 1/2, -1/8" in out


def test_class_symbolic_flagged(capsys):
    code, out, _ = run_cli(
        capsys,
        "class", "--genus", "3", "-r", "1", "--vanishing", "0,1", "--beta", "symbolic",
    )
    assert code == 0
    assert "engine-convention-symbolic-beta" in out
    assert "T^2: 1/8*b" in out


def test_class_json_roundtrip(capsys):
    code, out, _ = run_cli(
        capsys,
        "class", "--genus", "3", "-r", "1", "--vanishing", "0,1",
        "--beta", "-1", "--output", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["problem"]["lambda"] == [1]
    assert doc["result"]["kind"] == "chern_character_K"
    poly = ThetaPoly.from_json_dict(doc["result"]["theta_poly"])
    p = prym_bn.build_problem(3, 1, (0, 1))
    assert poly == prym_bn.ch_k_class(p)
    assert doc["meta"]["normalization"]["xi_coeffs"] == ["0", "1", "-1/2"]


def test_class_latex(capsys):
    code, out, _ = run_cli(
        capsys,
        "class", "--genus", "4", "-r", "1", "--vanishing", "1,2",
        "--beta", "0", "--output", "latex",
    )
    assert code == 0
    assert out.strip() == "\\frac{1}{24}(2\\xi)^{3}"


def test_class_validation_exit_2(capsys):
    code, out, err = run_cli(capsys, "class", "--genus", "2", "-r", "1", "--vanishing", "0,3")
    assert code == 2
    assert out == ""
    assert "a_r exceeds 2g-2" in err
    assert err.count("\n") == 1  # one-line diagnostic


def test_internal_error_exit_4(capsys, monkeypatch):
    def broken(problem, beta_mode):
        raise RuntimeError("entry table\ncorrupted")

    monkeypatch.setattr(cli, "class_result", broken)
    code, out, err = run_cli(capsys, "class", "--genus", "4", "--vanishing", "1,2")
    assert code == 4
    assert out == ""
    assert err == "error: internal: RuntimeError: entry table corrupted\n"


def test_chi_plain(capsys):
    for args, want in [
        (("chi", "--genus", "3", "-r", "1", "--vanishing", "0,1"), "-1"),
        (("chi", "--genus", "4", "-r", "1", "--vanishing", "1,2"), "2"),
        (("chi", "--genus", "2", "-r", "1", "--vanishing", "0,1"), "1"),
    ]:
        code, out, _ = run_cli(capsys, *args)
        assert code == 0
        assert out.strip() == want


def test_chi_verify_clean(capsys):
    code, out, err = run_cli(
        capsys, "chi", "--genus", "3", "-r", "1", "--vanishing", "0,1", "--verify"
    )
    assert code == 0 and err == ""
    assert out.strip() == "-1"


def test_chi_verify_detects_route_mismatch(capsys, monkeypatch):
    real = prym_bn.g_coeff

    def flipped(m, i, j, lam, v):
        return -real(m, i, j, lam, v)

    monkeypatch.setattr(prym_bn, "g_coeff", flipped)
    code, out, err = run_cli(
        capsys, "chi", "--genus", "3", "-r", "1", "--vanishing", "0,1", "--verify"
    )
    assert code == 3
    assert "route mismatch" in err


def test_chi_json(capsys):
    code, out, _ = run_cli(
        capsys, "chi", "--genus", "4", "-r", "1", "--vanishing", "1,2", "--output", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["chi"] == "2"
    assert Fraction(doc["result"]["chi"]) == 2


def test_table_plain_deterministic(capsys):
    args = ("table", "--g-min", "2", "--g-max", "4", "--max-len", "3")
    code1, first, _ = run_cli(capsys, *args)
    code2, second, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert first == second
    # the g=4 staircase row: a=(1,2), lambda=(2,1), gamma=1/24, chi=2
    assert ["4", "1,2", "2,1", "1/24", "3", "2"] in [line.split() for line in first.splitlines()]


def test_table_json_parses(capsys):
    code, out, _ = run_cli(
        capsys, "table", "--g-min", "2", "--g-max", "3", "--output", "json"
    )
    assert code == 0
    doc = json.loads(out)
    rows = doc["rows"]
    assert {"g": 2, "a": [1], "lambda": [1], "gamma": "1/2", "exponent": 1, "chi": "1"} in rows


def test_table_latex(capsys):
    code, out, _ = run_cli(
        capsys, "table", "--g-min", "2", "--g-max", "2", "--output", "latex"
    )
    assert code == 0
    assert out.startswith("\\begin{tabular}")
    assert out.rstrip().endswith("\\end{tabular}")


def test_table_bounds_rejected(capsys):
    code, _, err = run_cli(capsys, "table", "--g-min", "2", "--g-max", "11")
    assert code == 2
    assert "g_max exceeds 10" in err
    code, _, err = run_cli(capsys, "table", "--g-min", "2", "--g-max", "4", "--max-len", "6")
    assert code == 2
    assert "max_len" in err


def test_selfcheck_quick_passes(capsys):
    code, out, _ = run_cli(capsys, "selfcheck", "--quick")
    assert code == 0
    assert "oracle-equivalence: PASS" in out
    assert "selfcheck: PASS" in out


def test_selfcheck_detects_injected_sign_flip(capsys, monkeypatch):
    real = prym_bn.g_coeff

    def flipped(m, i, j, lam, v):
        return -real(m, i, j, lam, v)

    monkeypatch.setattr(prym_bn, "g_coeff", flipped)
    code, out, _ = run_cli(capsys, "selfcheck", "--quick")
    assert code == 1
    assert "oracle-equivalence: FAIL" in out


def test_outputs_are_deterministic(capsys):
    for args in (
        ("class", "--genus", "4", "-r", "1", "--vanishing", "1,2", "--beta", "0", "--output", "json"),
        ("class", "--genus", "3", "-r", "1", "--vanishing", "0,1", "--beta", "symbolic"),
        ("chi", "--genus", "4", "-r", "1", "--vanishing", "1,2", "--output", "json"),
        ("table", "--g-min", "2", "--g-max", "4"),
    ):
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second


def test_expected_empty_problem_reported(capsys):
    code, out, _ = run_cli(capsys, "class", "--genus", "3", "-r", "1", "--vanishing", "3,4")
    assert code == 0
    assert "expected_empty=yes" in out
    code, out, _ = run_cli(capsys, "chi", "--genus", "3", "-r", "1", "--vanishing", "3,4")
    assert code == 0
    assert out.strip() == "0"
