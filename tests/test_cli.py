import hashlib
import json
from fractions import Fraction

import pytest

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


@pytest.mark.parametrize(
    "fmt, digest",
    [("plain", "b14b6c826507ef69"), ("json", "f5d29e0d0ccda639"), ("latex", "34ed4dcfb8cb659b")],
)
def test_table_output_is_frozen(capsys, fmt, digest):
    # sha256 prefixes of the benchmark's table output, recorded before the
    # theorem route moved to integer arithmetic
    code, out, _ = run_cli(capsys, "table", "--g-max", "10", "--max-len", "5", "--output", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == digest


@pytest.mark.parametrize(
    "beta, fmt, digest",
    [
        ("0", "plain", "648a5326d511745a"),
        ("0", "json", "a6344ce2978bd74c"),
        ("0", "latex", "3620d2ae5b725a2a"),
        ("-1", "plain", "8e73fa8de46174a7"),
        ("-1", "json", "a7a3c7602a3e75e4"),
        ("-1", "latex", "05eef9c488249aec"),
        ("symbolic", "plain", "e5a1466c6ac1d4af"),
        ("symbolic", "json", "ed029f23c96bcb9f"),
        ("symbolic", "latex", "0a3bc3d386ec3ab6"),
    ],
)
def test_class_output_is_frozen(capsys, beta, fmt, digest):
    # sha256 prefixes of the concatenated class stdout over g = 2..8 and
    # every nonempty strict partition with at most 5 parts and size at most
    # 2g - 2 (265 problems, zero-coefficient types included), recorded
    # while every beta mode still had its own operator expansion
    h = hashlib.sha256()
    for g in range(2, 9):
        for lam in prym_bn.strict_partitions(2 * g - 2, 5, 2 * g - 2):
            if not lam:
                continue
            a = ",".join(str(p) for p in sorted(lam))
            code, out, _ = run_cli(
                capsys, "class", "--genus", str(g), "--vanishing", a, "--beta", beta, "--output", fmt
            )
            assert code == 0, (g, lam)
            h.update(out.encode())
    assert h.hexdigest()[:16] == digest


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


def test_integer_arguments_are_strict(capsys):
    cases = [
        (("chi", "--genus", "٤", "-r", "1", "--vanishing", "1,2"), "--genus"),
        (("chi", "--genus", "4", "-r", "1", "--vanishing", "١,٢"), "--vanishing"),
        (("class", "--genus", "4", "-r", "1", "--vanishing", "1_0,2"), "--vanishing"),
        (("class", "--genus", "1_0", "--vanishing", "1,2"), "--genus"),
        (("class", "--genus", " 4", "--vanishing", "1,2"), "--genus"),
        (("class", "--genus", "4.0", "--vanishing", "1,2"), "--genus"),
        (("chi", "--genus", "4", "-r", "1.5", "--vanishing", "1,2"), "-r"),
        (("chi", "--genus", "4", "-r", "０", "--vanishing", "1,2"), "-r"),
        (("table", "--g-min", "2", "--g-max", "1_0"), "--g-max"),
        (("table", "--g-min", "²"), "--g-min"),
        (("table", "--max-len", "3\n"), "--max-len"),
    ]
    for argv, name in cases:
        code, out, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert out == "", argv
        assert err.count("\n") == 1 and err.startswith(f"error: {name} "), (argv, err)


def test_integer_arguments_accept_signed_ascii(capsys):
    code, out, _ = run_cli(capsys, "chi", "--genus", "+4", "-r", "+1", "--vanishing", "1, 2")
    assert code == 0 and out.strip() == "2"
    code, out, _ = run_cli(capsys, "chi", "--genus", "4", "-r", "-1", "--vanishing", "01,2")
    assert code == 0 and out.strip() == "2"
    code, _, err = run_cli(capsys, "chi", "--genus", "-4", "--vanishing", "1,2")
    assert code == 2 and "genus" in err


def test_work_bound_rejects_before_compute(capsys, monkeypatch):
    def never(*args):
        raise AssertionError("a route ran on a problem over the work bound")

    for name in ("euler_theorem", "euler_oracle", "class_result"):
        monkeypatch.setattr(cli, name, never)
    huge = ("--genus", "99999999999999999999", "-r", "0", "--vanishing", "1")
    for argv in (
        ("chi", *huge),
        ("chi", *huge, "--verify"),
        ("class", *huge, "--beta", "-1"),
        ("class", *huge, "--beta", "symbolic", "--output", "json"),
        # theorem 1000 + oracle 1000^2: the oracle alone is at the bound
        ("chi", "--genus", "1001", "-r", "0", "--vanishing", "1", "--verify"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert out == "", argv
        assert err.count("\n") == 1 and err.startswith("error: problem too large: "), (argv, err)
        assert f"exceeds {cli._WORK_MAX}" in err


def test_work_bound_admits_benchmark_and_anchor_problems(capsys):
    # chi --verify anchors and ladder rungs, then class at beta -1 / symbolic
    for g, lam in ((80, (1,)), (30, (7, 6, 5, 4, 3, 2, 1)), (25, (8, 5, 4, 3, 2, 1)), (1000, (1,))):
        p = prym_bn.problem_from_partition(g, lam)
        assert 0 < cli._theorem_work(p) + cli._oracle_work(p) <= cli._WORK_MAX, (g, lam)
    for g, lam in ((28, (8, 6, 4, 3, 2, 1)), (40, (8, 6, 5, 4, 3, 2))):
        p = prym_bn.problem_from_partition(g, lam)
        assert 0 < cli._oracle_work(p) <= cli._WORK_MAX, (g, lam)
    # the closed product answers beta 0 at any genus
    code, out, _ = run_cli(capsys, "class", "--genus", "9" * 20, "-r", "0", "--vanishing", "1")
    assert code == 0 and "gamma: 1/2" in out
    code, out, _ = run_cli(capsys, "chi", "--genus", "80", "-r", "0", "-a", "1", "--verify")
    assert code == 0 and out.strip() == "1"


def test_work_estimates_closed_forms():
    # g = 30, lambda = (7,...,1): 8 indices, 105 matchings, budget 1 over
    # 7 shifts and 3 degree slots
    p = prym_bn.problem_from_partition(30, (7, 6, 5, 4, 3, 2, 1))
    assert cli._theorem_work(p) == 105 * 11
    assert cli._oracle_work(p) == 105 * 29**2
    # expected empty: the theorem route returns before summing
    p = prym_bn.problem_from_partition(10, (8, 3, 1))
    assert cli._theorem_work(p) == 0
    assert cli._oracle_work(p) == 3 * 81


def test_integer_argument_with_too_many_digits(capsys):
    code, out, err = run_cli(capsys, "chi", "--genus", "9" * 5000, "-r", "0", "--vanishing", "1")
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: --genus ")
