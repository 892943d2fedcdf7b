import hashlib
import json
import pathlib
import subprocess
import sys
import time
from fractions import Fraction
from math import comb, factorial

import pytest

import prymck.cli as cli
import prymck.prym_bn as prym_bn
from prymck import selfcheck
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
    real = prym_bn._pair_ints

    def flipped(ni, nj, count):
        return [-x for x in real(ni, nj, count)]

    # lambda = (2, 1): the theorem route's one pair series flips sign
    monkeypatch.setattr(prym_bn, "_pair_ints", flipped)
    code, out, err = run_cli(
        capsys, "chi", "--genus", "6", "-r", "1", "--vanishing", "1,2", "--verify"
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


@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            "class --genus 300 -r 0 -a 1 --beta -1 --output json",
            "96fdac2c284da6c019905e641dda68f2d7c6560e5f1bd8444360e1770c206957",
        ),
        (
            "class --genus 40 -r 2 -a 1,2,3 --beta symbolic --output json",
            "fbcfd314a99fcc844fc10a2ccdfe0dd6852f399bfa264e8f84ec40c776425ebc",
        ),
    ],
    ids=("g300-beta-minus-one-json", "g40-symbolic-json"),
)
def test_large_class_output_is_frozen(capsys, argv, digest):
    # sha256 of the stdout, recorded while the prefactors were Fraction sums
    # and the boundary row was built from ThetaPoly additions
    code, out, _ = run_cli(capsys, *argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


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


def _reference_selfcheck():
    path = pathlib.Path(__file__).resolve().parents[1] / "bench" / "reference.json"
    return json.loads(path.read_text())["selfcheck"]


def test_selfcheck_prints_the_reference(capsys):
    # one size: stdout byte for byte the selfcheck entry of
    # bench/reference.json, and --quick is an argparse usage error
    code, out, err = run_cli(capsys, "selfcheck")
    assert (code, err) == (0, "")
    assert out == _reference_selfcheck()
    with pytest.raises(SystemExit) as exc:
        main(["selfcheck", "--quick"])
    assert exc.value.code == 2


def _expected_selfcheck(failed):
    # the reference lines with the checks in failed replaced by their
    # FAIL line, and the summary counting them
    lines = []
    for line in _reference_selfcheck().splitlines()[:-1]:
        name = line.split(":")[0]
        lines.append(f"{name}: {failed[name]}" if name in failed else line)
    lines.append(f"selfcheck: FAIL ({len(failed)} failing) (15 checks)")
    return "\n".join(lines) + "\n"


def test_selfcheck_detects_injected_sign_flip(capsys, monkeypatch):
    # every check still runs: a failing check names how many cases passed
    # before it, and the checks after it still print PASS
    real = prym_bn._pair_ints

    def flipped(ni, nj, count):
        return [-x for x in real(ni, nj, count)]

    monkeypatch.setattr(prym_bn, "_pair_ints", flipped)
    code, out, _ = run_cli(capsys, "selfcheck")
    assert code == 1
    assert out == _expected_selfcheck(
        {
            "oracle-equivalence": "FAIL (after 8 cases)",
            "zero-dimensional-degree": "FAIL (after 2 cases)",
        }
    )


def test_selfcheck_reports_a_crashing_check(capsys, monkeypatch):
    # an exception inside a check fails that check alone, with its message
    def boom(r):
        raise RuntimeError(f"boom at r = {r}")

    monkeypatch.setattr(selfcheck, "_de_concini_pragacz", boom)
    code, out, _ = run_cli(capsys, "selfcheck")
    assert code == 1
    assert out == _expected_selfcheck({"classical-recovery": "FAIL (error: boom at r = 0)"})


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


def test_only_minus_one_means_the_default_r(capsys):
    # -1 is the documented default, len(a) - 1; any other negative r is
    # refused by build_problem
    for command in ("class", "chi"):
        for r in ("-7", "-2"):
            code, out, err = run_cli(capsys, command, "-g", "4", "-r", r, "-a", "1,2")
            assert (code, out) == (2, ""), (command, r)
            assert err == f"error: r must be nonnegative (got r={r})\n"


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
        # lambda = (2, 1), budget 5997: its pair series, about 2.2 * 10^6,
        # takes 47 s
        ("chi", "--genus", "6000", "-r", "1", "-a", "1,2"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert out == "", argv
        assert err.count("\n") == 1 and err.startswith("error: problem too large: "), (argv, err)
        assert f"exceeds {cli._WORK_MAX}" in err


def test_work_bound_admits_benchmark_and_anchor_problems(capsys):
    # chi --verify anchors and ladder rungs, then class at beta -1 / symbolic
    for g, lam in (
        (80, (1,)),
        (30, (7, 6, 5, 4, 3, 2, 1)),
        (25, (8, 5, 4, 3, 2, 1)),
        (60, (3, 1)),
        (80, (4, 3, 2, 1)),
        (3000, (1,)),
    ):
        p = prym_bn.problem_from_partition(g, lam)
        assert 0 < cli._theorem_work(p) + cli._oracle_work(p) <= cli._WORK_MAX, (g, lam)
    for g, lam in (
        (28, (8, 6, 4, 3, 2, 1)),
        (40, (8, 6, 5, 4, 3, 2)),
        (1000, (1,)),
        (46, (9, 8, 7, 6, 5, 4, 3, 2, 1)),
    ):
        p = prym_bn.problem_from_partition(g, lam)
        assert 0 < cli._oracle_work(p) <= cli._WORK_MAX, (g, lam)
    # the closed product answers beta 0 at any genus
    code, out, _ = run_cli(capsys, "class", "--genus", "9" * 20, "-r", "0", "--vanishing", "1")
    assert code == 0 and "gamma: 1/2" in out
    code, out, _ = run_cli(capsys, "chi", "--genus", "80", "-r", "0", "-a", "1", "--verify")
    assert code == 0 and out.strip() == "1"


def test_work_estimates_closed_forms():
    # g = 30, lambda = (7,...,1): h = 29, budget 1, 8 indices, 105
    # matchings of 2 series products, (B + 1)^2 * h steps each, and one
    # x^B dot product of (B + 1) * h steps; 21 pairs of parts of C(3, 2)
    # terms, h steps each; 7 Abel rows of (B + 1) * h steps; 28 pair series
    # put over h!, h^2 steps each. The oracle's 105 matchings of 3
    # products, cap^3 steps each, and 6 first plus 21 second kernel stages,
    # cap^3 steps each
    p = prym_bn.problem_from_partition(30, (7, 6, 5, 4, 3, 2, 1))
    assert cli._theorem_work(p) == (
        105 * (2 * 2**2 * 29 + 2 * 29) // cli._PRODUCT_STEPS_PER_UNIT
        + 21 * 3 * 29 // cli._PAIR_STEPS_PER_UNIT
        + 7 * 2 * 29 // cli._ROW_STEPS_PER_UNIT
        + 28 * 29**2 // cli._SCALED_STEPS_PER_UNIT
    )
    assert cli._oracle_work(p) == (
        105 * 3 * 29**3 // cli._PRODUCT_STEPS_PER_UNIT + (6 + 21) * 29**3 // cli._KERNEL_STEPS_PER_UNIT
    )
    # g = 400, lambda = (5, 4, 3, 2, 1): budget 384, 6 indices, 15
    # matchings of one product and one dot product, every theorem term
    # nonzero
    p = prym_bn.problem_from_partition(400, (5, 4, 3, 2, 1))
    terms = (
        15 * (385**2 * 399 + 385 * 399) // cli._PRODUCT_STEPS_PER_UNIT,
        10 * 385 * 386 // 2 * 399 // cli._PAIR_STEPS_PER_UNIT,
        5 * 385 * 399 // cli._ROW_STEPS_PER_UNIT,
        15 * 399**2 // cli._SCALED_STEPS_PER_UNIT,
    )
    assert all(terms) and cli._theorem_work(p) == sum(terms)
    # expected empty: the theorem route returns before summing, the oracle
    # still computes its zero: 3 matchings of 1 product, 2 + 3 stages
    p = prym_bn.problem_from_partition(10, (8, 3, 1))
    assert cli._theorem_work(p) == 0
    assert cli._oracle_work(p) == (
        3 * 9**3 // cli._PRODUCT_STEPS_PER_UNIT + (2 + 3) * 9**3 // cli._KERNEL_STEPS_PER_UNIT
    )
    # n = 2: the Pfaffian is its one entry and the theorem's lone series is
    # read at x^B, so no products; two parts are one entry of two stages,
    # one part only the boundary Fractions
    p = prym_bn.problem_from_partition(50, (2, 1))
    assert cli._theorem_work(p) == (
        47 * 48 // 2 * 49 // cli._PAIR_STEPS_PER_UNIT + 2 * 47 * 49 // cli._ROW_STEPS_PER_UNIT
    )
    assert cli._oracle_work(p) == 2 * 49**3 // cli._KERNEL_STEPS_PER_UNIT
    p = prym_bn.problem_from_partition(1001, (1,))
    assert cli._theorem_work(p) == -(-1000 * 1000 // cli._WALK_STEPS_PER_UNIT)
    assert cli._oracle_work(p) == 1000**3 // cli._BOUNDARY_STEPS_PER_UNIT
    # n = 4: each of the 3 matchings takes one x^B dot product alone, so
    # g = 1500, lambda = (3, 2, 1), about 5 s, is admitted; priced as a full
    # product it was 1,361,848 units
    p = prym_bn.problem_from_partition(1500, (3, 2, 1))
    terms = (
        3 * 1494 * 1499 // cli._PRODUCT_STEPS_PER_UNIT,
        3 * 1494 * 1495 // 2 * 1499 // cli._PAIR_STEPS_PER_UNIT,
        3 * 1494 * 1499 // cli._ROW_STEPS_PER_UNIT,
        6 * 1499**2 // cli._SCALED_STEPS_PER_UNIT,
    )
    assert cli._theorem_work(p) == sum(terms) <= cli._WORK_MAX


def test_work_bound_counts_abel_prefactors(capsys, monkeypatch):
    # one part is its Abel walk alone, (B + 1) * h steps priced by time, as
    # the walk holds one value at a time: g = 50000, lambda = (1) takes
    # about 0.01 s, where priced as a row held whole it was 2,499,900 units
    # and exited 2
    p = prym_bn.problem_from_partition(50000, (1,))
    assert cli._theorem_work(p) == -(-49999 * 49999 // cli._WALK_STEPS_PER_UNIT)
    code, out, err = run_cli(capsys, "chi", "--genus", "50000", "-r", "0", "-a", "1")
    assert (code, out, err) == (0, "1\n", "")
    # lambda = (25000) is inside the work bound too, but its chi has more
    # digits than str() converts, so it exits 2 before its 0.4 s walk
    code, out, err = run_cli(capsys, "chi", "--genus", "50000", "-r", "0", "-a", "25000")
    assert code == 2 and out == ""
    assert err == f"error: problem too large: chi has more than {cli._str_limit()} digits\n"
    # g = 1000001, lambda = (500000) is over the bound: refused before the
    # walk starts
    p = prym_bn.problem_from_partition(1000001, (500000,))
    assert cli._theorem_work(p) == 500001 * 10**6 // cli._WALK_STEPS_PER_UNIT > cli._WORK_MAX

    def never(*args):
        raise AssertionError("a route ran on a problem over the work bound")

    monkeypatch.setattr(cli, "euler_theorem", never)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "chi", "--genus", "1000001", "-r", "0", "-a", "500000")
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: problem too large: "), err


def test_work_bound_prices_products_by_steps(capsys):
    # the oracle's Pfaffian at g = 46 on the nine-part staircase takes
    # 945 * 4 products of cap^3 = 45^3 steps in about 0.4 s; priced at a
    # unit per coefficient product it was 7,662,519 units and exited 2
    p = prym_bn.problem_from_partition(46, tuple(range(9, 0, -1)))
    assert cli._oracle_work(p) == (
        945 * 4 * 45**3 // cli._PRODUCT_STEPS_PER_UNIT + (8 + 36) * 45**3 // cli._KERNEL_STEPS_PER_UNIT
    )
    code, out, err = run_cli(capsys, "class", "-g", "46", "-a", staircase(9), "--beta", "-1")
    assert (code, err) == (0, "")
    assert out.startswith("problem: g=46 r=8 a=1,2,3,4,5,6,7,8,9 lambda=9,8,7,6,5,4,3,2,1 ")


def test_large_budget_chi_verify_runs(capsys):
    # the pair series sum at budgets 55, 69 and 2998, each equal to the oracle
    for argv in (
        ("-g", "60", "-r", "1", "-a", "1,3"),
        ("-g", "80", "-r", "3", "-a", "1,2,3,4"),
        ("-g", "3000", "-r", "0", "-a", "1"),
    ):
        code, out, err = run_cli(capsys, "chi", *argv, "--verify")
        assert (code, err) == (0, ""), argv
    assert out == "1\n"


def test_benchmark_tracer_installs():
    # bench/layer_trace.py wraps prymck functions by name, and its install
    # fails when one of those names is gone
    src = pathlib.Path(cli.__file__).resolve().parent.parent
    bench = pathlib.Path(__file__).resolve().parent.parent / "bench"
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import prymck.cli; "
        "sys.path.insert(0, sys.argv[2]); import layer_trace; layer_trace.Tracer().install()"
    )
    run = subprocess.run(
        [sys.executable, "-c", code, str(src), str(bench)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert run.returncode == 0, run.stderr


def test_import_loads_no_dataclasses_machinery():
    # every prymck command pays for what importing prymck.cli loads;
    # dataclasses alone pulled in inspect, ast, dis, tokenize and linecache
    src = pathlib.Path(cli.__file__).resolve().parent.parent
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); before = set(sys.modules); "
        "import prymck.cli; print(' '.join(sorted(set(sys.modules) - before)))"
    )
    run = subprocess.run(
        [sys.executable, "-c", code, str(src)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert run.returncode == 0, run.stderr
    added = set(run.stdout.split())
    assert "prymck.cli" in added
    assert not added & {"dataclasses", "inspect", "ast", "dis", "tokenize", "linecache"}, added


def test_work_bound_counts_entry_kernel(capsys, monkeypatch):
    # class at beta -1 runs l - 1 first and l(l-1)/2 second kernel stages
    # of cap^3 steps each: at g = 1000, lambda = (2, 1) that is 2 * 999^3
    # steps, about 4 * 10^6 units
    p = prym_bn.problem_from_partition(1000, (2, 1))
    assert cli._oracle_work(p) == 2 * 999**3 // cli._KERNEL_STEPS_PER_UNIT
    assert cli._oracle_work(p) > cli._WORK_MAX

    def never(*args):
        raise AssertionError("a route ran on a problem over the work bound")

    monkeypatch.setattr(cli, "class_result", never)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "class", "--genus", "1000", "-r", "1", "-a", "1,2", "--beta", "-1")
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: problem too large: "), err


def test_one_part_at_genus_1000_runs(capsys):
    # both routes at budget 998, admitted since the Abel row is O(B); at
    # g = 1001 the oracle is priced by its boundary Fractions, not by
    # Pfaffian products it never takes
    code, out, err = run_cli(capsys, "chi", "--genus", "1000", "-r", "0", "-a", "1", "--verify")
    assert (code, out, err) == (0, "1\n", "")
    code, out, err = run_cli(capsys, "chi", "--genus", "1001", "-r", "0", "-a", "1", "--verify")
    assert (code, out, err) == (0, "-1\n", "")


def test_benchmark_reference_commands_are_admitted(capsys):
    # every class and chi command of the benchmark runs and prints its recorded stdout
    path = pathlib.Path(__file__).resolve().parents[1] / "bench" / "reference.json"
    reference = json.loads(path.read_text())
    commands = [c for c in reference if c.split()[0] in ("class", "chi")]
    assert len(commands) == 24
    for command in commands:
        code, out, err = run_cli(capsys, *command.split())
        assert (code, err) == (0, ""), command
        assert out == reference[command], command


def staircase(k):
    return ",".join(str(p) for p in range(1, k + 1))


def test_class_beta_zero_refuses_gamma_over_the_str_limit(capsys, monkeypatch):
    # gamma of lambda = (70, ..., 1) has 4481 digits, more than str()
    # converts by default; (300, ..., 1) took seconds before failing
    def never(*args):
        raise AssertionError("class_result ran on a problem over the digit bound")

    monkeypatch.setattr(cli, "class_result", never)
    assert sys.get_int_max_str_digits() == 4300
    huge = "1" + "0" * 400
    for argv in (
        ("-g", "40", "-a", staircase(70)),
        ("-g", "400", "-a", staircase(300)),
        ("-g", huge, "-a", huge[:-1]),  # one part of 10^399, past a float
    ):
        for fmt in ("plain", "json", "latex"):
            start = time.perf_counter()
            code, out, err = run_cli(capsys, "class", *argv, "--beta", "0", "--output", fmt)
            assert time.perf_counter() - start < 1
            assert code == 2 and out == "", fmt
            assert err == "error: problem too large: gamma has more than 4300 digits\n"


def test_class_refuses_coefficients_over_the_str_limit(capsys):
    # one part at g = 1500 is well inside the work bound, but its top theta'
    # coefficients have denominators near 2^1500 * 1499!, of over 4300
    # digits: exit 2 after computing, not an internal error while printing;
    # at g = 1400 every coefficient still prints
    assert sys.get_int_max_str_digits() == 4300
    for beta in ("-1", "symbolic"):
        for fmt in ("plain", "json", "latex"):
            code, out, err = run_cli(capsys, "class", "-g", "1500", "-a", "2", "--beta", beta, "--output", fmt)
            assert code == 2 and out == "", (beta, fmt)
            assert err == "error: problem too large: a coefficient has more than 4300 digits\n"
    code, out, err = run_cli(capsys, "class", "-g", "1400", "-a", "2", "--beta", "-1")
    assert code == 0 and err == "" and out.startswith("problem: g=1400 ")


def test_class_beta_zero_prints_up_to_the_str_limit(capsys):
    # gamma of lambda = (52, ..., 1) is 1 / q with q of 2311 digits, and
    # gamma * 2^|lambda| has 1896: it prints until str() converts fewer
    code, out, _ = run_cli(capsys, "class", "-g", "40", "-a", staircase(52), "--beta", "0")
    assert code == 0 and "gamma: 1/" in out
    previous = sys.get_int_max_str_digits()
    try:
        for limit, printed in ((2311, True), (2310, False)):
            sys.set_int_max_str_digits(limit)
            for fmt in ("plain", "json", "latex"):
                argv = ("class", "-g", "40", "-a", staircase(52), "--beta", "0", "--output", fmt)
                code, out, err = run_cli(capsys, *argv)
                if printed:
                    assert code == 0 and err == "" and out, fmt
                else:  # refused by the exact check after computing
                    assert code == 2 and out == "", fmt
                    assert err == f"error: problem too large: gamma has more than {limit} digits\n"
    finally:
        sys.set_int_max_str_digits(previous)


def test_chi_refuses_values_over_the_str_limit(capsys):
    # lambda = (2) gives chi = 2^h - 2: 4215 digits at g = 14001 prints,
    # 4516 at g = 15001 is over the 4300 str() converts and exits 2
    assert sys.get_int_max_str_digits() == 4300
    code, out, err = run_cli(capsys, "chi", "-g", "14001", "-r", "0", "-a", "2")
    assert code == 0 and err == "" and len(out) == 4215 + 1
    for fmt in ("plain", "json"):
        code, out, err = run_cli(capsys, "chi", "-g", "15001", "-r", "0", "-a", "2", "--output", fmt)
        assert code == 2 and out == "", fmt
        assert err == "error: problem too large: chi has more than 4300 digits\n"


def test_one_part_chi_lower_bound():
    # at lambda = (k), 2 <= k <= h = g - 1, every term of the Abel sum has
    # one sign, so |chi| >= 2^(h-1) * C(h-2, k-2); the pre-check built on it
    # refuses no chi whose digits fit a small limit
    for g in range(3, 41):
        h = g - 1
        for k in range(2, h + 1):
            p = prym_bn.problem_from_partition(g, (k,))
            chi = abs(prym_bn.euler_theorem(p).numerator)
            assert chi >= 2 ** (h - 1) * comb(h - 2, k - 2), (g, k)
            for limit in range(1, 16):
                assert not cli._chi_too_long(p, limit) or decimal_digits(chi) > limit, (g, k, limit)


def test_one_part_chi_refused_before_computing(capsys, monkeypatch):
    # g = 200000, lambda = (100000) is inside the work bound, but its chi
    # has far more digits than str() converts: exit 2 before the walk
    def never(*args):
        raise AssertionError("euler_theorem ran on a chi over the digit bound")

    monkeypatch.setattr(cli, "euler_theorem", never)
    p = prym_bn.problem_from_partition(200000, (100000,))
    assert cli._theorem_work(p) <= cli._WORK_MAX
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "chi", "--genus", "200000", "-r", "0", "-a", "100000")
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err == f"error: problem too large: chi has more than {cli._str_limit()} digits\n"


def test_one_part_chi_pre_check_never_refuses_a_printable_chi():
    # near the 4300-digit edge, for parts from 2 up to h: the first genera
    # the pre-check refuses have a chi the exact check refuses as well,
    # and the genus below is admitted
    for part in (lambda h: 2, lambda h: 50, lambda h: 1000, lambda h: h // 2, lambda h: h):
        g = 3
        while not (
            2 <= part(g - 1) <= g - 1
            and cli._chi_too_long(prym_bn.problem_from_partition(g, (part(g - 1),)), 4300)
        ):
            g += 1
        below = prym_bn.problem_from_partition(g - 1, (part(g - 2),))
        assert not cli._chi_too_long(below, 4300)
        for genus in (g, g + 1):
            p = prym_bn.problem_from_partition(genus, (part(genus - 1),))
            assert cli._chi_too_long(p, 4300)
            with pytest.raises(prym_bn.ValidationError, match="chi has more than 4300 digits"):
                cli._check_digits("chi", [prym_bn.euler_theorem(p)], 4300)


def test_one_part_class_lower_bound():
    # at lambda = (k), k <= cap = g - 1, the top theta' coefficient has a
    # reduced denominator of at least 2 * cap! / C(cap - 1, k - 1), reached
    # at some problems; the pre-check built on it refuses no class whose
    # printed rationals fit a small limit
    reached = 0
    for g in range(2, 41):
        cap = g - 1
        for k in range(1, cap + 1):
            p = prym_bn.problem_from_partition(g, (k,))
            value = prym_bn.ch_k_class(p)
            den = value.coeff(cap).denominator
            assert den * comb(cap - 1, k - 1) >= 2 * factorial(cap), (g, k)
            reached += den * comb(cap - 1, k - 1) == 2 * factorial(cap)
            shown = cli._shown_rationals(p, -1, value)
            digits = max(decimal_digits(n) for x in shown for n in (abs(x.numerator), x.denominator))
            for limit in range(1, 30):
                assert not cli._class_too_long(p, limit) or digits > limit, (g, k, limit)
    assert reached
    # the pre-check is for one part at k <= cap only
    assert not cli._class_too_long(prym_bn.problem_from_partition(3000, (2, 1)), 10)
    assert not cli._class_too_long(prym_bn.problem_from_partition(10, (10,)), 1)


def test_one_part_class_refused_before_computing(capsys, monkeypatch):
    # one part at g = 6000 and g = 8001 is inside the work bound, but its
    # top coefficients have far more digits than str() converts: exit 2
    # before ch_k_class runs, in every beta != 0 mode and format
    def never(*args):
        raise AssertionError("ch_k_class ran on a class over the digit bound")

    monkeypatch.setattr(prym_bn, "ch_k_class", never)
    assert sys.get_int_max_str_digits() == 4300
    for argv in (("-g", "6000", "-a", "1"), ("-g", "8001", "-a", "20")):
        for beta in ("-1", "symbolic"):
            for fmt in ("plain", "json", "latex"):
                start = time.perf_counter()
                code, out, err = run_cli(capsys, "class", *argv, "--beta", beta, "--output", fmt)
                assert time.perf_counter() - start < 1
                assert code == 2 and out == "", (argv, beta, fmt)
                assert err == "error: problem too large: a coefficient has more than 4300 digits\n"


def test_one_part_class_pre_check_never_refuses_a_printable_class():
    # near the 4300-digit edge, for several parts: the first genera the
    # pre-check refuses have a class the exact check refuses as well, and
    # the genus below is admitted by the pre-check
    for k in (1, 2, 20, 200):
        g = k + 1
        while not cli._class_too_long(prym_bn.problem_from_partition(g, (k,)), 4300):
            g += 1
        assert not cli._class_too_long(prym_bn.problem_from_partition(g - 1, (k,)), 4300)
        for genus in (g, g + 1):
            p = prym_bn.problem_from_partition(genus, (k,))
            assert cli._class_too_long(p, 4300)
            shown = cli._shown_rationals(p, -1, prym_bn.ch_k_class(p))
            with pytest.raises(prym_bn.ValidationError, match="a coefficient has more than 4300 digits"):
                cli._check_digits("a coefficient", shown, 4300)


def test_lifted_str_limit_still_bounds_class_beta_zero(capsys, monkeypatch):
    # with the str() limit lifted, gamma of lambda = (10^8) is still refused
    # at CPython's default of 4300 digits, before 10^8! is computed
    def never(*args):
        raise AssertionError("class_result ran on a problem over the digit bound")

    monkeypatch.setattr(cli, "class_result", never)
    previous = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(0)
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "class", "--genus", "1000000000", "-a", "100000000", "--beta", "0")
        assert time.perf_counter() - start < 1
    finally:
        sys.set_int_max_str_digits(previous)
    assert code == 2 and out == ""
    assert err == "error: problem too large: gamma has more than 4300 digits\n"


def test_readme_command_line_examples_run(capsys):
    # every prymck line of the fenced block under "## Command line" in
    # README.md, its trailing comment stripped, exits 0
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("\n## Command line\n", 1)[1].split("```")[1]
    lines = [line.split("#", 1)[0].split() for line in block.splitlines()]
    commands = [words[1:] for words in lines if words[:1] == ["prymck"]]
    assert len(commands) >= 6
    for argv in commands:
        code, _, err = run_cli(capsys, *argv)
        assert (code, err) == (0, ""), argv


def decimal_digits(x):
    # len(str(x)) without str(), which refuses more than 4300 digits
    d = max(1, x.bit_length() * 30103 // 100000)
    while 10**d <= x:
        d += 1
    while d > 1 and 10 ** (d - 1) > x:
        d -= 1
    return d


def test_gamma_too_long_only_when_the_denominator_is():
    # a lower bound on the digits of gamma's denominator, within one digit
    # on staircases, whose reduced numerator is 1
    cases = [tuple(range(k, 0, -1)) for k in range(1, 61, 5)]
    cases += [(2000,), (3000, 1), (300, 299, 298), (900, 451, 7, 2)]
    for lam in cases:
        gamma = prym_bn.chow_class_closed(lam)
        digits = decimal_digits(gamma.denominator)
        for limit in range(digits - 3, digits + 3):
            assert not cli._gamma_too_long(lam, limit) or digits > limit, (lam, limit)
        if gamma.numerator == 1:
            assert cli._gamma_too_long(lam, digits - 2), lam
    assert not cli._gamma_too_long((), 640)
    assert [decimal_digits(x) for x in (0, 9, 10, 99, 100, 10**50 - 1, 10**50)] == [1, 1, 2, 2, 3, 50, 51]


def test_integer_argument_with_too_many_digits(capsys):
    code, out, err = run_cli(capsys, "chi", "--genus", "9" * 5000, "-r", "0", "--vanishing", "1")
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: --genus ")


def test_cli_determinism_and_roundtrip(capsys):
    # every selfcheck suite problem (g = 2..7, at most 4 parts): class and
    # chi JSON are the same on a second run and parse back to the values
    checked = 0
    for p in selfcheck._suite_problems(7):
        a = ",".join(str(x) for x in p.a)
        base = ["--genus", str(p.g), "-r", str(p.r), "--vanishing", a]

        for args in (
            ["class", *base, "--beta", "-1", "--output", "json"],
            ["chi", *base, "--output", "json"],
        ):
            assert main(args) == 0
            first = capsys.readouterr().out
            assert main(args) == 0
            second = capsys.readouterr().out
            assert first == second, args

            doc = json.loads(first)
            assert doc["problem"]["g"] == p.g
            assert doc["problem"]["lambda"] == list(p.lam)
            if args[0] == "class":
                poly = ThetaPoly.from_json_dict(doc["result"]["theta_poly"])
                assert poly == prym_bn.ch_k_class(p)
            else:
                assert Fraction(doc["result"]["chi"]) == prym_bn.euler_theorem(p)
        checked += 1
    assert checked == 41
