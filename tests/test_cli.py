import contextlib
import hashlib
import io
import json
import os
import pathlib
import random
import re
import subprocess
import sys
import time
from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import example, given, strategies as st

import prymck.cli as cli
import prymck.prym_bn as prym_bn
from prymck import selfcheck
from prymck.cli import main
from prymck.exact_arith import CheckFailure
from prymck.series_ring import BetaPoly, ThetaPoly


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


@pytest.mark.parametrize("part", [3, 4])
def test_one_part_class_past_the_cap_prints_int_zeros(capsys, part):
    # g = 3, lambda = (3) or (4): the part lies past the cap 2, and the
    # class is the zero series of int 0s, which symbolic json writes "0"
    # (a Fraction 0 would be {}); built below lambda_1 as for smaller
    # parts, (4) would not even fit the cap + 1 slots
    p = prym_bn.problem_from_partition(3, (part,))
    assert [(type(c), c) for c in prym_bn.ch_k_class(p).coeffs] == [(int, 0)] * 3
    code, out, err = run_cli(capsys, "class", "-g", "3", "-a", str(part), "--beta", "-1")
    assert (code, err) == (0, "")
    assert "theta_poly: 0, 0, 0  (T^0..T^2" in out
    code, out, err = run_cli(capsys, "class", "-g", "3", "-a", str(part), "--beta", "symbolic", "--output", "json")
    assert (code, err) == (0, "")
    assert json.loads(out)["result"]["theta_poly"] == {"cap": 2, "coeffs": ["0", "0", "0"]}


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


def test_class_formats_only_the_output_it_prints(capsys, monkeypatch):
    # recorders on the two coefficient writers: symbolic plain prints the
    # str() of each BetaPoly and builds no json document, symbolic json
    # writes them through ThetaPoly.to_json_dict alone, and json at beta -1
    # writes its theta' polynomial through that one writer, once
    calls = []
    for owner, name in ((ThetaPoly, "to_json_dict"), (BetaPoly, "__str__")):
        def recorder(self, _write=getattr(owner, name), _name=name):
            calls.append(_name)
            return _write(self)

        monkeypatch.setattr(owner, name, recorder)
    argv = ("class", "-g", "6", "-a", "1,2")
    for beta, fmt, want in (
        ("symbolic", "plain", {"__str__"}),
        ("symbolic", "json", {"to_json_dict"}),
        ("symbolic", "latex", set()),
        ("-1", "json", {"to_json_dict"}),
        ("-1", "plain", set()),
        ("-1", "latex", set()),
    ):
        calls.clear()
        code, out, err = run_cli(capsys, *argv, "--beta", beta, "--output", fmt)
        assert (code, err) == (0, ""), (beta, fmt)
        assert set(calls) == want, (beta, fmt, calls)
        if "to_json_dict" in want:
            assert calls == ["to_json_dict"], (beta, fmt, calls)
            value = prym_bn.class_result(prym_bn.build_problem(6, 1, (1, 2)), cli._BETA_CHOICES[beta])
            assert json.loads(out)["result"]["theta_poly"] == value.to_json_dict()


def test_rendering_copies_no_fraction(capsys, monkeypatch):
    # a wrapper on Fraction.__new__ counts the Fractions built from a
    # Fraction (arithmetic builds its results from ints on every Python):
    # table, chi and class at beta 0 and -1 print their exact values as
    # they are, in every format
    copies = []
    true_new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        if args and isinstance(args[0], Fraction):
            copies.append(args[0])
        return true_new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    runs = [("table", "--g-max", "10", "--max-len", "5", "--output", fmt) for fmt in ("plain", "json", "latex")]
    # a small problem and a class-k rung of the benchmark
    for problem in (("-g", "8", "-a", "1,2,4"), ("-g", "28", "-a", "1,2,3,4,5,9")):
        runs += [("chi", *problem, "--verify", "--output", fmt) for fmt in ("plain", "json")]
        for beta in ("0", "-1"):
            runs += [("class", *problem, "--beta", beta, "--output", fmt) for fmt in ("plain", "json", "latex")]
    for argv in runs:
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "") and out, argv
    assert copies == []


@pytest.mark.parametrize("argv", ["chi -g 5 -a 1,2", "table --g-max 10 --max-len 5"], ids=("chi", "table"))
def test_closed_stdout_exits_141_with_nothing_on_stderr(argv):
    # stdout is a pipe whose read end is closed before prymck starts, so
    # every run fails the same way: inside main, which exits as a shell
    # reports SIGPIPE, where it used to report an internal error (exit 4)
    src = pathlib.Path(cli.__file__).resolve().parent.parent
    read, write = os.pipe()
    os.close(read)
    try:
        run = subprocess.run(
            [sys.executable, "-m", "prymck", *argv.split()],
            stdout=write,
            stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": str(src)},
            timeout=60,
        )
    finally:
        os.close(write)
    assert (run.returncode, run.stderr) == (141, b"")


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


def test_chi_verify_names_an_oracle_value_over_the_str_limit(capsys, monkeypatch):
    # a mismatch whose oracle value has more digits than str() converts
    # still exits 3, naming that value by its size rather than an internal
    # error from formatting it
    monkeypatch.setattr(cli, "euler_oracle", lambda problem: Fraction(10**5000 + 1, 3))
    code, out, err = run_cli(capsys, "chi", "-g", "5", "-a", "1,2", "--verify")
    assert (code, out) == (3, "")
    assert err.startswith("error: route mismatch: theorem=")
    assert err.endswith(f" oracle=(more than {cli._str_limit()} digits)\n")


@pytest.mark.parametrize(
    ("argv", "g"),
    [
        (("chi", "-g", "12", "-a", "1,2,3"), 12),
        (("chi", "-g", "12", "-a", "1,2,3", "--verify"), 12),
        # the first partition of three parts, (3, 2, 1), enters at g = 7
        (("table", "--g-max", "7"), 7),
    ],
    ids=("chi", "chi-verify", "table"),
)
def test_a_chi_that_is_not_an_integer_exits_3(capsys, off_by_one_walk, argv, g):
    # a route fault that breaks integrality is a failed check: exit 3 with
    # nothing on stdout, where a Fraction chi printed p/q with exit 0
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (3, "")
    assert err == f"error: integrality: the theorem route's chi at lambda=(3, 2, 1), g={g} is not an integer\n"


def test_an_oracle_chi_that_is_not_an_integer_exits_3(capsys, monkeypatch):
    # the top coefficient of the class moved by half of 1 / (2^cap * cap!):
    # the oracle's division leaves a remainder, and --verify names the oracle
    real = prym_bn.ch_k_class

    def nudged(problem):
        poly = real(problem)
        cap = poly.cap
        return ThetaPoly(cap, (*poly.coeffs[:-1], poly.coeffs[-1] + Fraction(1, 2 ** (cap + 1) * factorial(cap))))

    monkeypatch.setattr(prym_bn, "ch_k_class", nudged)
    with pytest.raises(CheckFailure, match="oracle"):
        prym_bn.euler_oracle(prym_bn.problem_from_partition(12, (3, 2, 1)))
    code, out, err = run_cli(capsys, "chi", "-g", "12", "-a", "1,2,3", "--verify")
    assert (code, out) == (3, "")
    assert err == "error: integrality: the oracle route's chi at lambda=(3, 2, 1), g=12 is not an integer\n"
    # the theorem route alone reads no class
    assert run_cli(capsys, "chi", "-g", "12", "-a", "1,2,3")[:2] == (0, "-84744\n")


@pytest.mark.parametrize(
    "argv",
    [("class", "-g", "10", "-a", "1,2", "--beta", "-1"), ("chi", "-g", "10", "-a", "1,2", "--verify")],
    ids=("class", "chi-verify"),
)
def test_the_kernel_guard_exits_3(capsys, broken_kernel_start, argv):
    # a nonzero cell below an entry's base degree is a failed check, not an
    # internal error: exit 3, not 4
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (3, "")
    assert err == "error: apply_pair_operator: row 0 is nonzero below the base degree 3\n"


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
    "beta, fmt, digest",
    [
        ("0", "plain", "24515a221724b592"),
        ("0", "json", "798801fede28347e"),
        ("0", "latex", "d644bcfd6400d37c"),
        ("-1", "plain", "857601b1c91ac6dd"),
        ("-1", "json", "2199c307228bca7a"),
        ("-1", "latex", "efdfd6bbf885440a"),
        ("symbolic", "plain", "3cc1e04f910ac58b"),
        ("symbolic", "json", "6357a5cd2c9285cb"),
        ("symbolic", "latex", "bfe6ed2fc595fdd0"),
    ],
)
def test_class_output_from_a_leading_zero_is_frozen(capsys, beta, fmt, digest):
    # sha256 prefixes of the concatenated class stdout over g = 2..8 and
    # every sequence 0, lambda with lambda strict, at most 4 parts and size
    # at most 2g - 3 (212 sequences): -a 0 (lambda = (), codimension 0) and
    # sequences whose a, r and parity differ from lambda's, which the
    # minimal sequences above never reach
    h = hashlib.sha256()
    count = 0
    for g in range(2, 9):
        for lam in prym_bn.strict_partitions(2 * g - 3, 4, 2 * g - 2):
            a = ",".join(str(p) for p in (0, *sorted(lam)))
            code, out, _ = run_cli(
                capsys, "class", "--genus", str(g), "--vanishing", a, "--beta", beta, "--output", fmt
            )
            assert code == 0, (g, a)
            h.update(out.encode())
            count += 1
    assert count == 212
    assert h.hexdigest()[:16] == digest


@pytest.mark.parametrize(
    "fmt, digest",
    [("plain", "10d7ba1182f4826e"), ("json", "d63eb143f64ad4ca"), ("latex", "10d7ba1182f4826e")],
)
@pytest.mark.parametrize("verify", [(), ("--verify",)], ids=("theorem", "verify"))
def test_chi_output_is_frozen(capsys, fmt, verify, digest):
    # sha256 prefixes of the concatenated chi stdout over the 265 problems
    # of test_class_output_is_frozen, in each format, with and without
    # --verify; latex prints the bare integer, as plain does
    h = hashlib.sha256()
    for g in range(2, 9):
        for lam in prym_bn.strict_partitions(2 * g - 2, 5, 2 * g - 2):
            if not lam:
                continue
            a = ",".join(str(p) for p in sorted(lam))
            code, out, _ = run_cli(capsys, "chi", "--genus", str(g), "--vanishing", a, "--output", fmt, *verify)
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


def test_large_regime_outputs_are_frozen(capsys):
    # the twelve-part staircase, recorded while every entry was built and
    # multiplied to degree g - 1: the sha256 of the class stdout at g = 100
    # (B = 21) and the chi that both routes print at g = 80 (B = 1)
    code, out, err = run_cli(capsys, *f"class -g 100 -r 11 -a {staircase(12)} --beta -1".split())
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "a711cec0eb9ed80c6eea857756aef9cc1db7b0ca7b30abc8573f43ff6e767b5f"
    )
    code, out, err = run_cli(capsys, *f"chi -g 80 -r 11 -a {staircase(12)} --verify".split())
    assert (code, err) == (0, "")
    assert out == "-4303725722915322389361158547827850525694236916898070528000\n"


@pytest.mark.parametrize(
    "argv, digest",
    [
        ("class -g 300 -a 1,2,3 --beta -1", "5a909e8be8ad453a86625dfca928f576019d1de2b79e5e31189eab8a645e6954"),
        ("chi -g 601 -a 1,2 --verify", "b6081202aa6e83941429d5ea644a10ff51ef3c4e04810912ab23d84d9fdf0095"),
    ],
    ids=("g300-three-parts", "g601-two-parts-verify"),
)
def test_large_cap_kernel_outputs_are_frozen(capsys, argv, digest):
    # the entry kernel at caps 299 and 600, far above the caps the kernel
    # tests reach: sha256 of the stdout, recorded while the kernel built
    # each entry from a table of the i-side prefactor times the interaction
    code, out, err = run_cli(capsys, *argv.split())
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# strs of any code points, lone surrogates included, and of the ones JSON
# escapes: a quote, a backslash, control characters, non-ASCII and astral
_JSON_STRS = st.text(
    st.characters(exclude_categories=()) | st.sampled_from('"\\\x00\n\x1f\x7f\xe9\u2028\U0001f600\ud800\udfff'),
    max_size=8,
)
_JSON_DOCUMENTS = st.recursive(
    st.none() | st.booleans() | st.sampled_from([0, 1]) | st.integers() | st.integers(-(10**60), 10**60) | _JSON_STRS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_JSON_STRS, inner, max_size=4),
    max_leaves=40,
)


@given(_JSON_DOCUMENTS)
@example({"a": [{"b": [[{"c": [[]]}], {}]}], "d": [True, 1, False, 0, None, -12345678901234567890123]})
@example([{}, [], "", {"": {}}])
def test_print_json_writes_what_json_dumps_writes(document):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        cli._print_json(document)
    assert out.getvalue() == json.dumps(document, indent=2) + "\n"


@pytest.mark.parametrize(
    "value, named",
    [(1.5, "float"), (Fraction(1, 3), "Fraction"), ((1, 2), "tuple"), ({1, 2}, "set"), ({1: "x"}, "int key")],
    ids=("float", "Fraction", "tuple", "set", "int-key"),
)
def test_print_json_refuses_any_other_type(capsys, value, named):
    # json.dumps would write the float, the tuple and the int key without
    # a word; the writer names each type and prints nothing
    with pytest.raises(TypeError, match=named):
        cli._print_json({"rows": [{"g": 2, "chi": value}]})
    assert capsys.readouterr().out == ""


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


def test_table_works_per_partition(capsys, monkeypatch):
    # table --g-max 10 --max-len 5 prints 109 rows of 32 partitions: one
    # enumeration, and each partition's problem, gamma and walk once. In
    # every format gamma is formatted once a partition (by _latex_rational
    # in latex) and each chi once, told apart by identity with the values
    # chow_class_closed and the walks returned
    calls, made, formatted = {}, {}, []

    def counting(name, kind=None):
        real = getattr(cli, name)

        def wrapper(*args):
            calls[name] = calls.get(name, 0) + 1
            value = real(*args)
            if kind == "formatted":
                formatted.append(args[0])
            elif kind is not None:
                made.setdefault(kind, []).extend(value if kind == "chi" else [value])
            return value

        return wrapper

    names = ("problem_from_partition", "chow_class_closed", "euler_theorem_genera", "strict_partitions")
    kinds = {"chow_class_closed": "gamma", "euler_theorem_genera": "chi"}
    for name in names:
        monkeypatch.setattr(cli, name, counting(name, kinds.get(name)))
    for name in ("format_rational", "_latex_rational"):
        monkeypatch.setattr(cli, name, counting(name, "formatted"))
    for fmt in ("plain", "json", "latex"):
        for record in (calls, made, formatted):
            record.clear()
        code, out, _ = run_cli(capsys, "table", "--g-max", "10", "--max-len", "5", "--output", fmt)
        rows = len(json.loads(out)["rows"]) if fmt == "json" else len(out.splitlines()) - (3 if fmt == "latex" else 1)
        assert code == 0 and rows == 109, fmt
        assert {name: calls[name] for name in names} == dict(zip(names, (32, 32, 32, 1))), fmt
        of = [next((kind for kind, values in made.items() if any(x is v for v in values)), "other") for x in formatted]
        assert {kind: of.count(kind) for kind in set(of)} == {"gamma": 32, "chi": 109}, fmt


def _latex_fraction(x):
    sign = "-" if x < 0 else ""
    return f"{sign}{abs(x.numerator)}" if x.denominator == 1 else f"{sign}\\frac{{{abs(x.numerator)}}}{{{x.denominator}}}"


def _table_by_rows(rows, fmt):
    # a table rendered from its rows (g, problem, gamma, chi) one at a time,
    # as table rendered it before it shared cells among a partition's rows
    if fmt == "json":
        entries = [
            {"g": g, "a": list(p.a), "lambda": list(p.lam), "gamma": str(gamma), "exponent": p.codim, "chi": str(chi)}
            for g, p, gamma, chi in rows
        ]
        meta = {"beta": "-1", "normalization": {"relation": "theta_prime = 2*xi"}, "convention_flags": []}
        return json.dumps({"rows": entries, "meta": {**meta, "versions": {"prymck": cli.__version__}}}, indent=2) + "\n"
    def commas(ints):
        return ",".join(map(str, ints))

    if fmt == "latex":
        lines = ["\\begin{tabular}{llllll}", "g & a & \\lambda & \\gamma & e & \\chi \\\\"]
        for g, p, gamma, chi in rows:
            lines.append(f"{g} & ({commas(p.a)}) & ({commas(p.lam)}) & {_latex_fraction(gamma)} & {p.codim} & {chi} \\\\")
        return "\n".join([*lines, "\\end{tabular}"]) + "\n"
    table = [("g", "a", "lambda", "gamma", "exp", "chi")]
    table += [(str(g), commas(p.a), commas(p.lam), str(gamma), str(p.codim), str(chi)) for g, p, gamma, chi in rows]
    widths = [max(len(row[c]) for row in table) for c in range(6)]
    return "".join("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() + "\n" for row in table)


def test_table_rows_equal_a_row_by_row_reference(capsys):
    # every table the caps allow, 225 (g_min, g_max, max_len) triples in
    # each format, against the rows built one at a time, each at its own
    # genus, and rendered one at a time; a strict partition of size at most
    # 9 has at most three parts, so max_len 3, 4 and 5 print the same rows,
    # and 135 of the tables differ
    def row(g, lam):
        p = prym_bn.problem_from_partition(g, lam)
        return g, p, prym_bn.chow_class_closed(lam), prym_bn.euler_theorem(p)

    reference = {
        (g, max_len): [row(g, lam) for lam in prym_bn.strict_partitions(g - 1, max_len, 2 * g - 2) if lam]
        for g in range(2, cli._TABLE_G_MAX + 1)
        for max_len in range(1, cli._TABLE_LEN_MAX + 1)
    }
    tables = 0
    for g_min in range(2, cli._TABLE_G_MAX + 1):
        for g_max in range(g_min, cli._TABLE_G_MAX + 1):
            for max_len in range(1, cli._TABLE_LEN_MAX + 1):
                rows = [r for g in range(g_min, g_max + 1) for r in reference[g, max_len]]
                for fmt in ("plain", "json", "latex"):
                    argv = ("table", "--g-min", str(g_min), "--g-max", str(g_max), "--max-len", str(max_len))
                    code, out, _ = run_cli(capsys, *argv, "--output", fmt)
                    assert code == 0 and out == _table_by_rows(rows, fmt), (argv, fmt)
                tables += 1
    assert tables == 225


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
    # each argv refused with one line naming the argument and its bad token
    cases = [
        (("chi", "--genus", "٤", "-r", "1", "--vanishing", "1,2"), "--genus", "٤"),
        (("chi", "--genus", "4", "-r", "1", "--vanishing", "١,٢"), "--vanishing", "١"),
        (("chi", "--genus", "4", "--vanishing", "1,٤"), "--vanishing", "٤"),
        (("class", "--genus", "4", "-r", "1", "--vanishing", "1_0,2"), "--vanishing", "1_0"),
        (("class", "--genus", "1_0", "--vanishing", "1,2"), "--genus", "1_0"),
        (("class", "--genus", " 4", "--vanishing", "1,2"), "--genus", " 4"),
        (("class", "--genus", "4.0", "--vanishing", "1,2"), "--genus", "4.0"),
        (("chi", "--genus", "4", "-r", "1.5", "--vanishing", "1,2"), "-r", "1.5"),
        (("chi", "--genus", "4", "-r", "０", "--vanishing", "1,2"), "-r", "０"),
        (("table", "--g-min", "2", "--g-max", "1_0"), "--g-max", "1_0"),
        (("table", "--g-min", "²"), "--g-min", "²"),
        (("table", "--max-len", "3\n"), "--max-len", "3\n"),
    ]
    for argv, name, token in cases:
        code, out, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert out == "", argv
        assert err == f"error: {name} must be an integer of ASCII digits (got {token!r})\n", (argv, err)


def test_integer_arguments_accept_signed_ascii(capsys):
    code, out, _ = run_cli(capsys, "chi", "--genus", "+4", "-r", "+1", "--vanishing", "1, 2")
    assert code == 0 and out.strip() == "2"
    code, out, _ = run_cli(capsys, "chi", "--genus", "4", "-r", "-1", "--vanishing", "01,2")
    assert code == 0 and out.strip() == "2"
    code, _, err = run_cli(capsys, "chi", "--genus", "-4", "--vanishing", "1,2")
    assert code == 2 and "genus" in err


def _parse_int_by_pattern(name, text):
    # the reference: _parse_int as a fullmatch of [+-]?[0-9]+, then int()
    if not re.fullmatch(r"[+-]?[0-9]+", text):
        raise prym_bn.ValidationError(f"{name} must be an integer of ASCII digits (got {text!r})")
    try:
        return int(text)
    except ValueError:
        raise prym_bn.ValidationError(f"{name} has {len(text)} characters, too many digits") from None


def _parse_int_outcome(parse, text):
    try:
        return parse("--genus", text)
    except prym_bn.ValidationError as exc:
        return f"ValidationError: {exc}"


_PARSE_INT_CORPUS = (
    "", "+", "-", "+-1", "--1", "-0", "+07", " 4", "4 ", "1_0", "٤", "²", "１", "\n1", "1\n", "0x1", "1e3", "9" * 5000
)


@pytest.mark.parametrize("text", _PARSE_INT_CORPUS, ids=lambda text: repr(text[:8]))
def test_parse_int_accepts_exactly_signed_ascii_digits(text):
    # _parse_int tests its digits with str methods, not a pattern: it must
    # accept what [+-]?[0-9]+ fullmatches and refuse the rest with the same text
    assert _parse_int_outcome(cli._parse_int, text) == _parse_int_outcome(_parse_int_by_pattern, text)


@given(st.text() | st.text(alphabet="+-0189 _٤"))
def test_parse_int_agrees_with_the_pattern_on_any_text(text):
    assert _parse_int_outcome(cli._parse_int, text) == _parse_int_outcome(_parse_int_by_pattern, text)


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
    # put over h!, h^2 steps each. The oracle's Pfaffian, expanded along
    # the first index with each sub-Pfaffian once, 87 products (where the
    # 105 matchings hold 3 each), cap^3 steps each, and the kernel priced
    # as 6 + 21 terms of cap^3 steps, its former first and second stages
    p = prym_bn.problem_from_partition(30, (7, 6, 5, 4, 3, 2, 1))
    assert cli._theorem_work(p) == (
        105 * (2 * 2**2 * 29 + 2 * 29) // cli._PRODUCT_STEPS_PER_UNIT
        + 21 * 3 * 29 // cli._PAIR_STEPS_PER_UNIT
        + 7 * 2 * 29 // cli._ROW_STEPS_PER_UNIT
        + 28 * 29**2 // cli._SCALED_STEPS_PER_UNIT
    )
    assert cli._oracle_work(p) == (
        87 * 29**3 // cli._PRODUCT_STEPS_PER_UNIT + (6 + 21) * 29**3 // cli._KERNEL_STEPS_PER_UNIT
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
    # still computes its zero: 3 products, one per matching, 2 + 3 kernel
    # terms
    p = prym_bn.problem_from_partition(10, (8, 3, 1))
    assert cli._theorem_work(p) == 0
    assert cli._oracle_work(p) == (
        3 * 9**3 // cli._PRODUCT_STEPS_PER_UNIT + (2 + 3) * 9**3 // cli._KERNEL_STEPS_PER_UNIT
    )
    # n = 2: the Pfaffian is its one entry and the theorem's lone series is
    # read at x^B, so no products; two parts are one entry, still priced as
    # the two cap^3 terms the kernel was fitted on, one part only the
    # boundary Fractions
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
    # the oracle's Pfaffian at g = 46 on the nine-part staircase takes 317
    # products of cap^3 = 45^3 steps; priced at a unit per coefficient
    # product it was 7,662,519 units and exited 2
    p = prym_bn.problem_from_partition(46, tuple(range(9, 0, -1)))
    assert cli._oracle_work(p) == (
        317 * 45**3 // cli._PRODUCT_STEPS_PER_UNIT + (8 + 36) * 45**3 // cli._KERNEL_STEPS_PER_UNIT
    )
    code, out, err = run_cli(capsys, "class", "-g", "46", "-a", staircase(9), "--beta", "-1")
    assert (code, err) == (0, "")
    assert out.startswith("problem: g=46 r=8 a=1,2,3,4,5,6,7,8,9 lambda=9,8,7,6,5,4,3,2,1 ")


def test_twelve_part_chi_verify_runs(capsys):
    # g = 80 on the twelve-part staircase: the oracle's Pfaffian takes 1,055
    # products, about 1.4 * 10^5 units in all, where multiplying out its
    # 51,975 matchings was priced at 3,280,988 units and exited 2
    p = prym_bn.problem_from_partition(80, tuple(range(12, 0, -1)))
    assert cli._oracle_work(p) + cli._theorem_work(p) < 1.5 * 10**5
    code, out, err = run_cli(capsys, "chi", "-g", "80", "-a", staircase(12), "--verify")
    assert (code, err) == (0, "")
    assert out == f"{prym_bn.euler_theorem(p)}\n"


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
    # dataclasses alone pulled in inspect, ast, dis, tokenize and linecache.
    # json is imported only when --output json prints, and the package's
    # patterns are compiled on first use (the JSON readers), not at import
    src = pathlib.Path(cli.__file__).resolve().parent.parent
    code = (
        "import re, sys; sys.path.insert(0, sys.argv[1]); before = set(sys.modules); "
        "import prymck.cli; print(' '.join(sorted(set(sys.modules) - before))); "
        "print(sorted(f'{name}.{key}' for name, module in sys.modules.items() if name.split('.')[0] == 'prymck' "
        "for key, value in vars(module).items() if isinstance(value, re.Pattern)))"
    )
    run = subprocess.run(
        [sys.executable, "-c", code, str(src)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert run.returncode == 0, run.stderr
    modules, patterns = run.stdout.splitlines()
    added = set(modules.split())
    assert "prymck.cli" in added
    forbidden = {"dataclasses", "inspect", "ast", "dis", "tokenize", "linecache"}
    forbidden |= {"json", "json.decoder", "json.encoder", "json.scanner", "_json"}
    assert not added & forbidden, added
    assert patterns == "[]"


def test_reference_commands_load_no_argparse():
    # well-formed argvs are read without argparse, whose import and first
    # parser build (gettext, locale and its regexes) cost a fresh process
    # more than a chi --verify pass; --version still goes through argparse.
    # json is loaded only once a --output json command prints, so the
    # commands reach the probe on stdin, the plain and latex ones first
    src = pathlib.Path(cli.__file__).resolve().parent.parent
    reference = pathlib.Path(__file__).resolve().parents[1] / "bench" / "reference.json"
    commands = list(json.loads(reference.read_text(encoding="utf-8")))
    json_commands = [command for command in commands if "--output json" in command]
    other_commands = [command for command in commands if "--output json" not in command]
    assert (len(other_commands), len(json_commands)) == (17, 11)
    code = """
import contextlib, io, sys
sys.path.insert(0, sys.argv[1])
import prymck.cli
for block in sys.stdin.read().split("\\n\\n"):
    with contextlib.redirect_stdout(io.StringIO()):
        codes = [prymck.cli.main(command.split()) for command in block.splitlines()]
    print(codes, [m for m in ("argparse", "gettext", "locale", "json") if m in sys.modules])
try:
    prymck.cli.main(["--version"])
except SystemExit as exc:
    print(repr(exc.code))
"""
    run = subprocess.run(
        [sys.executable, "-c", code, str(src)],
        input="\n".join(other_commands) + "\n\n" + "\n".join(json_commands),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == [
        f"{[0] * 17} []",
        f"{[0] * 11} ['json']",
        f"prymck {cli.__version__}",
        "0",
    ]
    assert run.stderr == ""


def test_commands_leave_no_reference_cycles():
    # every reference command and a few that prymck refuses, in one
    # process with the collector off: an object a command leaves in a
    # reference cycle stays alive until a collection, so after each
    # command a collection must find nothing. Argvs that argparse reads
    # (--help, usage errors) are exempt: argparse's own help and usage
    # objects form cycles
    src = pathlib.Path(cli.__file__).resolve().parent.parent
    reference = pathlib.Path(__file__).resolve().parents[1] / "bench" / "reference.json"
    commands = list(json.loads(reference.read_text(encoding="utf-8")))
    refused = [
        "chi --genus 6000 -r 1 -a 1,2",  # the work bound
        "class -g 631 -a 1,2 --beta -1",  # the work bound, by 188
        "chi -g 15001 -r 0 -a 2",  # the digit bound on chi
        "class -g 1500 -a 2 --beta -1",  # the digit bound on a coefficient
        "class --genus 1_0 --vanishing 1,2",  # not an integer
        "chi -g 4 -r -7 -a 1,2",  # refused by build_problem
    ]
    code = """
import contextlib, gc, io, sys
sys.path.insert(0, sys.argv[1])
import prymck.cli
gc.collect()
gc.disable()
for command in sys.stdin.read().splitlines():
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        exit_code = prymck.cli.main(command.split())
    print(exit_code, gc.collect())
"""
    run = subprocess.run(
        [sys.executable, "-c", code, str(src)],
        input="\n".join(commands + refused),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert run.returncode == 0, run.stderr
    got = dict(zip(commands + refused, run.stdout.splitlines()))
    assert got == {command: "0 0" for command in commands} | {command: "2 0" for command in refused}


def test_work_bound_counts_entry_kernel(capsys, monkeypatch):
    # class at beta -1 prices its kernel as l - 1 + l(l-1)/2 terms of cap^3
    # steps each: at g = 1000, lambda = (2, 1) that is 2 * 999^3 steps,
    # about 4 * 10^6 units
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


def test_pfaffian_products_step_the_binomial():
    # the stepped binomial gives the comb() sum term for term, and prices
    # 20,000 indices at once (a comb() a term took about 11 s there)
    for n in range(61):
        assert cli._pfaffian_products(n) == sum(comb(n - k, k) * (n - 2 * k - 1) for k in range(n // 2 - 1)), n
    start = time.perf_counter()
    assert cli._pfaffian_products(20000) > 10**4000
    assert time.perf_counter() - start < 1


def test_work_estimate_over_the_str_limit_is_refused_at_once(capsys, monkeypatch):
    # estimates of over 4300 digits are named by their power of ten, never
    # by str(), which refuses them (that exited 4 as an internal error)
    with pytest.raises(prym_bn.ValidationError, match=r"^problem too large: estimated work over 10\^4999 exceeds "):
        cli._check_work(10**5000)

    def never(*args):
        raise AssertionError("a route ran on a problem over the work bound")

    for name in ("euler_theorem", "class_result"):
        monkeypatch.setattr(cli, name, never)
    for argv in (
        ("class", "-g", "10501", "-a", staircase(21000), "--beta", "-1"),
        ("chi", "-g", "4501501", "-a", staircase(3000)),
    ):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 2, argv[0]
        assert code == 2 and out == "", argv[0]
        assert err.count("\n") == 1 and err.startswith("error: problem too large: estimated work over 10^"), err


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


def test_parser_is_built_once_and_keeps_no_state_between_commands(capsys):
    # argparse's parser is built once, on the first argv the reader
    # declines. Every reference command, run twice in one process with a
    # usage error and --version after each, prints its reference byte for
    # byte, and the help texts stay as they were
    assert cli._make_parser() is cli._make_parser()

    def exits(*argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        return exc.value.code, *capsys.readouterr()

    helps = [exits("--help"), exits("class", "--help")]
    usage_error = exits("chi", "--genus")
    assert usage_error[:2] == (2, "") and "--genus/-g: expected one argument" in usage_error[2]
    path = pathlib.Path(__file__).resolve().parents[1] / "bench" / "reference.json"
    reference = json.loads(path.read_text())
    assert len(reference) == 28
    for _ in range(2):
        for command, want in reference.items():
            assert run_cli(capsys, *command.split()) == (0, want, ""), command
            assert exits("chi", "--genus") == usage_error
            assert exits("--version") == (0, f"prymck {cli.__version__}\n", "")
    assert [exits("--help"), exits("class", "--help")] == helps


# option values _read_args takes, and tokens that argparse alone reads
_WELL_FORMED_VALUES = ("4", "12", "-1", "-7", "+3", "0", "0,1", "1,2,9", "1, 2", "a=b", "", "x y", "٤")
_ILL_FORMED_VALUES = ("-x", "-٤", "-1.5", "-", "--", "--genus", "xml", "-0x1")
_ODD_TOKENS = ("--", "-h", "--help", "--version", "--gen", "-g12", "--genus=12", "--output=json", "stray", "-", "chi")


def _argv_corpus(seed, count):
    # argvs built from cli._COMMANDS: every spelling of each subcommand's
    # options, in shuffled orders and with repeats, its values well formed
    # or not, values missing, required options left out, and now and then
    # a token only argparse reads put in at random
    rng = random.Random(seed)
    for _ in range(count):
        command = rng.choice(list(cli._COMMANDS))
        options = cli._COMMANDS[command][2]
        chosen = [option for option in options if rng.random() < (0.9 if option[2] is None else 0.5)]
        chosen += rng.choices(options, k=rng.randrange(3)) if options else []
        rng.shuffle(chosen)
        argv = [command]
        for spellings, _, _, choices, _ in chosen:
            argv.append(rng.choice(spellings))
            if choices == cli._FLAG:
                continue
            pick = rng.random()
            if pick < 0.75:
                argv.append(rng.choice(choices or _WELL_FORMED_VALUES))
            elif pick < 0.95:
                argv.append(rng.choice(_ILL_FORMED_VALUES))
        if rng.random() < 0.15:
            argv.insert(rng.randrange(len(argv) + 1), rng.choice(_ODD_TOKENS))
        yield argv


def test_reader_gives_the_fields_argparse_gives(capsys):
    # wherever _read_args reads an argv, argparse reads the same fields
    # from it, so main runs the same command whichever reader read it; the
    # forms _read_args declines are left to argparse, with its messages
    # and exit codes
    parser = cli._make_parser()
    accepted = 0
    for argv in _argv_corpus(20261020, 20000):
        fields = cli._read_args(argv)
        if fields is not None:
            accepted += 1
            assert vars(fields) == vars(parser.parse_args(argv)), argv
    assert 4000 < accepted < 16000
    problem = ["-g", "4", "-a", "1,2"]
    for argv in (
        [],
        ["--help"],
        ["-h"],
        ["--version"],
        ["chi"],
        ["chi", *problem, "-h"],
        ["chi", "--gen", "4", "-a", "1,2"],
        ["chi", "--genus=4", "-a", "1,2"],
        ["chi", "-g4", "-a", "1,2"],
        ["chi", *problem, "--"],
        ["chi", *problem, "stray"],
        ["chi", *problem, "-r"],
        ["chi", "-g", "-٤", "-a", "1,2"],
        ["class", *problem, "--beta", "1"],
        ["selfcheck", "--quick"],
        ["chi", "-g", 4, "-a", "1,2"],
    ):
        assert cli._read_args(argv) is None, argv
    # the benchmark's commands take the reader's path
    path = pathlib.Path(__file__).resolve().parents[1] / "bench" / "reference.json"
    for command in json.loads(path.read_text()):
        fields = cli._read_args(command.split())
        assert fields is not None and vars(fields) == vars(parser.parse_args(command.split())), command
    assert capsys.readouterr() == ("", "")


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


def test_class_refuses_exactly_the_classes_it_cannot_print(capsys, monkeypatch):
    # with str() limits of a few digits, every beta mode and format of class
    # exits 2 with nothing on stdout exactly when a rational that plain or
    # json prints has more than limit digits, and 0 otherwise
    def printed(p, beta):
        if beta == "0":
            gamma = prym_bn.chow_class_closed(p.lam)
            return [gamma, gamma * 2**p.codim]
        coeffs = [Fraction(c) for c in prym_bn.ch_k_class(p).coeffs]
        # symbolic prints the theta' coefficients up to sign, -1 their xi forms too
        return coeffs if beta == "symbolic" else coeffs + [c * 2**d for d, c in enumerate(coeffs)]

    outcomes = set()
    for p in selfcheck._suite_problems(6):
        argv = ("class", "-g", str(p.g), "-r", str(p.r), "-a", ",".join(map(str, p.a)))
        for beta in ("0", "-1", "symbolic"):
            size = max(decimal_digits(n) for x in printed(p, beta) for n in (abs(x.numerator), x.denominator))
            for limit in (1, 2, 3, 6):
                monkeypatch.setattr(cli, "_str_limit", lambda: limit)
                refused = size > limit
                outcomes.add((beta, refused))
                for fmt in ("plain", "json", "latex"):
                    code, out, err = run_cli(capsys, *argv, "--beta", beta, "--output", fmt)
                    assert (code, out == "") == ((2, True) if refused else (0, False)), (p, beta, limit, fmt)
                    assert (err == "") != refused, (p, beta, limit, fmt)
    assert len(outcomes) == 6


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
            shown = [*value.coeffs, *cli._xi_coeffs(value)]
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
            value = prym_bn.ch_k_class(p)
            shown = [*value.coeffs, *cli._xi_coeffs(value)]
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
