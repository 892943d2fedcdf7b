"""Command line interface: single problems, batch tables, self checks.

Exit codes: 0 success, 1 selfcheck failure, 2 input validation failure
(a problem whose estimated work exceeds _WORK_MAX, or whose output has
more digits than str() converts, included), 3 Euler characteristic
route mismatch under --verify, 4 internal error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction
from math import comb, lgamma, log, prod

from . import __version__, selfcheck
from .exact_arith import format_rational
from .prym_bn import (
    SYMBOLIC,
    ValidationError,
    build_problem,
    chow_class_closed,
    class_result,
    euler_oracle,
    euler_theorem,
    problem_from_partition,
    strict_partitions,
)
from .series_ring import BetaPoly, ThetaPoly

# each beta mode of class: the kind its output names and its convention flags
_MODES = {
    0: ("cohomology", ()),
    -1: ("chern_character_K", ()),
    SYMBOLIC: ("connective", ("engine-convention-symbolic-beta",)),
}
_BETA_CHOICES = {str(beta): beta for beta in _MODES}
# the fields of a json result, None where its kind has none
_RESULT_FIELDS = ("kind", "gamma", "exponent", "theta_poly", "chi")
_TABLE_G_MAX = 10
_TABLE_LEN_MAX = 5
_INT_RE = re.compile(r"[+-]?[0-9]+")
# largest estimated work (see _theorem_work, _oracle_work) a class or chi
# command starts on; a unit is about 10^-4 s, so near it a command runs
# for about 100 s on a 2-vCPU VM
_WORK_MAX = 10**6
# series product steps per unit of work, a product of two series truncated
# at degree B counting (B + 1)^2 coefficient products of ints of about h
# bits, h = g - 1 (cap^3 at the oracle's cap = h): ch_k_class at g = 200,
# lambda = (8, ..., 1) takes 105 * 3 * 199^3 of them in its Pfaffian in
# about 28 s, about 9,000 to a unit, and 96,000 at g = 46 on the nine-part
# staircase, where the Pfaffian takes 0.36 s; euler_theorem at g = 120 on
# the eight-part staircase takes 105 * (2 * 84^2 + 84) * 119, two products
# and a dot product a matching, in about 1 s, 18,000
_PRODUCT_STEPS_PER_UNIT = 8000
# theorem pair series steps per unit, each of the C(B + 2, 2) terms of a
# pair of parts counting h steps: euler_theorem at g = 6000,
# lambda = (2, 1) takes C(5999, 2) * 5999 of them in about 47 s, 230,000
# to a unit, and at g = 3000, lambda = (1500, 1000, 1), where the Abel rows
# hold larger ints, 3 * C(500, 2) * 2999 in about 2.5 s, 45,000 to a unit
_PAIR_STEPS_PER_UNIT = 5 * 10**4
# theorem Abel row steps per unit, each of the l rows counting B + 1 ints of
# up to about 2h bits as (B + 1) * h: set by their memory rather than
# their time, as from two parts on every row is held whole; one row of
# 20000 * 39999 steps held whole took a peak of 108 MiB, so at the bound
# the rows hold about 130 MiB
_ROW_STEPS_PER_UNIT = 1000
# steps of the one-part Abel walk per unit, counted as a row's (B + 1) * h
# but priced by time, as the walk holds one value at a time (15 MiB peak):
# euler_theorem at g = 50000, lambda = (25000) takes 25000 * 49999 steps in
# about 0.37 s, 3.4 * 10^5 to a unit, and 3.1 * 10^5 at g = 100000,
# lambda = (50000) (1.6 s), where the ints are largest for their genus; at
# lambda = (1) the ints stay small (g = 50000: 0.01 s)
_WALK_STEPS_PER_UNIT = 25 * 10**4
# steps on h!-scaled ints per unit of work, from four indices on, each of the
# C(n, 2) pair series counting h^2 for its factorial quotient:
# euler_theorem at g = 100000, lambda = (99990, 3, 2, 1) takes 6 * 99999^2
# in about 1.4 s, about 4 * 10^6 to a unit
_SCALED_STEPS_PER_UNIT = 2 * 10**6
# entry kernel steps per unit of work, a first or second stage counting
# cap^3: ch_k_class at g = 601, lambda = (2, 1) takes its two stages,
# 2 * 600^3 steps, in about 56 s, about 770 to a unit; a step slows as the
# ints grow with the cap (1,900 to a unit at cap 150, 650 at 700), and two
# parts reach the bound at cap 630
_KERNEL_STEPS_PER_UNIT = 500
# steps of the one-part class per unit of work, cap^3 in all for its cap + 1
# boundary Fractions: ch_k_class at g = 12001, lambda = (20) takes 12000^3
# of them in about 30 s, about 5.7 * 10^6 to a unit
_BOUNDARY_STEPS_PER_UNIT = 2 * 10**6


def _parse_int(name: str, text: str) -> int:
    # int() alone would also take "1_0", " 4" and non-ASCII digits such as "٤"
    if not _INT_RE.fullmatch(text):
        raise ValidationError(f"{name} must be an integer of ASCII digits (got {text!r})")
    try:
        return int(text)
    except ValueError:  # more digits than int() converts
        raise ValidationError(f"{name} has {len(text)} characters, too many digits") from None


def _problem(args):
    a = tuple(_parse_int("--vanishing", tok.strip(" ")) for tok in args.vanishing.split(","))
    g = _parse_int("--genus", args.genus)
    r = _parse_int("-r", args.r)
    return build_problem(g, len(a) - 1 if r == -1 else r, a)


def _matchings(problem) -> int:
    n = problem.ell + problem.ell % 2
    return prod(range(1, n, 2))  # (n-1)!!


def _theorem_work(problem) -> int:
    """Work of euler_theorem, the pair series sum, with h = g - 1, degree
    budget B = h - |lambda| and n the number of parts rounded up to even;
    0 when B < 0.

    The series products: (n-1)!! signed matchings of n/2 - 2 products
    and one x^B dot product each (none when n = 2, where the lone series
    is read at x^B), a product counting (B + 1)^2 coefficient products of
    ints of about h bits, so (B + 1)^2 * h steps, and the dot product
    (B + 1) * h, _PRODUCT_STEPS_PER_UNIT to a unit.
    Plus the pair series: each of the l(l-1)/2 pairs of parts sums
    C(B + 2, 2) terms, h steps each, _PAIR_STEPS_PER_UNIT to a unit (a
    pair with the boundary index 0 reads its Abel row as it is). Plus the
    l Abel rows of B + 1 ints, (B + 1) * h steps each,
    _ROW_STEPS_PER_UNIT to a unit. Plus, from four indices on, where the
    series are put over h!, the factorial quotient of each of the
    n(n-1)/2 pair series, h^2 steps each, _SCALED_STEPS_PER_UNIT to a
    unit. One part is its Abel walk alone, (B + 1) * h steps,
    _WALK_STEPS_PER_UNIT to a unit, rounded up so that no walk is free."""
    budget = problem.dim_prym - problem.codim
    if budget < 0:
        return 0
    h, ell = problem.dim_prym, problem.ell
    if ell == 1:
        return -(-(budget + 1) * h // _WALK_STEPS_PER_UNIT)
    n = ell + ell % 2
    per_matching = (n // 2 - 2) * (budget + 1) ** 2 * h + (budget + 1) * h if n >= 4 else 0
    products = _matchings(problem) * per_matching
    pairs = comb(ell, 2) * comb(budget + 2, 2) * h
    rows = ell * (budget + 1) * h
    scaled = comb(n, 2) * h**2 if n >= 4 else 0
    return (
        products // _PRODUCT_STEPS_PER_UNIT
        + pairs // _PAIR_STEPS_PER_UNIT
        + rows // _ROW_STEPS_PER_UNIT
        + scaled // _SCALED_STEPS_PER_UNIT
    )


def _oracle_work(problem) -> int:
    """Work of ch_k_class at cap = g - 1, for the oracle and for class at
    beta -1 or symbolic.

    The Pfaffian: (n-1)!! signed matchings of n/2 - 1 products each, of
    two truncated int series, cap^3 steps a product (cap^2 coefficient
    products of ints of about cap bits), _PRODUCT_STEPS_PER_UNIT to a
    unit; none when n = 2, where the Pfaffian is its one entry. Plus the
    entry kernel: l - 1 first stages, one per i-side prefactor row, and
    l(l-1)/2 second stages, one per entry, cap^3 steps each,
    _KERNEL_STEPS_PER_UNIT to a unit. Plus, at one part, the cap + 1
    boundary Fractions, cap^3 steps in all, _BOUNDARY_STEPS_PER_UNIT to a
    unit."""
    cap, ell = problem.dim_prym, problem.ell
    products = _matchings(problem) * max(0, (ell + 1) // 2 - 1) * cap**3
    stages = ell - 1 + comb(ell, 2) if ell > 1 else 0
    boundary = cap**3 // _BOUNDARY_STEPS_PER_UNIT if ell == 1 else 0
    return (
        products // _PRODUCT_STEPS_PER_UNIT
        + stages * cap**3 // _KERNEL_STEPS_PER_UNIT
        + boundary
    )


def _gamma_too_long(lam, limit: int) -> bool:
    """Whether gamma = chow_class_closed(lam) surely has a denominator of
    more than limit digits. Its reduced numerator is a nonzero integer, so
    the denominator is at least 1 / |gamma| = 2^l * prod lambda_i! *
    prod_{i<j} (lambda_i + lambda_j) / (lambda_i - lambda_j). Sums the logs
    of those factors, all positive, and stops once past limit + 1 digits
    (the one digit of slack covers the float rounding); the factorials
    alone pass it long before the l^2 / 2 pairs grow many. Parts are
    capped at 2^1000 so that they convert to floats: still a lower bound."""
    stop = (limit + 1) * log(10)
    size = len(lam) * log(2) + sum(lgamma(min(p, 2**1000) + 1) for p in lam)
    for i, p in enumerate(lam):
        if size > stop:
            break
        size += sum(log((p + q) / (p - q)) for q in lam[i + 1 :])
    return size > stop


def _chi_too_long(problem, limit: int) -> bool:
    """Whether a one-part chi surely has more than limit digits. At
    lambda = (k), 2 <= k <= h = g - 1, the Abel sum's exponent s = 1 - k
    is at most 0, so all its terms have one sign and
    |chi| >= 2^(h-1) * C(h-2, k-2). Sums the logs with lgamma, with one
    digit of slack for the float rounding, as _gamma_too_long does."""
    h = problem.dim_prym
    if problem.ell != 1 or not 2 <= problem.lam[0] <= h:
        return False
    k = problem.lam[0]
    size = (h - 1) * log(2) + lgamma(h - 1) - lgamma(k - 1) - lgamma(h - k + 1)
    return size > (limit + 1) * log(10)


def _class_too_long(problem, limit: int) -> bool:
    """Whether a one-part class at beta != 0 surely has a coefficient of
    more than limit digits. At lambda = (k), k <= cap = g - 1, the top
    theta' coefficient is a_v / (2^(v+1) * cap!), v = cap - k, and as
    s = 1 - k <= 0, |a_v| <= 2^v * C(cap - 1, k - 1): its reduced
    denominator is at least 2 * cap! / C(cap - 1, k - 1) =
    2 * cap * (k - 1)! * (cap - k)!. Sums the logs with lgamma, with one
    digit of slack, as _gamma_too_long does. Symbolic prints the same
    rationals."""
    cap = problem.dim_prym
    if problem.ell != 1 or problem.lam[0] > cap:
        return False
    k = problem.lam[0]
    size = log(2 * cap) + lgamma(k) + lgamma(cap - k + 1)
    return size > (limit + 1) * log(10)


def _check_work(work: int) -> None:
    if work > _WORK_MAX:
        # work >= 2^(bits - 1), and str() refuses ints of over 4300 digits
        shown = str(work)
        if work >= 10**18:
            shown = f"over 10^{(work.bit_length() - 1) * 30103 // 100000}"
        raise ValidationError(f"problem too large: estimated work {shown} exceeds {_WORK_MAX}")


def _str_limit() -> int:
    """The most digits str() converts from an int. Where that limit is
    lifted (0) or absent (before Python 3.10.7), CPython's default of 4300,
    so that what prymck prints stays bounded."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    return limit or getattr(sys.int_info, "default_max_str_digits", 4300)


def _check_digits(what: str, rationals, limit: int) -> None:
    """Refuse (exit 2) before printing when a numerator or denominator of
    rationals has more than limit digits; under 3 * limit bits is under
    10^limit."""
    ints = [n for x in rationals for n in (abs(x.numerator), x.denominator)]
    if any(n.bit_length() > 3 * limit and n >= 10**limit for n in ints):
        raise ValidationError(f"problem too large: {what} has more than {limit} digits")


# ---------------------------------------------------------------- rendering


def _poly_strings(poly: ThetaPoly):
    return [format_rational(c) for c in poly.coeffs]


def _xi_coeffs(poly: ThetaPoly):
    # theta' = 2*xi, so the xi-basis coefficient of degree d gains 2^d
    return [Fraction(c) * 2**d for d, c in enumerate(poly.coeffs)]


def _problem_block(p):
    return {
        "g": p.g,
        "r": p.r,
        "a": list(p.a),
        "lambda": list(p.lam),
        "parity": p.parity,
        "expected_empty": p.expected_empty,
    }


def _meta_block(beta_label, flags, normalization):
    return {
        "beta": beta_label,
        "normalization": normalization,
        "convention_flags": list(flags),
        "versions": {"prymck": __version__},
    }


def _json_document(problem, result, beta, flags, normalization):
    return {
        "problem": _problem_block(problem),
        "result": {field: result.get(field) for field in _RESULT_FIELDS},
        "meta": _meta_block(str(beta), flags, normalization),
    }


def _result_json(problem, beta, value):
    kind, flags = _MODES[beta]
    normalization = {"basis": "theta_prime", "relation": "theta_prime = 2*xi"}
    if beta == 0:
        result = {"kind": kind, "gamma": format_rational(value), "exponent": problem.codim}
        normalization["gamma_xi"] = format_rational(value * 2**problem.codim)
    else:
        result = {"kind": kind, "theta_poly": value.to_json_dict()}
        if beta != SYMBOLIC:
            normalization["xi_coeffs"] = [format_rational(c) for c in _xi_coeffs(value)]
    return _json_document(problem, result, beta, flags, normalization)


def _chi_json(problem, chi):
    result = {"kind": "euler_characteristic", "chi": format_rational(chi)}
    return _json_document(problem, result, -1, (), {"relation": "theta_prime = 2*xi"})


def _latex_rational(x: Fraction) -> str:
    x = Fraction(x)
    sign = "-" if x < 0 else ""
    x = abs(x)
    if x.denominator == 1:
        return f"{sign}{x.numerator}"
    return f"{sign}\\frac{{{x.numerator}}}{{{x.denominator}}}"


def _latex_beta_poly(c: BetaPoly) -> str:
    parts = []
    for e, val in c.items():
        body = _latex_rational(val)
        if e == 1:
            body += "\\beta"
        elif e > 1:
            body += f"\\beta^{{{e}}}"
        parts.append(body if not parts or body.startswith("-") else f"+{body}")
    return "".join(parts) if parts else "0"


def _latex_poly(poly: ThetaPoly) -> str:
    terms = []
    for d, c in enumerate(poly.coeffs):
        if not c:
            continue
        if isinstance(c, BetaPoly):
            coeff = f"\\left({_latex_beta_poly(c)}\\right)"
        else:
            coeff = _latex_rational(c)
        term = coeff if d == 0 else f"{coeff}(\\theta')^{{{d}}}"
        terms.append(term if not terms or term.startswith("-") else f"+{term}")
    return "".join(terms) if terms else "0"


def _problem_line(p) -> str:
    a = ",".join(str(x) for x in p.a)
    lam = ",".join(str(x) for x in p.lam) if p.lam else "()"
    empty = "yes" if p.expected_empty else "no"
    return f"problem: g={p.g} r={p.r} a={a} lambda={lam} parity={p.parity} expected_empty={empty}"


def _emit_class_plain(problem, beta, value):
    kind, flags = _MODES[beta]
    print(_problem_line(problem))
    flag = f" [{', '.join(flags)}]" if flags else ""
    print(f"kind: {kind} (beta={beta}){flag}")
    if beta == 0:
        gamma, e = format_rational(value), problem.codim
        print(f"gamma: {gamma}")
        print(f"exponent: {e}")
        print(f"class: ({gamma})*(2xi)^{e} = ({format_rational(value * 2**e)})*xi^{e}")
    elif beta == SYMBOLIC:
        print("theta_poly (T = theta' = 2xi, b = beta):")
        for d, c in enumerate(value.coeffs):
            if c:
                print(f"  T^{d}: {c}")
        if not value:
            print("  0")
    else:
        print(f"theta_poly: {', '.join(_poly_strings(value))}  (T^0..T^{value.cap}; T = theta' = 2xi)")
        xi = ", ".join(format_rational(c) for c in _xi_coeffs(value))
        print(f"xi_poly: {xi}")


def _emit_class_latex(problem, beta, value):
    if beta != 0:
        print(_latex_poly(value))
    elif problem.codim == 0:
        print(_latex_rational(value))
    else:
        print(f"{_latex_rational(value)}(2\\xi)^{{{problem.codim}}}")


def _shown_rationals(problem, beta, value):
    """The rationals that plain and json print for a class: gamma and its
    xi form, the theta' and xi coefficients, or the symbolic coefficients'
    rationals."""
    if beta == 0:
        return [value, value * 2**problem.codim]
    if beta == SYMBOLIC:
        # the other coefficients are the int 0, or the 1 of the empty partition
        return [x for c in value.coeffs if isinstance(c, BetaPoly) for _, x in c.items()]
    return [*value.coeffs, *_xi_coeffs(value)]


def run_class(args) -> int:
    problem = _problem(args)
    beta = _BETA_CHOICES[args.beta]
    what = "gamma" if beta == 0 else "a coefficient"
    limit = _str_limit()
    if beta != 0:
        _check_work(_oracle_work(problem))
        too_long = _class_too_long(problem, limit)
    else:
        # beta 0 is the closed product, whatever the genus; only its size is bounded
        too_long = _gamma_too_long(problem.lam, limit)
    if too_long:
        raise ValidationError(f"problem too large: {what} has more than {limit} digits")
    value = class_result(problem, beta)
    # the exact check on what plain and json print (latex: a subset)
    _check_digits(what, _shown_rationals(problem, beta, value), limit)
    if args.output == "json":
        print(json.dumps(_result_json(problem, beta, value), indent=2))
    elif args.output == "latex":
        _emit_class_latex(problem, beta, value)
    else:
        _emit_class_plain(problem, beta, value)
    return 0


def run_chi(args) -> int:
    problem = _problem(args)
    _check_work(_theorem_work(problem) + (_oracle_work(problem) if args.verify else 0))
    limit = _str_limit()
    if _chi_too_long(problem, limit):
        raise ValidationError(f"problem too large: chi has more than {limit} digits")
    chi = euler_theorem(problem)
    _check_digits("chi", [chi], limit)
    if args.verify:
        other = euler_oracle(problem)
        if chi != other:
            print(
                f"error: route mismatch: theorem={chi} oracle={other}",
                file=sys.stderr,
            )
            return 3
    if args.output == "json":
        print(json.dumps(_chi_json(problem, chi), indent=2))
    else:  # plain and latex both print the bare integer
        print(format_rational(chi))
    return 0


def _table_rows(g_min, g_max, max_len):
    rows = []
    for g in range(g_min, g_max + 1):
        for lam in strict_partitions(g - 1, max_len, 2 * g - 2):
            if lam:
                rows.append((g, lam))
    return rows


def _table_entry(g, lam):
    p = problem_from_partition(g, lam)
    return {
        "g": g,
        "a": list(p.a),
        "lambda": list(lam),
        "gamma": format_rational(chow_class_closed(lam)),
        "exponent": p.codim,
        "chi": format_rational(euler_theorem(p)),
    }


def run_table(args) -> int:
    g_min = _parse_int("--g-min", args.g_min)
    g_max = _parse_int("--g-max", args.g_max)
    max_len = _parse_int("--max-len", args.max_len)
    if not (2 <= g_min <= g_max):
        raise ValidationError(
            f"table genus range must satisfy 2 <= g_min <= g_max (got {g_min}..{g_max})"
        )
    if g_max > _TABLE_G_MAX:
        raise ValidationError(f"g_max exceeds {_TABLE_G_MAX} (got {g_max})")
    if not (1 <= max_len <= _TABLE_LEN_MAX):
        raise ValidationError(f"max_len must be between 1 and {_TABLE_LEN_MAX} (got {max_len})")
    entries = [_table_entry(g, lam) for g, lam in _table_rows(g_min, g_max, max_len)]
    if args.output == "json":
        print(json.dumps({"rows": entries, "meta": _meta_block("-1", (), {"relation": "theta_prime = 2*xi"})}, indent=2))
        return 0
    if args.output == "latex":
        print("\\begin{tabular}{llllll}")
        print("g & a & \\lambda & \\gamma & e & \\chi \\\\")
        for e in entries:
            a = ",".join(str(x) for x in e["a"])
            lam = ",".join(str(x) for x in e["lambda"])
            print(
                f"{e['g']} & ({a}) & ({lam}) & {_latex_rational(Fraction(e['gamma']))} & "
                f"{e['exponent']} & {e['chi']} \\\\"
            )
        print("\\end{tabular}")
        return 0
    header = ("g", "a", "lambda", "gamma", "exp", "chi")
    table = [header]
    for e in entries:
        table.append(
            (
                str(e["g"]),
                ",".join(str(x) for x in e["a"]),
                ",".join(str(x) for x in e["lambda"]),
                e["gamma"],
                str(e["exponent"]),
                e["chi"],
            )
        )
    widths = [max(len(row[c]) for row in table) for c in range(len(header))]
    for row in table:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    return 0


# ------------------------------------------------------------------ parsing


def _add_problem_args(sub):
    sub.add_argument("--genus", "-g", required=True, help="genus of the base curve")
    sub.add_argument("-r", default="-1", help="rank bound; -1, the default, means len(a)-1")
    sub.add_argument(
        "--vanishing",
        "-a",
        required=True,
        help="comma-separated vanishing sequence, e.g. 0,1",
    )


def _make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prymck",
        description=(
            "Exact classes and Euler characteristics of pointed Brill-Noether "
            "loci on Prym varieties."
        ),
    )
    parser.add_argument("--version", action="version", version=f"prymck {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p_class = subs.add_parser("class", help="compute a class")
    _add_problem_args(p_class)
    p_class.add_argument("--beta", choices=sorted(_BETA_CHOICES), default="0")
    p_class.add_argument("--output", choices=("plain", "json", "latex"), default="plain")
    p_class.set_defaults(run=run_class)

    p_chi = subs.add_parser("chi", help="compute the Euler characteristic")
    _add_problem_args(p_chi)
    p_chi.add_argument("--verify", action="store_true", help="cross-run both routes")
    p_chi.add_argument("--output", choices=("plain", "json", "latex"), default="plain")
    p_chi.set_defaults(run=run_chi)

    p_table = subs.add_parser("table", help="batch table over a genus range")
    p_table.add_argument("--g-min", default="2")
    p_table.add_argument("--g-max", default="5")
    p_table.add_argument("--max-len", default="3")
    p_table.add_argument("--output", choices=("plain", "json", "latex"), default="plain")
    p_table.set_defaults(run=run_table)

    p_check = subs.add_parser("selfcheck", help="run the invariant suite")
    p_check.set_defaults(run=lambda args: selfcheck.run())

    return parser


def main(argv=None) -> int:
    args = _make_parser().parse_args(argv)
    try:
        return args.run(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a fault in prymck itself, not in the input
        detail = " ".join(f"{type(exc).__name__}: {exc}".split())
        print(f"error: internal: {detail}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
