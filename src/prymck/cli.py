"""Command line interface: single problems, batch tables, self checks.

Exit codes: 0 success, 1 selfcheck failure, 2 input validation failure
(a problem whose estimated work exceeds _WORK_MAX included), 3 Euler
characteristic route mismatch under --verify, 4 internal error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import dataclass
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

_BETA_CHOICES = {"0": 0, "-1": -1, "symbolic": SYMBOLIC}
_TABLE_G_MAX = 10
_TABLE_LEN_MAX = 5
_INT_RE = re.compile(r"[+-]?[0-9]+")
# largest estimated work (see _theorem_work, _oracle_work) a class or chi
# command starts on; near it, class --beta -1 takes about 100 s at
# g = 1000, lambda = (1) on a 2-vCPU VM
_WORK_MAX = 10**6
# binom_gen factors per unit of work: chi --genus 1000 -r 0 -a 1 multiplies
# C(1000, 3) of them in about 30 s, where a unit is about 10^-4 s
_ABEL_FACTORS_PER_UNIT = 500


@dataclass(frozen=True)
class RunRequest:
    """Parsed invocation; mirrors the problem validation done downstream."""

    command: str
    output: str = "plain"
    g: int = 0
    r: int = -1
    a: tuple = ()
    beta: object = 0
    verify: bool = False
    g_min: int = 2
    g_max: int = 2
    max_len: int = 1
    quick: bool = False


def _parse_int(name: str, text: str) -> int:
    # int() alone would also take "1_0", " 4" and non-ASCII digits such as "٤"
    if not _INT_RE.fullmatch(text):
        raise ValidationError(f"{name} must be an integer of ASCII digits (got {text!r})")
    try:
        return int(text)
    except ValueError:  # more digits than int() converts
        raise ValidationError(f"{name} has {len(text)} characters, too many digits") from None


def _parse_vanishing(text: str) -> tuple:
    return tuple(_parse_int("--vanishing", tok.strip(" ")) for tok in text.split(","))


def _build(req: RunRequest):
    r = req.r if req.r >= 0 else len(req.a) - 1
    return build_problem(req.g, r, req.a)


def _matchings(problem) -> int:
    n = problem.ell + problem.ell % 2
    return prod(range(1, n, 2))  # (n-1)!!


def _theorem_work(problem) -> int:
    """(n-1)!! signed matchings times the (v, f) pairs with |v| + |f| at
    most the degree budget B: v over the l parts, f over the l // 2 pair
    slots that carry degree. That also bounds the v sequences visited and
    the degrees read per pair.

    Plus the g_coeff cost: for each pair i < j of parts (the boundary
    index 0 reads degree 0 alone), the (m, n_i, n_j) keys times the n_j
    terms each sums, that is sum over v_j = 0..B of
    (lambda_j + v_j + 1) * C(B - v_j + 2, 2), in closed form
    (lambda_j + B + 1) * C(B + 3, 3) - 3 * C(B + 3, 4).

    Plus the Abel prefactor cost: abel_coefficient(s_i, v) for v = 0..B on
    each of the l parts, where binom_gen multiplies v - k factors for each
    k = 0..v, so l * C(B + 2, 3) factors in all, _ABEL_FACTORS_PER_UNIT to
    a unit. 0 when B < 0."""
    budget = problem.dim_prym - problem.codim
    if budget < 0:
        return 0
    dims = problem.ell + problem.ell // 2
    keys = comb(budget + 3, 3)
    per_pair = sum(
        j * ((lam_j + budget + 1) * keys - 3 * comb(budget + 3, 4))
        for j, lam_j in enumerate(problem.lam)
    )
    abel = problem.ell * comb(budget + 2, 3) // _ABEL_FACTORS_PER_UNIT
    return _matchings(problem) * comb(budget + dims, dims) + per_pair + abel


def _oracle_work(problem) -> int:
    """(n-1)!! signed matchings times cap^2: one Pfaffian of truncated
    series of cap = g - 1 for the oracle and for class at beta -1 or
    symbolic."""
    return _matchings(problem) * problem.dim_prym**2


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


def _check_work(work: int) -> None:
    if work > _WORK_MAX:
        # work >= 2^(bits - 1), and str() refuses ints of over 4300 digits
        shown = str(work)
        if work >= 10**18:
            shown = f"over 10^{(work.bit_length() - 1) * 30103 // 100000}"
        raise ValidationError(f"problem too large: estimated work {shown} exceeds {_WORK_MAX}")


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


def _result_json(res):
    normalization = {"basis": "theta_prime", "relation": "theta_prime = 2*xi"}
    block = {
        "kind": res.kind,
        "gamma": None,
        "exponent": None,
        "theta_poly": None,
        "chi": None,
    }
    if res.kind == "cohomology":
        block["gamma"] = format_rational(res.gamma)
        block["exponent"] = res.exponent
        normalization["gamma_xi"] = format_rational(res.gamma * 2**res.exponent)
    else:
        block["theta_poly"] = res.poly.to_json_dict()
        if res.beta != SYMBOLIC:
            normalization["xi_coeffs"] = [format_rational(c) for c in _xi_coeffs(res.poly)]
    return {
        "problem": _problem_block(res.problem),
        "result": block,
        "meta": _meta_block(str(res.beta), res.flags, normalization),
    }


def _chi_json(problem, chi):
    return {
        "problem": _problem_block(problem),
        "result": {
            "kind": "euler_characteristic",
            "gamma": None,
            "exponent": None,
            "theta_poly": None,
            "chi": format_rational(chi),
        },
        "meta": _meta_block("-1", (), {"relation": "theta_prime = 2*xi"}),
    }


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


def _emit_class_plain(res, out):
    out(_problem_line(res.problem))
    flag = f" [{', '.join(res.flags)}]" if res.flags else ""
    out(f"kind: {res.kind} (beta={res.beta}){flag}")
    if res.kind == "cohomology":
        out(f"gamma: {format_rational(res.gamma)}")
        out(f"exponent: {res.exponent}")
        gx = format_rational(res.gamma * 2**res.exponent)
        out(f"class: ({format_rational(res.gamma)})*(2xi)^{res.exponent} = ({gx})*xi^{res.exponent}")
    elif res.beta == SYMBOLIC:
        out("theta_poly (T = theta' = 2xi, b = beta):")
        for d, c in enumerate(res.poly.coeffs):
            if c:
                out(f"  T^{d}: {c}")
        if not res.poly:
            out("  0")
    else:
        out(f"theta_poly: {', '.join(_poly_strings(res.poly))}  (T^0..T^{res.poly.cap}; T = theta' = 2xi)")
        xi = ", ".join(format_rational(c) for c in _xi_coeffs(res.poly))
        out(f"xi_poly: {xi}")


def _emit_class_latex(res, out):
    if res.kind == "cohomology":
        gamma = Fraction(res.gamma)
        if res.exponent == 0:
            out(_latex_rational(gamma))
        else:
            out(f"{_latex_rational(gamma)}(2\\xi)^{{{res.exponent}}}")
    else:
        out(_latex_poly(res.poly))


def run_class(req: RunRequest, out) -> int:
    problem = _build(req)
    # the most digits str() converts from an int: 0 for no limit, as before Python 3.10.7
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    too_long = f"problem too large: gamma has more than {limit} digits"
    if req.beta != 0:
        _check_work(_oracle_work(problem))
    elif limit and _gamma_too_long(problem.lam, limit):
        # beta 0 is the closed product, whatever the genus; only its size is bounded
        raise ValidationError(too_long)
    res = class_result(problem, req.beta)
    if res.kind == "cohomology" and limit:
        # the exact check on what plain and json print (latex: gamma alone);
        # under 3 * limit bits is under 10^limit
        shown = (res.gamma, res.gamma * 2**res.exponent)
        ints = [n for x in shown for n in (abs(x.numerator), x.denominator)]
        if any(n.bit_length() > 3 * limit and n >= 10**limit for n in ints):
            raise ValidationError(too_long)
    if req.output == "json":
        out(json.dumps(_result_json(res), indent=2))
    elif req.output == "latex":
        _emit_class_latex(res, out)
    else:
        _emit_class_plain(res, out)
    return 0


def run_chi(req: RunRequest, out) -> int:
    problem = _build(req)
    _check_work(_theorem_work(problem) + (_oracle_work(problem) if req.verify else 0))
    chi = euler_theorem(problem)
    if req.verify:
        other = euler_oracle(problem)
        if chi != other:
            print(
                f"error: route mismatch: theorem={chi} oracle={other}",
                file=sys.stderr,
            )
            return 3
    if req.output == "json":
        out(json.dumps(_chi_json(problem, chi), indent=2))
    else:  # plain and latex both print the bare integer
        out(format_rational(chi))
    return 0


def _table_rows(req: RunRequest):
    rows = []
    for g in range(req.g_min, req.g_max + 1):
        for lam in strict_partitions(g - 1, req.max_len, 2 * g - 2):
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


def run_table(req: RunRequest, out) -> int:
    if not (2 <= req.g_min <= req.g_max):
        raise ValidationError(
            f"table genus range must satisfy 2 <= g_min <= g_max (got {req.g_min}..{req.g_max})"
        )
    if req.g_max > _TABLE_G_MAX:
        raise ValidationError(f"g_max exceeds {_TABLE_G_MAX} (got {req.g_max})")
    if not (1 <= req.max_len <= _TABLE_LEN_MAX):
        raise ValidationError(
            f"max_len must be between 1 and {_TABLE_LEN_MAX} (got {req.max_len})"
        )
    entries = [_table_entry(g, lam) for g, lam in _table_rows(req)]
    if req.output == "json":
        out(json.dumps({"rows": entries, "meta": _meta_block("-1", (), {"relation": "theta_prime = 2*xi"})}, indent=2))
        return 0
    if req.output == "latex":
        out("\\begin{tabular}{llllll}")
        out("g & a & \\lambda & \\gamma & e & \\chi \\\\")
        for e in entries:
            a = ",".join(str(x) for x in e["a"])
            lam = ",".join(str(x) for x in e["lambda"])
            out(
                f"{e['g']} & ({a}) & ({lam}) & {_latex_rational(Fraction(e['gamma']))} & "
                f"{e['exponent']} & {e['chi']} \\\\"
            )
        out("\\end{tabular}")
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
        out("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    return 0


def run_selfcheck(req: RunRequest, out) -> int:
    return selfcheck.run(quick=req.quick, out=out)


# ------------------------------------------------------------------ parsing


def _add_problem_args(sub):
    sub.add_argument("--genus", "-g", required=True, help="genus of the base curve")
    sub.add_argument("-r", default="-1", help="rank bound; defaults to len(a)-1")
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

    p_chi = subs.add_parser("chi", help="compute the Euler characteristic")
    _add_problem_args(p_chi)
    p_chi.add_argument("--verify", action="store_true", help="cross-run both routes")
    p_chi.add_argument("--output", choices=("plain", "json", "latex"), default="plain")

    p_table = subs.add_parser("table", help="batch table over a genus range")
    p_table.add_argument("--g-min", default="2")
    p_table.add_argument("--g-max", default="5")
    p_table.add_argument("--max-len", default="3")
    p_table.add_argument("--output", choices=("plain", "json", "latex"), default="plain")

    p_check = subs.add_parser("selfcheck", help="run the invariant suite")
    p_check.add_argument("--quick", action="store_true", help="small-genus subset")

    return parser


def _request_from_args(args) -> RunRequest:
    if args.command in ("class", "chi"):
        a = _parse_vanishing(args.vanishing)
        beta = _BETA_CHOICES[args.beta] if args.command == "class" else -1
        return RunRequest(
            command=args.command,
            output=args.output,
            g=_parse_int("--genus", args.genus),
            r=_parse_int("-r", args.r),
            a=a,
            beta=beta,
            verify=getattr(args, "verify", False),
        )
    if args.command == "table":
        return RunRequest(
            command="table",
            output=args.output,
            g_min=_parse_int("--g-min", args.g_min),
            g_max=_parse_int("--g-max", args.g_max),
            max_len=_parse_int("--max-len", args.max_len),
        )
    return RunRequest(command="selfcheck", quick=args.quick)


def main(argv=None) -> int:
    args = _make_parser().parse_args(argv)
    out = print
    try:
        req = _request_from_args(args)
        if req.command == "class":
            return run_class(req, out)
        if req.command == "chi":
            return run_chi(req, out)
        if req.command == "table":
            return run_table(req, out)
        return run_selfcheck(req, out)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a fault in prymck itself, not in the input
        detail = " ".join(f"{type(exc).__name__}: {exc}".split())
        print(f"error: internal: {detail}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
