"""Command line interface: single problems, batch tables, self checks.

Exit codes: 0 success, 1 selfcheck failure, 2 input validation failure,
any exact_arith.ValidationError (a problem whose estimated work exceeds
_WORK_MAX, or whose output has more digits than str() converts,
included), 3 a failed check, any
exact_arith.CheckFailure (the two Euler characteristic routes disagreeing
under --verify, a chi that is not an integer, or a nonzero cell below
the entry kernel's base degree), 4 internal error, 141 stdout closed by
its reader (nothing is printed on stderr). Nothing is printed on stdout
before a failed check.

The options of every subcommand are described once, in _COMMANDS.
_read_args reads a well-formed argv from that table without argparse;
argparse, imported and built from the same table by _make_parser, reads
every other argv (--help, --version, abbreviations, "--opt=value", usage
errors), so a one-shot command never pays for argparse, gettext and
locale, and the help, messages and exit codes stay argparse's.

Importing this module loads only what every command runs. The json
package is imported by _print_json, when --output json prints, for its
str escaper alone: _print_json writes the document itself, in one pass.
No module of the package compiles a regular expression at import:
_parse_int tests its digits with str methods.
"""

from __future__ import annotations

import functools
import os
import sys
import types
from math import comb, lgamma, log, prod

from . import __version__, selfcheck
from .exact_arith import CheckFailure, ValidationError, format_rational
from .prym_bn import (
    SYMBOLIC,
    build_problem,
    chow_class_closed,
    class_result,
    euler_oracle,
    euler_theorem,
    euler_theorem_genera,
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
# largest estimated work (see _theorem_work, _oracle_work) a class or chi
# command starts on; a unit is about 10^-4 s, so near it a command runs
# for about 100 s on a 2-vCPU VM
_WORK_MAX = 10**6
# series product steps per unit of work, a product of two series truncated
# at degree B counting (B + 1)^2 coefficient products of ints of about h
# bits, h = g - 1 (cap^3 at the oracle's cap = h, fitted when the oracle
# multiplied whole entries; see _oracle_work): ch_k_class at g = 200,
# lambda = (8, ..., 1) took 87 * 199^3 of them in its Pfaffian in about
# 9.5 s, about 7,200 to a unit, 28,000 at g = 80 on the twelve-part
# staircase (1,055 products, 1.9 s) and 48,000 at g = 46 on the nine-part
# one (317 products, 0.06 s); euler_theorem at g = 120 on the eight-part
# staircase took 105 * (2 * 84^2 + 84) * 119, two products and a dot
# product a matching, in about 1 s, 18,000, when it multiplied out each
# matching apart (its depth-first walk now takes 140 products there, not
# 210); 8,000 is kept from the earlier fit, so the g = 200 problem is
# underpriced by about 10 % until a work model fitted to counted steps
# replaces these constants
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
# entry kernel steps per unit of work, fitted on the kernel's former two
# stages, each counting cap^3: ch_k_class at g = 601, lambda = (2, 1) took
# its two stages, 2 * 600^3 steps, in about 56 s, about 770 to a unit, when
# the first stage was a cap^3 convolution; a step slowed as the ints grew
# with the cap (1,900 to a unit at cap 150, 650 at 700), and two parts reach
# the bound at cap 630. The kernel is now one recurrence of
# O((lambda_j + B) * B + lambda_j^2) int products per entry, weighed by
# stepped binomials with no table of weights, and that class takes about
# 0.14 s, so _oracle_work, which keeps the two-stage terms until the work
# model is fitted to counted steps (ROADMAP item 7), over-prices it about
# 600x
_KERNEL_STEPS_PER_UNIT = 500
# steps of the one-part class per unit of work, cap^3 in all for its cap + 1
# boundary Fractions: ch_k_class at g = 12001, lambda = (20) takes 12000^3
# of them in about 30 s, about 5.7 * 10^6 to a unit
_BOUNDARY_STEPS_PER_UNIT = 2 * 10**6


def _parse_int(name: str, text: str) -> int:
    # ASCII digits after at most one + or -, the test _read_args makes: int()
    # alone would also take "1_0", " 4" and non-ASCII digits such as "٤"
    digits = text[1:] if text[:1] in ("+", "-") else text
    if not (digits.isascii() and digits.isdigit()):
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


def _pfaffian_products(n: int) -> int:
    # products pfaffian_matchings takes at size n: it expands each of the
    # C(n - k, k) index sets of size n - 2k >= 4 it reaches once, along its
    # first index, n - 2k - 1 products each. The binomial is stepped, by
    # C(n-k-1, k+1) = C(n-k, k) * (n-2k)(n-2k-1) / ((k+1)(n-k)), an exact
    # division, so that a comb() a term does not hold up a many-part refusal
    total, sets = 0, 1
    for k in range(n // 2 - 1):
        total += sets * (n - 2 * k - 1)
        sets = sets * (n - 2 * k) * (n - 2 * k - 1) // ((k + 1) * (n - k))
    return total


def _theorem_work(problem) -> int:
    """Work of euler_theorem, the pair series sum, with h = g - 1, degree
    budget B = h - |lambda| and n the number of parts rounded up to even;
    0 when B < 0.

    The series products: (n-1)!! signed matchings of n/2 - 2 products
    and one x^B dot product each (none when n = 2, where the lone series
    is read at x^B), a product counting (B + 1)^2 coefficient products of
    ints of about h bits, so (B + 1)^2 * h steps, and the dot product
    (B + 1) * h, _PRODUCT_STEPS_PER_UNIT to a unit. The dot products are
    counted exactly. The products are exact at n <= 6, but the
    depth-first walk of _matching_sum shares each prefix product among
    the matchings below it, so the term over-prices them 1.5x at n = 8
    (140 products, not 210) and 2.8x at n = 12 (14,652, not 41,580)
    until the work model is fitted to counted steps (ROADMAP item 7).
    Plus the pair series: each of the l(l-1)/2 pairs of parts sums
    C(B + 2, 2) terms, h steps each, _PAIR_STEPS_PER_UNIT to a unit (a
    pair with the boundary index 0 reads its Abel row as it is). Plus the
    l Abel rows of B + 1 ints, (B + 1) * h steps each,
    _ROW_STEPS_PER_UNIT to a unit. Plus, from four indices on, where the
    series are put over h!, the factorial quotient of each of the
    n(n-1)/2 pair series, h^2 steps each, _SCALED_STEPS_PER_UNIT to a
    unit. One part is its Abel walk alone, (B + 1) * h steps,
    _WALK_STEPS_PER_UNIT to a unit, rounded up so that no walk is free."""
    budget = problem.rho
    if budget < 0:
        return 0
    h, ell = problem.dim_prym, problem.ell
    if ell == 1:
        return -(-(budget + 1) * h // _WALK_STEPS_PER_UNIT)
    n = ell + ell % 2
    per_matching = (n // 2 - 2) * (budget + 1) ** 2 * h + (budget + 1) * h if n >= 4 else 0
    products = prod(range(1, n, 2)) * per_matching  # (n-1)!! matchings
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

    The Pfaffian: the products of pfaffian_matchings' first-index
    expansion, sum over k = 0..n/2-2 of C(n-k, k) * (n-2k-1) (87 at n = 8,
    1,055 at n = 12), each of two truncated int series, cap^3 steps a
    product (cap^2 coefficient products of ints of about cap bits),
    _PRODUCT_STEPS_PER_UNIT to a unit; none when n = 2, where the Pfaffian
    is its one entry. Plus the entry kernel, priced as l - 1 + l(l-1)/2
    terms of cap^3 steps, _KERNEL_STEPS_PER_UNIT to a unit: the l - 1
    first and l(l-1)/2 second stages of the two-stage kernel these prices
    were fitted on. Plus, at one part, the cap + 1 boundary Fractions,
    cap^3 steps in all, _BOUNDARY_STEPS_PER_UNIT to a unit.

    ch_k_class runs on the excess degree B = cap - |lambda|: its products
    take series of B + 1 terms, and its kernel is one recurrence of
    O((lambda_j + B) * B + lambda_j^2) int products per entry, no cap^3
    stage and no table of weights. So the kernel terms over-price it at
    every number of parts (about 600x at g = 601, lambda = (2, 1), which
    takes about 0.14 s), and the product term over-prices every problem
    whose B lies well below the cap, until the work model is fitted to
    counted steps (ROADMAP item 7). That re-pricing waits for a digit
    pre-check on multi-part classes, as it admits larger caps."""
    cap, ell = problem.dim_prym, problem.ell
    products = _pfaffian_products(ell + ell % 2) * cap**3
    kernel = ell - 1 + comb(ell, 2) if ell > 1 else 0
    boundary = cap**3 // _BOUNDARY_STEPS_PER_UNIT if ell == 1 else 0
    return (
        products // _PRODUCT_STEPS_PER_UNIT
        + kernel * cap**3 // _KERNEL_STEPS_PER_UNIT
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
        # from 10^18 up, named by a lower bound on its power of ten, as
        # work >= 2^(bits - 1): str() refuses ints of over 4300 digits
        shown = work if work < 10**18 else f"over 10^{(work.bit_length() - 1) * 30103 // 100000}"
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


def _xi_coeffs(poly: ThetaPoly):
    # theta' = 2*xi, so the xi-basis coefficient of degree d gains 2^d
    return [c * 2**d for d, c in enumerate(poly.coeffs)]


def _meta_block(beta_label, flags, normalization):
    return {
        "beta": beta_label,
        "normalization": normalization,
        "convention_flags": list(flags),
        "versions": {"prymck": __version__},
    }


def _json_document(problem, result, beta, flags, normalization):
    return {
        "problem": {
            "g": problem.g,
            "r": problem.r,
            "a": list(problem.a),
            "lambda": list(problem.lam),
            "parity": problem.parity,
            "expected_empty": problem.expected_empty,
        },
        "result": {field: result.get(field) for field in _RESULT_FIELDS},
        "meta": _meta_block(str(beta), flags, normalization),
    }


def _write_json(value, indent, put, quote) -> None:
    """Put the chunks of value as json.dumps(value, indent=2) writes it at
    the indent (a newline and its spaces), its strs quoted by quote. Only
    the dicts with str keys, lists, strs, ints, bools and None that prymck
    builds are written: any other type, a float, a Fraction, a tuple or a
    non-str key included, raises TypeError naming it, where json.dumps
    would convert some of them without a word."""
    kind = type(value)
    if kind is str:
        put(quote(value))
    elif kind is int:
        put(int.__repr__(value))
    elif kind is bool or value is None:
        put("true" if value is True else "false" if value is False else "null")
    elif kind is list or kind is dict:
        ends = "[]" if kind is list else "{}"
        inner, sep = indent + "  ", ends[0]
        for item in value:
            put(sep)
            put(inner)
            if kind is dict:  # item is a key, written before its value
                if type(item) is not str:
                    raise TypeError(f"cannot write a {type(item).__name__} key as JSON")
                put(quote(item))
                put(": ")
                item = value[item]
            _write_json(item, inner, put, quote)
            sep = ","
        put(f"{indent}{ends[1]}" if value else ends)
    else:
        raise TypeError(f"cannot write a {kind.__name__} as JSON")


def _print_json(document) -> None:
    """Print document byte for byte as print(json.dumps(document, indent=2))
    does, in one pass and nothing if it raises. With an indent set,
    json.dumps runs its pure-Python encoder, which takes about twice this
    writer's time on the document of table --g-max 10 --max-len 5."""
    # json is imported here, so only --output json pays for it, and only
    # for the escaper json.dumps quotes strs with
    from json.encoder import encode_basestring_ascii

    # _write_json is a module function: a nested one calling itself is a
    # reference cycle, which kept the chunks alive until the next garbage
    # collection and raised table's peak RSS
    chunks = []
    _write_json(document, "\n", chunks.append, encode_basestring_ascii)
    print("".join(chunks))


def _latex_rational(x) -> str:
    """An int or a Fraction in LaTeX, read from its numerator and denominator."""
    num, den = x.numerator, x.denominator
    sign = "-" if num < 0 else ""
    if den == 1:
        return f"{sign}{abs(num)}"
    return f"{sign}\\frac{{{abs(num)}}}{{{den}}}"


def _latex_sum(terms) -> str:
    """The LaTeX terms joined, with a "+" before each later term that has no
    "-"; "0" when there are none."""
    return "".join(t if t.startswith("-") else f"+{t}" for t in terms).removeprefix("+") or "0"


def _latex_beta_coeff(c) -> str:
    if not isinstance(c, BetaPoly):  # the int 1 of the empty partition
        return _latex_rational(c)
    terms = (
        _latex_rational(x) + ("\\beta" if k == 1 else f"\\beta^{{{k}}}" if k else "") for k, x in c.items()
    )
    return f"\\left({_latex_sum(terms)}\\right)"


def _commas(ints) -> str:
    return ",".join(str(x) for x in ints)


def _problem_line(p) -> str:
    lam = _commas(p.lam) if p.lam else "()"
    empty = "yes" if p.expected_empty else "no"
    return f"problem: g={p.g} r={p.r} a={_commas(p.a)} lambda={lam} parity={p.parity} expected_empty={empty}"


def _print_class(problem, beta, value, output, limit):
    """Check and print a class in one output format. The beta branch lists
    the rationals that plain and json print: gamma and its xi form, the
    theta' and xi coefficients, or the symbolic coefficients' rationals.
    _check_digits refuses them (exit 2) before any str(). Then only the
    format asked for is built, each rational it prints formatted once:
    latex from the value, json's theta' polynomial by
    ThetaPoly.to_json_dict (the writer selfcheck reads back), and the xi
    forms and plain lines from the list."""
    kind, flags = _MODES[beta]
    e = problem.codim
    if beta == 0:
        shown = [value, value * 2**e]
    elif beta == SYMBOLIC:
        # the other coefficients are the int 0, or the 1 of the empty partition
        shown = [x for c in value.coeffs if isinstance(c, BetaPoly) for _, x in c.items()]
    else:
        shown = [*value.coeffs, *_xi_coeffs(value)]
    _check_digits("gamma" if beta == 0 else "a coefficient", shown, limit)
    if output == "latex":
        if beta == 0:
            print(_latex_rational(value) + (f"(2\\xi)^{{{e}}}" if e else ""))
        else:
            terms = (
                _latex_beta_coeff(c) + (f"(\\theta')^{{{d}}}" if d else "") for d, c in enumerate(value.coeffs) if c
            )
            print(_latex_sum(terms))
        return
    normalization = {"basis": "theta_prime", "relation": "theta_prime = 2*xi"}
    if beta == 0:
        gamma, gamma_xi = map(format_rational, shown)
        result = {"kind": kind, "gamma": gamma, "exponent": e}
        normalization["gamma_xi"] = gamma_xi
        lines = [f"gamma: {gamma}", f"exponent: {e}", f"class: ({gamma})*(2xi)^{e} = ({gamma_xi})*xi^{e}"]
    elif output == "json":
        result = {"kind": kind, "theta_poly": value.to_json_dict()}
        if beta == -1:
            normalization["xi_coeffs"] = [format_rational(x) for x in shown[value.cap + 1 :]]
    elif beta == -1:
        theta, xi = (", ".join(map(format_rational, part)) for part in (value.coeffs, shown[value.cap + 1 :]))
        lines = [f"theta_poly: {theta}  (T^0..T^{value.cap}; T = theta' = 2xi)", f"xi_poly: {xi}"]
    else:
        terms = [f"  T^{d}: {c}" for d, c in enumerate(value.coeffs) if c]
        lines = ["theta_poly (T = theta' = 2xi, b = beta):", *(terms or ["  0"])]
    if output == "json":
        _print_json(_json_document(problem, result, beta, flags, normalization))
    else:
        flag = f" [{', '.join(flags)}]" if flags else ""
        print("\n".join([_problem_line(problem), f"kind: {kind} (beta={beta}){flag}", *lines]))


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
    _print_class(problem, beta, class_result(problem, beta), args.output, limit)
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
            # chi passed the digit check; the oracle's value may not have
            shown = other if abs(other) < 10**limit else f"(more than {limit} digits)"
            raise CheckFailure(f"route mismatch: theorem={chi} oracle={shown}")
    if args.output == "json":
        result = {"kind": "euler_characteristic", "chi": format_rational(chi)}
        _print_json(_json_document(problem, result, -1, (), {"relation": "theta_prime = 2*xi"}))
    else:  # plain and latex both print the bare integer
        print(format_rational(chi))
    return 0


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
    # sorted by size, so the rows of genus g are the partitions of size < g;
    # each problem is built and validated at its first genus, and one walk
    # at g_max gives its chi at every genus from there, each formatted once
    parts = []
    for lam in strict_partitions(g_max - 1, max_len, 2 * g_max - 2):
        if lam:
            p = problem_from_partition(max(g_min, sum(lam) + 1), lam)
            chis = euler_theorem_genera(p, range(p.g, g_max + 1))
            parts.append((p, chow_class_closed(lam), [format_rational(chi) for chi in chis]))
    starts = [p.g for p, _, _ in parts]

    def rows(shared):
        # (g, shared[i], chi) for each row, genus by genus, where shared[i]
        # holds the cells partition i gives every row it is on; its rows
        # start at its first genus, which rises with its size
        for g in range(g_min, g_max + 1):
            for start, cells, (_, _, chis) in zip(starts, shared, parts):
                if start > g:
                    break
                yield g, cells, chis[g - start]

    if args.output == "json":
        shared = [
            {"a": list(p.a), "lambda": list(p.lam), "gamma": format_rational(gamma), "exponent": p.codim}
            for p, gamma, _ in parts
        ]
        entries = [{"g": g, **cells, "chi": chi} for g, cells, chi in rows(shared)]
        _print_json({"rows": entries, "meta": _meta_block("-1", (), {"relation": "theta_prime = 2*xi"})})
    elif args.output == "latex":
        shared = [
            f"({_commas(p.a)}) & ({_commas(p.lam)}) & {_latex_rational(gamma)} & {p.codim}" for p, gamma, _ in parts
        ]
        lines = [f"{g} & {cells} & {chi} \\\\" for g, cells, chi in rows(shared)]
        head = ["\\begin{tabular}{llllll}", "g & a & \\lambda & \\gamma & e & \\chi \\\\"]
        print("\n".join([*head, *lines, "\\end{tabular}"]))
    else:
        # columns padded to their widest cell, but for the last: chi. The
        # widest g is g_max, whose rows hold every partition
        names = ("a", "lambda", "gamma", "exp")
        texts = [(_commas(p.a), _commas(p.lam), format_rational(gamma), str(p.codim)) for p, gamma, _ in parts]
        widths = [max(map(len, column)) for column in zip(names, *texts)]
        head, *shared = ["  ".join(map(str.ljust, row, widths)) for row in [names, *texts]]
        g_width = len(str(g_max))
        lines = [f"{g:<{g_width}}  {cells}  {chi}" for g, cells, chi in rows(shared)]
        print("\n".join([f"{'g':<{g_width}}  {head}  chi", *lines]))
    return 0


# ------------------------------------------------------------------ parsing

_FLAG = "flag"
_OUTPUT = (("--output",), "output", "plain", ("plain", "json", "latex"), None)
_PROBLEM = (
    (("--genus", "-g"), "genus", None, None, "genus of the base curve"),
    (("-r",), "r", "-1", None, "rank bound; -1, the default, means len(a)-1"),
    (("--vanishing", "-a"), "vanishing", None, None, "comma-separated vanishing sequence, e.g. 0,1"),
)
# the command line, described once: each subcommand's help, the function
# main runs for it, and its options in the order --help lists them. An
# option is (spellings, dest, default, choices, help); a default of None
# makes it required, and choices _FLAG makes it a store_true flag.
# _make_parser and _read_args both read this table
_COMMANDS = {
    "class": (
        "compute a class",
        run_class,
        (*_PROBLEM, (("--beta",), "beta", "0", tuple(sorted(_BETA_CHOICES)), None), _OUTPUT),
    ),
    "chi": (
        "compute the Euler characteristic",
        run_chi,
        (*_PROBLEM, (("--verify",), "verify", False, _FLAG, "cross-run both routes"), _OUTPUT),
    ),
    "table": (
        "batch table over a genus range",
        run_table,
        (
            (("--g-min",), "g_min", "2", None, None),
            (("--g-max",), "g_max", "5", None, None),
            (("--max-len",), "max_len", "3", None, None),
            _OUTPUT,
        ),
    ),
    "selfcheck": ("run the invariant suite", lambda args: selfcheck.run(), ()),
}


@functools.cache
def _make_parser():
    """argparse's parser for _COMMANDS. Only --help, --version and the argv
    that _read_args declines reach it, so argparse is imported here and the
    parser is built once, on the first of those."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="prymck",
        description="Exact classes and Euler characteristics of pointed Brill-Noether loci on Prym varieties.",
    )
    parser.add_argument("--version", action="version", version=f"prymck {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)
    for command, (summary, _, options) in _COMMANDS.items():
        sub = subs.add_parser(command, help=summary)
        for spellings, dest, default, choices, text in options:
            if choices == _FLAG:
                sub.add_argument(*spellings, dest=dest, action="store_true", help=text)
            else:
                required = default is None
                sub.add_argument(*spellings, dest=dest, default=default, required=required, choices=choices, help=text)
    return parser


def _read_args(argv):
    """The fields argparse reads from a well-formed argv, without argparse;
    None for any other argv. Well formed: a subcommand, then exact
    spellings of its options (no abbreviation, "=" or joined short value),
    each value its own str token, one of its choices, and starting with
    "-" only as a negative ASCII integer; every required option present. A
    repeated option keeps its last value, as argparse's store does."""
    if not argv or not all(isinstance(token, str) for token in argv) or argv[0] not in _COMMANDS:
        return None
    options = _COMMANDS[argv[0]][2]
    spelled = {spelling: option for option in options for spelling in option[0]}
    fields = {"command": argv[0], **{dest: default for _, dest, default, _, _ in options}}
    tokens = iter(argv[1:])
    for token in tokens:
        if token not in spelled:
            return None
        _, dest, _, choices, _ = spelled[token]
        if choices == _FLAG:
            fields[dest] = True
            continue
        value = next(tokens, None)
        if value is None or (value.startswith("-") and not (value[1:].isascii() and value[1:].isdigit())):
            return None
        if choices is not None and value not in choices:
            return None
        fields[dest] = value
    if None in fields.values():
        return None
    return types.SimpleNamespace(**fields)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _read_args(argv) or _make_parser().parse_args(argv)
    try:
        code = _COMMANDS[args.command][1](args)
        sys.stdout.flush()  # a closed stdout fails here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader has gone: point fd 1 at devnull, so that the flush at
        # exit has nowhere to fail, and exit as a shell reports SIGPIPE
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CheckFailure as exc:  # a route mismatch, a chi that is not whole, the kernel's guard
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # a fault in prymck itself, not in the input
        detail = " ".join(f"{type(exc).__name__}: {exc}".split())
        print(f"error: internal: {detail}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
