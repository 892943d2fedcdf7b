"""Truncated polynomial ring carrying all class expansions.

ThetaPoly is a dense polynomial in one formal variable (the restricted
theta class), truncated above a fixed degree cap. The ambient variety has
dimension equal to the cap, so every discarded degree integrates to zero
and the truncation is lossless for all exported results.

Coefficients are Fractions, or BetaPoly values when the connective
deformation parameter is kept symbolic. Symbolic classes are read off the
beta = -1 class (see prym_bn.ck_class), so BetaPoly only holds the one
monomial each coefficient needs; it is never truncated.
"""

from __future__ import annotations

import operator
import re
from fractions import Fraction
from numbers import Rational

from .exact_arith import factorial, format_rational, parse_rational

__all__ = ["BetaPoly", "ThetaPoly", "d_value"]

_EXPONENT = re.compile("[0-9]+")


# __mul__ and __add__ stay, unused by the class routes, as bench/layer_trace.py wraps them by name
class BetaPoly:
    """Sparse exact polynomial in the deformation parameter.

    Stored as exponent -> Fraction with no explicit zeros; values are
    immutable by convention (nothing mutates the mapping after init).
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs=None):
        data = {}
        if coeffs:
            for exp, c in coeffs.items():
                try:
                    exp = operator.index(exp)
                except TypeError:
                    raise ValueError(f"BetaPoly: exponent {exp!r} is not an integer") from None
                if exp < 0:
                    raise ValueError(f"BetaPoly: negative exponent {exp}")
                c = Fraction(c)
                if c:
                    data[exp] = c
        self._coeffs = data

    @classmethod
    def term(cls, coeff, exp: int = 0) -> "BetaPoly":
        return cls({exp: coeff})

    def coeff(self, exp: int) -> Fraction:
        return self._coeffs.get(exp, Fraction(0))

    def items(self):
        """Sorted (exponent, coefficient) pairs."""
        return tuple(sorted(self._coeffs.items()))

    def __bool__(self):
        return bool(self._coeffs)

    def __eq__(self, other):
        if isinstance(other, BetaPoly):
            return self._coeffs == other._coeffs
        if isinstance(other, Rational):
            other = Fraction(other)
            if not other:
                return not self._coeffs
            return self._coeffs == {0: other}
        return NotImplemented

    def __hash__(self):
        # constant polynomials hash like their value so x == y => hash equal
        if not self._coeffs:
            return hash(Fraction(0))
        if set(self._coeffs) == {0}:
            return hash(self._coeffs[0])
        return hash(self.items())

    def __add__(self, other):
        if isinstance(other, Rational):
            other = BetaPoly.term(other)
        if not isinstance(other, BetaPoly):
            return NotImplemented
        data = dict(self._coeffs)
        for e, c in other._coeffs.items():
            data[e] = data.get(e, Fraction(0)) + c
        return BetaPoly(data)

    __radd__ = __add__

    def __mul__(self, other):
        if isinstance(other, Rational):
            other = Fraction(other)
            return BetaPoly({e: c * other for e, c in self._coeffs.items()})
        if not isinstance(other, BetaPoly):
            return NotImplemented
        data = {}
        for e1, c1 in self._coeffs.items():
            for e2, c2 in other._coeffs.items():
                e = e1 + e2
                data[e] = data.get(e, Fraction(0)) + c1 * c2
        return BetaPoly(data)

    __rmul__ = __mul__

    def __str__(self):
        if not self._coeffs:
            return "0"
        parts = []
        for e, c in self.items():
            mag = format_rational(abs(c))
            if e == 0:
                body = mag
            elif e == 1:
                body = f"{mag}*b" if mag != "1" else "b"
            else:
                body = f"{mag}*b^{e}" if mag != "1" else f"b^{e}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self):
        return f"BetaPoly({dict(self.items())!r})"

    def to_json_obj(self):
        return {str(e): format_rational(c) for e, c in self.items()}

    @classmethod
    def from_json_obj(cls, obj) -> "BetaPoly":
        if not isinstance(obj, dict):
            raise ValueError(f"BetaPoly: {obj!r} is not an object of exponents")
        for e in obj:
            if not (isinstance(e, str) and _EXPONENT.fullmatch(e)):
                raise ValueError(f"BetaPoly: exponent key {e!r} is not [0-9]+")
        return cls({int(e): parse_rational(c) for e, c in obj.items()})


class ThetaPoly:
    """Dense truncated polynomial; slot d of coeffs is the degree-d coefficient.

    Binary operations require matching caps; degrees above the cap are
    identically discarded by every operation. The neutral scalars 0 and 1
    are plain ints, which coerce cleanly with both Fraction and BetaPoly
    coefficients.
    """

    __slots__ = ("_cap", "_coeffs")

    def __init__(self, cap: int, coeffs=()):
        if cap < 0:
            raise ValueError(f"ThetaPoly: cap must be nonnegative, got {cap}")
        vals = list(coeffs)[: cap + 1]
        vals += [0] * (cap + 1 - len(vals))
        self._cap = cap
        self._coeffs = tuple(vals)

    @property
    def cap(self) -> int:
        return self._cap

    @property
    def coeffs(self):
        return self._coeffs

    @classmethod
    def zero(cls, cap: int) -> "ThetaPoly":
        return cls(cap)

    @classmethod
    def one(cls, cap: int) -> "ThetaPoly":
        return cls.monomial(cap, 0, 1)

    @classmethod
    def monomial(cls, cap: int, degree: int, coeff) -> "ThetaPoly":
        if degree < 0:
            raise ValueError(f"ThetaPoly.monomial: negative degree {degree}")
        if degree > cap:
            return cls(cap)
        vals = [0] * (cap + 1)
        vals[degree] = coeff
        return cls(cap, vals)

    def coeff(self, d: int):
        """Coefficient of degree d; 0 outside the retained range."""
        if 0 <= d <= self._cap:
            return self._coeffs[d]
        return 0

    def _require_same_cap(self, other: "ThetaPoly"):
        if self._cap != other._cap:
            raise ValueError(f"ThetaPoly: cap mismatch ({self._cap} vs {other._cap})")

    def __add__(self, other):
        if not isinstance(other, ThetaPoly):
            return NotImplemented
        self._require_same_cap(other)
        return ThetaPoly(self._cap, [a + b for a, b in zip(self._coeffs, other._coeffs)])

    def __radd__(self, other):
        # supports sum() and accumulators started at 0
        if isinstance(other, int) and other == 0:
            return self
        return NotImplemented

    def __neg__(self):
        return ThetaPoly(self._cap, [-c for c in self._coeffs])

    def __mul__(self, other):
        if isinstance(other, ThetaPoly):
            self._require_same_cap(other)
            out = [0] * (self._cap + 1)
            for d1, c1 in enumerate(self._coeffs):
                if not c1:
                    continue
                for d2 in range(self._cap + 1 - d1):
                    c2 = other._coeffs[d2]
                    if c2:
                        out[d1 + d2] = out[d1 + d2] + c1 * c2
            return ThetaPoly(self._cap, out)
        if isinstance(other, Rational):
            return ThetaPoly(self._cap, [c * other for c in self._coeffs])
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, Rational):
            return ThetaPoly(self._cap, [other * c for c in self._coeffs])
        return NotImplemented

    def __bool__(self):
        return any(bool(c) for c in self._coeffs)

    def __eq__(self, other):
        if not isinstance(other, ThetaPoly):
            return NotImplemented
        return self._cap == other._cap and all(
            a == b for a, b in zip(self._coeffs, other._coeffs)
        )

    def __hash__(self):
        return hash((self._cap, self._coeffs))

    def __repr__(self):
        body = ", ".join(str(c) for c in self._coeffs)
        return f"ThetaPoly(cap={self._cap}, [{body}])"

    def to_json_dict(self):
        out = []
        for c in self._coeffs:
            if isinstance(c, BetaPoly):
                out.append(c.to_json_obj())
            else:
                out.append(format_rational(c))
        return {"cap": self._cap, "coeffs": out}

    @classmethod
    def from_json_dict(cls, d) -> "ThetaPoly":
        if not (isinstance(d, dict) and "cap" in d and "coeffs" in d):
            raise ValueError("ThetaPoly: expected an object with 'cap' and 'coeffs'")
        cap = d["cap"]
        if not isinstance(cap, int) or isinstance(cap, bool):
            raise ValueError(f"ThetaPoly: cap {cap!r} is not an integer")
        raw = d["coeffs"]
        if not isinstance(raw, (list, tuple)) or len(raw) != cap + 1:
            raise ValueError(f"ThetaPoly: cap {cap} needs a list of {cap + 1} coefficients")
        coeffs = []
        for c in raw:
            if isinstance(c, dict):
                coeffs.append(BetaPoly.from_json_obj(c))
            else:
                coeffs.append(parse_rational(c))
        return cls(cap, coeffs)


def d_value(j: int, cap: int) -> ThetaPoly:
    """Degree-j class theta'^j / j!, as a ThetaPoly; zero outside 0..cap.

    Negative indices vanish (classes of negative degree are zero) and
    indices above the cap are discarded by truncation.
    """
    if j < 0 or j > cap:
        return ThetaPoly.zero(cap)
    return ThetaPoly.monomial(cap, j, Fraction(1, factorial(j)))
