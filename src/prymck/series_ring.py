"""Truncated polynomial ring carrying all class expansions.

ThetaPoly is a dense polynomial in one formal variable (the restricted
theta class), truncated above a fixed degree cap. The ambient variety has
dimension equal to the cap, so every discarded degree integrates to zero
and the truncation is lossless for all exported results.

Coefficients are ints (the integer-scaled Pfaffian entries of
prym_bn.ch_k_class), Fractions, or BetaPoly values when the connective
deformation parameter is kept symbolic. Symbolic classes are read off the
beta = -1 class (see prym_bn.ck_class), so BetaPoly only holds the one
monomial each coefficient needs; it is never truncated.

A series holds exactly what its caller builds: ThetaPoly(cap, coeffs)
takes exactly cap + 1 coefficients and raises ValueError on any other
count rather than pad or cut, and BetaPoly stores int and Fraction
coefficients as given and raises TypeError on anything else. Neither
converts or copies a value. A cap, a monomial's degree and a BetaPoly
exponent follow exact_arith's integer rule (_strict_int), each an
integer >= 0: anything else, a bool, a float or a negative value
included, raises ValidationError, in the constructors and in zero, one
and monomial alike. A BetaPoly coefficient or a scalar factor follows
its exact-value rule (_exact), an int or a Fraction; arithmetic with any
other scalar returns NotImplemented.

Every product runs one schoolbook loop over the nonzero coefficient
pairs, whatever the coefficient ring. The routes only multiply series of
ints (ch_k_class's entry windows, scaled by S = 4^(cap+1) * cap!); a
Fraction or BetaPoly product takes the same loop, with a Fraction or
BetaPoly sum per pair.
"""

from __future__ import annotations

import operator
import re

from .exact_arith import _exact, _strict_int, format_rational, parse_rational

__all__ = ["BetaPoly", "ThetaPoly"]


# __mul__ and __add__ stay, unused by the class routes, as bench/layer_trace.py wraps them by name
class BetaPoly:
    """Sparse exact polynomial in the deformation parameter.

    Stored as exponent -> coefficient with no explicit zeros; values are
    immutable by convention (nothing mutates the mapping after init). Each
    coefficient is kept as given, an int or a Fraction; anything else, a
    bool, float, Decimal or str included, raises TypeError.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs=None):
        data = {}
        if coeffs:
            for exp, c in coeffs.items():
                exp = _strict_int(exp, "BetaPoly: exponent", 0)
                if not _exact(c):
                    raise TypeError(f"BetaPoly: coefficient {c!r} is not an int or a Fraction")
                if c:
                    data[exp] = c
        self._coeffs = data

    def items(self):
        """Sorted (exponent, coefficient) pairs."""
        return tuple(sorted(self._coeffs.items()))

    def __bool__(self):
        return bool(self._coeffs)

    def __eq__(self, other):
        if isinstance(other, BetaPoly):
            return self._coeffs == other._coeffs
        if _exact(other):
            return self._coeffs == ({0: other} if other else {})
        return NotImplemented

    def __add__(self, other):
        if _exact(other):
            other = BetaPoly({0: other})
        if not isinstance(other, BetaPoly):
            return NotImplemented
        data = dict(self._coeffs)
        for e, c in other._coeffs.items():
            data[e] = data.get(e, 0) + c
        return BetaPoly(data)

    __radd__ = __add__

    def __mul__(self, other):
        if _exact(other):
            return BetaPoly({e: c * other for e, c in self._coeffs.items()})
        if not isinstance(other, BetaPoly):
            return NotImplemented
        data = {}
        for e1, c1 in self._coeffs.items():
            for e2, c2 in other._coeffs.items():
                e = e1 + e2
                data[e] = data.get(e, 0) + c1 * c2
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
            # the keys to_json_obj writes, str(e): "01" would name exponent 1 again
            if not (isinstance(e, str) and re.fullmatch("0|[1-9][0-9]*", e)):
                raise ValueError(f"BetaPoly: exponent key {e!r} is not 0|[1-9][0-9]*")
        return cls({int(e): parse_rational(c) for e, c in obj.items()})


class ThetaPoly:
    """Dense truncated polynomial; slot d of coeffs is the degree-d coefficient.

    Built from exactly cap + 1 coefficients, degrees 0..cap, stored as one
    tuple; any other count raises ValueError. ThetaPoly.zero(cap) is the
    zero series. Binary operations require matching caps, so two series
    are equal when their tuples are; degrees above the cap are identically
    discarded by every product. The neutral scalars 0 and 1 are plain
    ints, which coerce cleanly with both Fraction and BetaPoly
    coefficients.
    """

    __slots__ = ("_cap", "_coeffs")

    def __init__(self, cap: int, coeffs):
        if type(cap) is not int or cap < 0:  # every product passes an int cap, and skips the call
            cap = _strict_int(cap, "ThetaPoly: cap", 0)
        coeffs = tuple(coeffs)
        if len(coeffs) != cap + 1:
            raise ValueError(f"ThetaPoly: cap {cap} needs {cap + 1} coefficients, got {len(coeffs)}")
        self._cap = cap
        self._coeffs = coeffs

    @property
    def cap(self) -> int:
        return self._cap

    @property
    def coeffs(self):
        return self._coeffs

    @classmethod
    def zero(cls, cap: int) -> "ThetaPoly":
        cap = _strict_int(cap, "ThetaPoly: cap", 0)
        return cls(cap, (0,) * (cap + 1))

    @classmethod
    def one(cls, cap: int) -> "ThetaPoly":
        return cls.monomial(cap, 0, 1)

    @classmethod
    def monomial(cls, cap: int, degree: int, coeff) -> "ThetaPoly":
        cap, degree = _strict_int(cap, "ThetaPoly: cap", 0), _strict_int(degree, "ThetaPoly.monomial: degree", 0)
        vals = [0] * (cap + 1)
        if degree <= cap:
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
        return ThetaPoly(self._cap, map(operator.add, self._coeffs, other._coeffs))

    def __radd__(self, other):
        # supports sum() and accumulators started at 0
        if isinstance(other, int) and other == 0:
            return self
        return NotImplemented

    def __neg__(self):
        return ThetaPoly(self._cap, map(operator.neg, self._coeffs))

    def __mul__(self, other):
        """Product truncated at the cap, or scaling by an int or a Fraction.

        The product is the schoolbook sum over nonzero coefficient pairs: a
        slot no nonzero pair reaches is int 0 (every slot, when an operand
        is zero), one reached by int x int pairs alone is an int, and any
        other is the exact sum in the coefficients' ring.
        """
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
        if _exact(other):
            return ThetaPoly(self._cap, [c * other for c in self._coeffs])
        return NotImplemented

    def __rmul__(self, other):
        if _exact(other):
            return ThetaPoly(self._cap, [other * c for c in self._coeffs])
        return NotImplemented

    def __bool__(self):
        return any(bool(c) for c in self._coeffs)

    def __eq__(self, other):
        if not isinstance(other, ThetaPoly):
            return NotImplemented
        return self._coeffs == other._coeffs

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
        raw = d["coeffs"]
        if not isinstance(raw, (list, tuple)):
            raise ValueError(f"ThetaPoly: coeffs {raw!r} is not a list")
        return cls(d["cap"], [BetaPoly.from_json_obj(c) if isinstance(c, dict) else parse_rational(c) for c in raw])
