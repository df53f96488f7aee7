"""Exact arithmetic for cyclotomic field elements and quaternions over them.

A scalar is an element of Q(zeta_m) stored as its reduced residue modulo the
m-th cyclotomic polynomial Phi_m, in the power basis 1, zeta_m, ...,
zeta_m^(phi(m)-1).  Only the nonzero coefficients are stored: a sorted tuple
of (power, numerator) pairs over a single positive denominator, with the gcd
of everything divided out.  The elements the package builds have a handful
of nonzero coefficients out of phi(m) (at most 5 of 320 in D200's field), so
a product is a sum over pairs of terms of the reduced powers of zeta_m, which
each conductor tabulates once.  The dense coefficient vector is derived only
where a full basis listing is asked for.  Equality of scalars is equality of
these normal forms, so all comparisons in the package are exact.  No
floating point is used anywhere.

Quaternions are 4-tuples of scalars sharing one conductor, multiplied with
the Hamilton rules i^2 = j^2 = k^2 = ijk = -1.  Every product goes through
one kernel, ``_products``, which forms a signed sum of scalar products in one
pass: each component of a quaternion product (four signed scalar products)
and the reduced norm are each summed over one common denominator, reduced
mod Phi_m once and put in normal form once; a scalar product is its
one-pair case.

Only ring operations are provided: every quaternion the package builds is a
unit, whose inverse is its conjugate, so nothing divides in Q(zeta_m).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache, reduce
from typing import Iterable, Sequence

from .numutil import prime_factorization


def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Integer coefficients of Phi_m, ascending degree; always monic.

    Built from the radical r of m with one exact division per prime
    (Arnold & Monagan, Math. Comp. 80, 2011): from Phi_1 = x - 1,
    Phi_pk(x) = Phi_k(x^p) / Phi_k(x) for each prime p of m (p does not divide
    k), and then Phi_m(x) = Phi_r(x^(m/r)).
    """
    if m < 1:
        raise ValueError(f"conductor must be positive, got {m}")
    poly, r = [-1, 1], 1
    for p in prime_factorization(m):
        poly = _poly_div_exact(_stretch(poly, p), poly)
        r *= p
    return tuple(_stretch(poly, m // r))


def _stretch(poly: Sequence[int], e: int) -> list[int]:
    """The coefficients of poly(x^e)."""
    out = [0] * ((len(poly) - 1) * e + 1)
    out[::e] = poly
    return out


def _poly_div_exact(num: Sequence[int], den: Sequence[int]) -> list[int]:
    """Exact division of integer polynomials; den must be monic."""
    num = list(num)
    deg_den = len(den) - 1
    out = [0] * (len(num) - deg_den)
    for i in range(len(num) - 1, deg_den - 1, -1):
        c = num[i]
        if c == 0:
            continue
        out[i - deg_den] = c
        for k, dc in enumerate(den):
            num[i - deg_den + k] -= c * dc
    if any(num[:deg_den]):
        raise ArithmeticError("non-exact polynomial division")
    return out


class _FieldContext:
    """Per-conductor reduction data: phi(m) and the reduced powers of zeta_m.

    ``pows[k]`` is zeta_m^k for 0 <= k < m as the sorted tuple of its nonzero
    (power, coefficient) pairs in the reduced power basis.
    """

    __slots__ = ("phi", "pows")

    def __init__(self, m: int):
        poly = cyclotomic_polynomial(m)
        self.phi = phi = len(poly) - 1
        # Phi_m is monic, so zeta^phi = -(poly[0] + poly[1] zeta + ...)
        top = [(i, -c) for i, c in enumerate(poly[:phi]) if c]
        pows = [((k, 1),) for k in range(min(phi, m))]
        for k in range(phi, m):
            acc: dict[int, int] = {}
            for i, c in pows[k - 1]:
                if i + 1 < phi:
                    acc[i + 1] = acc.get(i + 1, 0) + c
                else:
                    for j, t in top:
                        acc[j] = acc.get(j, 0) + c * t
            pows.append(tuple(sorted([item for item in acc.items() if item[1]])))
        self.pows = pows


@lru_cache(maxsize=None)
def _field(m: int) -> _FieldContext:
    return _FieldContext(m)


def _scalar(m: int, acc: dict[int, int], den: int, out: "FieldScalar | None" = None) -> "FieldScalar":
    """sum(v * zeta_m^p for p, v in acc.items()) / den in normal form.

    ``acc`` maps reduced powers (< phi(m)) to integer numerators and den is
    positive.  The result is written into ``out`` when given.
    """
    terms = sorted([item for item in acc.items() if item[1]])
    if den > 1:
        g = math.gcd(den, *[v for _, v in terms])
        if g > 1:
            den //= g
            terms = [(p, v // g) for p, v in terms]
    s = FieldScalar.__new__(FieldScalar) if out is None else out
    s.m, s.terms, s.den = m, tuple(terms), den
    s._hash = hash((m, s.terms, den))
    return s


def _products(m: int, pairs) -> "FieldScalar":
    """sum(sign * x * y for sign, x, y in pairs) in normal form, all of conductor m.

    Every term pair of every product goes into one dict of raw powers of zeta_m
    over one common denominator, zero operands are skipped, the powers >= phi(m)
    are reduced once through the tabulated powers, and ``_scalar`` runs once.
    """
    pairs = [(sign, x, y) for sign, x, y in pairs if x.terms and y.terms]
    if not pairs:
        return _scalar(m, {}, 1)
    den = math.lcm(*[x.den * y.den for _, x, y in pairs])
    raw: dict[int, int] = {}
    get = raw.get
    for sign, x, y in pairs:
        f = sign * (den // (x.den * y.den))
        yt = y.terms
        for i, a in x.terms:
            a *= f
            for j, b in yt:
                k = i + j
                raw[k] = get(k, 0) + a * b
    ctx = _field(m)
    phi = ctx.phi
    high = [(k, v) for k, v in raw.items() if k >= phi]
    if high:
        pows = ctx.pows
        for k, v in high:
            del raw[k]
            if v:
                for p, c in pows[k % m]:
                    raw[p] = get(p, 0) + v * c
    return _scalar(m, raw, den)


class FieldScalar:
    """An element of Q(zeta_m) in reduced normal form.

    ``terms`` holds the nonzero (power, numerator) pairs in increasing power
    and ``den`` the positive common denominator; zero is ``()`` over 1.
    """

    __slots__ = ("m", "terms", "den", "_hash")

    def __init__(self, m: int, nums: Iterable[int], den: int = 1):
        """The scalar sum(nums[i] * zeta_m^i) / den; nums may have any length."""
        if den == 0:
            raise ZeroDivisionError("field scalar with denominator 0")
        sign = -1 if den < 0 else 1
        pows = _field(m).pows
        acc: dict[int, int] = {}
        for i, v in enumerate(nums):
            if v:
                for p, c in pows[i % m]:
                    acc[p] = acc.get(p, 0) + sign * v * c
        _scalar(m, acc, sign * den, self)

    # -- constructors -------------------------------------------------

    @classmethod
    def from_rational(cls, m: int, value) -> "FieldScalar":
        value = Fraction(value)
        return _scalar(m, {0: value.numerator}, value.denominator)

    @classmethod
    def zero(cls, m: int) -> "FieldScalar":
        return cls.from_rational(m, 0)

    @classmethod
    def one(cls, m: int) -> "FieldScalar":
        return cls.from_rational(m, 1)

    @classmethod
    def root_of_unity(cls, m: int, k: int) -> "FieldScalar":
        """zeta_m^k as a reduced scalar of conductor m."""
        return _scalar(m, dict(_field(m).pows[k % m]), 1)

    @classmethod
    def sqrt2(cls, m: int) -> "FieldScalar":
        """sqrt(2) = zeta_8 + zeta_8^-1, for conductors divisible by 8."""
        if m % 8:
            raise ValueError(f"sqrt(2) needs 8 | conductor, got {m}")
        s = m // 8
        return cls.root_of_unity(m, s) + cls.root_of_unity(m, -s)

    @classmethod
    def sqrt5(cls, m: int) -> "FieldScalar":
        """sqrt(5) = 2*zeta_5 + 2*zeta_5^4 + 1, for conductors divisible by 5."""
        if m % 5:
            raise ValueError(f"sqrt(5) needs 5 | conductor, got {m}")
        s = m // 5
        two = cls.from_rational(m, 2)
        return two * (cls.root_of_unity(m, s) + cls.root_of_unity(m, -s)) + cls.one(m)

    @classmethod
    def from_fractions(cls, m: int, fracs: Sequence) -> "FieldScalar":
        fracs = [Fraction(f) for f in fracs]
        den = reduce(math.lcm, (f.denominator for f in fracs), 1)
        nums = [f.numerator * (den // f.denominator) for f in fracs]
        return cls(m, nums, den)

    # -- arithmetic ---------------------------------------------------

    def _check(self, other: "FieldScalar") -> None:
        if self.m != other.m:
            raise ValueError(f"conductor mismatch: {self.m} vs {other.m}")

    def __add__(self, other: "FieldScalar") -> "FieldScalar":
        self._check(other)
        d1, d2 = self.den, other.den
        acc = {p: v * d2 for p, v in self.terms}
        for p, v in other.terms:
            acc[p] = acc.get(p, 0) + v * d1
        return _scalar(self.m, acc, d1 * d2)

    def __sub__(self, other: "FieldScalar") -> "FieldScalar":
        self._check(other)
        d1, d2 = self.den, other.den
        acc = {p: v * d2 for p, v in self.terms}
        for p, v in other.terms:
            acc[p] = acc.get(p, 0) - v * d1
        return _scalar(self.m, acc, d1 * d2)

    def __neg__(self) -> "FieldScalar":
        return _scalar(self.m, {p: -v for p, v in self.terms}, self.den)

    def __mul__(self, other: "FieldScalar") -> "FieldScalar":
        self._check(other)
        return _products(self.m, ((1, self, other),))

    # -- structure ----------------------------------------------------

    @property
    def dimension(self) -> int:
        """phi(m), the length of the power basis."""
        return _field(self.m).phi

    @property
    def nums(self) -> tuple[int, ...]:
        """All phi(m) numerators over ``den``, zeros included."""
        out = [0] * self.dimension
        for p, v in self.terms:
            out[p] = v
        return tuple(out)

    def is_zero(self) -> bool:
        return not self.terms

    def is_rational(self) -> bool:
        return not self.terms or self.terms[-1][0] == 0

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("scalar is not rational")
        return Fraction(self.terms[0][1], self.den) if self.terms else Fraction(0)

    def coeffs(self) -> tuple[Fraction, ...]:
        """Coefficient sequence over the reduced zeta-power basis."""
        return tuple(Fraction(v, self.den) for v in self.nums)

    def lift(self, big_m: int) -> "FieldScalar":
        """Embed into Q(zeta_M) for m | M via zeta_m = zeta_M^(M/m)."""
        if big_m % self.m:
            raise ValueError(f"cannot lift conductor {self.m} into {big_m}")
        step = big_m // self.m
        pows = _field(big_m).pows
        acc: dict[int, int] = {}
        for p, v in self.terms:
            for q, c in pows[p * step]:
                acc[q] = acc.get(q, 0) + v * c
        return _scalar(big_m, acc, self.den)

    # -- protocol -----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FieldScalar):
            return NotImplemented
        return self.m == other.m and self.den == other.den and self.terms == other.terms

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"FieldScalar({self.m}, {self.render()!r})"

    # -- rendering / serialization ------------------------------------

    def render(self) -> str:
        """Human-readable form using named radicals where possible."""
        if self.is_rational():
            return str(self.rational_value())
        for rad_name, avail, make in (
            ("√2", self.m % 8 == 0, FieldScalar.sqrt2),
            ("√5", self.m % 5 == 0, FieldScalar.sqrt5),
        ):
            if not avail:
                continue
            split = self._in_quadratic_basis(make(self.m))
            if split is not None:
                q0, q1 = split
                return _format_linear(q0, q1, rad_name)
        terms = []
        for p, v in self.terms:
            sym = "1" if p == 0 else (f"z{self.m}" if p == 1 else f"z{self.m}^{p}")
            terms.append(_format_term(Fraction(v, self.den), sym, first=not terms))
        return "".join(terms)

    def _in_quadratic_basis(self, rad: "FieldScalar"):
        """Write self as q0 + q1*rad with rational q0, q1, if possible."""
        idx, rv = next(((p, v) for p, v in rad.terms if p), (None, None))
        if idx is None:
            return None
        q1 = Fraction(dict(self.terms).get(idx, 0), self.den) / Fraction(rv, rad.den)
        residue = self - FieldScalar.from_rational(self.m, q1) * rad
        if residue.is_rational():
            return residue.rational_value(), q1
        return None

    def _json_coeffs(self) -> list[list[int]]:
        """[numerator, denominator] of every basis coefficient, zeros included;
        the zeros share one [0, 1] list, so the pairs must not be mutated."""
        out = [[0, 1]] * _field(self.m).phi
        for p, v in self.terms:
            g = math.gcd(v, self.den)
            out[p] = [v // g, self.den // g]
        return out

    def to_json(self) -> dict:
        return {"conductor": self.m, "coeffs": self._json_coeffs()}


def _format_term(coeff: Fraction, sym: str, first: bool) -> str:
    sign = "-" if coeff < 0 else ("" if first else "+")
    sep = "" if first else " "
    mag = abs(coeff)
    body = sym if mag == 1 and sym != "1" else (str(mag) if sym == "1" else f"{mag}*{sym}")
    if first:
        return f"{sign}{body}"
    return f" {sign}{sep}{body}"


def _format_linear(q0: Fraction, q1: Fraction, rad: str) -> str:
    parts = []
    if q0 != 0:
        parts.append(_format_term(q0, "1", first=True))
    if q1 != 0:
        parts.append(_format_term(q1, rad, first=not parts))
    return "".join(parts) if parts else "0"


class Quaternion:
    """a + b*i + c*j + d*k over one cyclotomic field."""

    __slots__ = ("a", "b", "c", "d", "_hash")

    def __init__(self, a: FieldScalar, b: FieldScalar, c: FieldScalar, d: FieldScalar):
        if not (a.m == b.m == c.m == d.m):
            raise ValueError("quaternion components must share one conductor")
        self.a, self.b, self.c, self.d = a, b, c, d
        self._hash = hash((a, b, c, d))

    # -- constructors -------------------------------------------------

    @classmethod
    def from_rationals(cls, m: int, vals: Sequence) -> "Quaternion":
        return cls(*(FieldScalar.from_rational(m, v) for v in vals))

    @classmethod
    def one(cls, m: int) -> "Quaternion":
        return cls.from_rationals(m, (1, 0, 0, 0))

    @classmethod
    def zero(cls, m: int) -> "Quaternion":
        return cls.from_rationals(m, (0, 0, 0, 0))

    @classmethod
    def unit(cls, m: int, axis: str) -> "Quaternion":
        vals = {"1": (1, 0, 0, 0), "i": (0, 1, 0, 0), "j": (0, 0, 1, 0), "k": (0, 0, 0, 1)}[axis]
        return cls.from_rationals(m, vals)

    @property
    def conductor(self) -> int:
        return self.a.m

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: "Quaternion") -> "Quaternion":
        return Quaternion(self.a + other.a, self.b + other.b, self.c + other.c, self.d + other.d)

    def __sub__(self, other: "Quaternion") -> "Quaternion":
        return Quaternion(self.a - other.a, self.b - other.b, self.c - other.c, self.d - other.d)

    def __neg__(self) -> "Quaternion":
        return Quaternion(-self.a, -self.b, -self.c, -self.d)

    def __mul__(self, other: "Quaternion") -> "Quaternion":
        a1, b1, c1, d1 = self.a, self.b, self.c, self.d
        a2, b2, c2, d2 = other.a, other.b, other.c, other.d
        m = a1.m
        if a2.m != m:
            raise ValueError(f"conductor mismatch: {m} vs {a2.m}")
        return Quaternion(
            _products(m, ((1, a1, a2), (-1, b1, b2), (-1, c1, c2), (-1, d1, d2))),
            _products(m, ((1, a1, b2), (1, b1, a2), (1, c1, d2), (-1, d1, c2))),
            _products(m, ((1, a1, c2), (-1, b1, d2), (1, c1, a2), (1, d1, b2))),
            _products(m, ((1, a1, d2), (1, b1, c2), (-1, c1, b2), (1, d1, a2))),
        )

    def __pow__(self, exp: int) -> "Quaternion":
        if exp < 0:
            raise ValueError(f"negative exponent {exp}: no inverse (a unit's is its conjugate)")
        result = Quaternion.one(self.conductor)
        base = self
        while exp:
            if exp & 1:
                result = result * base
            base = base * base
            exp >>= 1
        return result

    def conjugate(self) -> "Quaternion":
        return Quaternion(self.a, -self.b, -self.c, -self.d)

    def norm(self) -> FieldScalar:
        """Reduced norm a^2 + b^2 + c^2 + d^2 (a field scalar)."""
        a, b, c, d = self.a, self.b, self.c, self.d
        return _products(a.m, ((1, a, a), (1, b, b), (1, c, c), (1, d, d)))

    def lift(self, big_m: int) -> "Quaternion":
        return Quaternion(self.a.lift(big_m), self.b.lift(big_m), self.c.lift(big_m), self.d.lift(big_m))

    # -- protocol -----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Quaternion):
            return NotImplemented
        return (self.a, self.b, self.c, self.d) == (other.a, other.b, other.c, other.d)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Quaternion({self.render()!r})"

    def render(self) -> str:
        parts = []
        for scalar, sym in ((self.a, ""), (self.b, "i"), (self.c, "j"), (self.d, "k")):
            if scalar.is_zero():
                continue
            body = scalar.render()
            if sym:
                body = f"({body})*{sym}" if any(op in body for op in " +-") and len(body) > 2 else f"{body}*{sym}"
                if body.startswith("1*"):
                    body = body[2:]
                elif body.startswith("-1*"):
                    body = "-" + body[3:]
            if parts and not body.startswith("-"):
                parts.append("+ " + body)
            elif parts:
                parts.append("- " + body[1:])
            else:
                parts.append(body)
        return " ".join(parts) if parts else "0"

    def to_json(self) -> dict:
        return {
            "conductor": self.conductor,
            "coeffs": [s._json_coeffs() for s in (self.a, self.b, self.c, self.d)],
        }


def embedded_circle_element(m: int, order: int, k: int) -> Quaternion:
    """cos(2*pi*k/order) + sin(2*pi*k/order)*i as an exact quaternion.

    Requires order | m and 4 | m (the sine needs zeta_4 in the field).  With
    s = (m/order)*k, both components are read off the tabulated powers of
    zeta_m, without a product: cos = (zeta_m^s + zeta_m^-s)/2 and
    sin = (zeta_m^(m/4-s) - zeta_m^(m/4+s))/2, as i = zeta_m^(m/4).
    """
    if m % order or m % 4:
        raise ValueError(f"conductor {m} must be divisible by 4 and by {order}")
    s, pows = m // order * k, _field(m).pows

    def half_sum(p: int, q: int, sign: int) -> FieldScalar:
        acc = dict(pows[p % m])
        for i, v in pows[q % m]:
            acc[i] = acc.get(i, 0) + sign * v
        return _scalar(m, acc, 2)

    zero = _scalar(m, {}, 1)
    return Quaternion(half_sum(s, -s, 1), half_sum(m // 4 - s, m // 4 + s, -1), zero, zero)
