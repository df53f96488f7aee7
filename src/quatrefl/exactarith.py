"""Exact arithmetic for cyclotomic field elements and quaternions over them.

A scalar is an element of Q(zeta_m) stored as the reduced residue modulo the
m-th cyclotomic polynomial: an integer coefficient vector of length phi(m)
over a single positive denominator, with the gcd of everything divided out.
Equality of scalars is equality of these normal forms, so all comparisons in
the package are exact.  No floating point is used anywhere.

Quaternions are 4-tuples of scalars sharing one conductor, multiplied with
the Hamilton rules i^2 = j^2 = k^2 = ijk = -1.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache, reduce
from typing import Iterable, Sequence

from .numutil import divisors

# Rationals are stdlib Fractions: always reduced, positive denominator,
# canonical zero 0/1 -- exactly the invariants the package relies on.
Rational = Fraction


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Integer coefficients of Phi_m, ascending degree; always monic."""
    if m < 1:
        raise ValueError(f"conductor must be positive, got {m}")
    if m == 1:
        return (-1, 1)
    poly = [0] * (m + 1)
    poly[0], poly[m] = -1, 1
    for d in divisors(m):
        if d != m:
            poly = _poly_div_exact(poly, cyclotomic_polynomial(d))
    return tuple(poly)


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
    """Per-conductor reduction data: Phi_m and the reduced powers of zeta_m."""

    __slots__ = ("m", "poly", "phi", "zeta_pows")

    def __init__(self, m: int):
        self.m = m
        self.poly = cyclotomic_polynomial(m)
        self.phi = len(self.poly) - 1
        pows = []
        v = [0] * self.phi
        v[0] = 1
        for _ in range(m):
            pows.append(tuple(v))
            v = [0] + v
            c = v.pop()
            if c:
                for i in range(self.phi):
                    v[i] -= c * self.poly[i]
        self.zeta_pows = pows

    def reduce(self, coeffs: list[int]) -> tuple[int, ...]:
        """Reduce an integer coefficient list modulo Phi_m (in place)."""
        for i in range(len(coeffs) - 1, self.phi - 1, -1):
            c = coeffs[i]
            if c:
                coeffs[i] = 0
                base = i - self.phi
                for k in range(self.phi):
                    coeffs[base + k] -= c * self.poly[k]
        out = coeffs[: self.phi]
        out.extend([0] * (self.phi - len(out)))
        return tuple(out)


@lru_cache(maxsize=None)
def _field(m: int) -> _FieldContext:
    return _FieldContext(m)


def _normalize(nums: Iterable[int], den: int) -> tuple[tuple[int, ...], int]:
    nums = list(nums)
    if den < 0:
        den = -den
        nums = [-v for v in nums]
    g = reduce(math.gcd, nums, den)
    if g > 1:
        den //= g
        nums = [v // g for v in nums]
    return tuple(nums), den


class FieldScalar:
    """An element of Q(zeta_m) in reduced normal form."""

    __slots__ = ("m", "nums", "den", "_hash")

    def __init__(self, m: int, nums: Iterable[int], den: int = 1, _reduced: bool = False):
        ctx = _field(m)
        if not _reduced:
            nums = ctx.reduce(list(nums))
        nums, den = _normalize(nums, den)
        if len(nums) != ctx.phi:
            raise ValueError(f"expected {ctx.phi} coefficients for conductor {m}")
        self.m = m
        self.nums = nums
        self.den = den
        self._hash = hash((m, nums, den))

    # -- constructors -------------------------------------------------

    @classmethod
    def from_rational(cls, m: int, value) -> "FieldScalar":
        value = Fraction(value)
        nums = [0] * _field(m).phi
        nums[0] = value.numerator
        return cls(m, nums, value.denominator, _reduced=True)

    @classmethod
    def zero(cls, m: int) -> "FieldScalar":
        return cls.from_rational(m, 0)

    @classmethod
    def one(cls, m: int) -> "FieldScalar":
        return cls.from_rational(m, 1)

    @classmethod
    def root_of_unity(cls, m: int, k: int) -> "FieldScalar":
        """zeta_m^k as a reduced scalar of conductor m."""
        return cls(m, _field(m).zeta_pows[k % m], 1, _reduced=True)

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
        nums = [a * d2 + b * d1 for a, b in zip(self.nums, other.nums)]
        return FieldScalar(self.m, nums, d1 * d2, _reduced=True)

    def __sub__(self, other: "FieldScalar") -> "FieldScalar":
        self._check(other)
        d1, d2 = self.den, other.den
        nums = [a * d2 - b * d1 for a, b in zip(self.nums, other.nums)]
        return FieldScalar(self.m, nums, d1 * d2, _reduced=True)

    def __neg__(self) -> "FieldScalar":
        return FieldScalar(self.m, [-v for v in self.nums], self.den, _reduced=True)

    def __mul__(self, other: "FieldScalar") -> "FieldScalar":
        self._check(other)
        a, b = self.nums, other.nums
        n = len(a)
        conv = [0] * (2 * n - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        conv[i + j] += ai * bj
        ctx = _field(self.m)
        return FieldScalar(self.m, list(ctx.reduce(conv)), self.den * other.den, _reduced=True)

    def __truediv__(self, other: "FieldScalar") -> "FieldScalar":
        return self * other.inverse()

    def __pow__(self, exp: int) -> "FieldScalar":
        if exp < 0:
            return self.inverse() ** (-exp)
        result = FieldScalar.one(self.m)
        base = self
        while exp:
            if exp & 1:
                result = result * base
            base = base * base
            exp >>= 1
        return result

    def inverse(self) -> "FieldScalar":
        """Multiplicative inverse, by solving x*self = 1 over Q."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero field element")
        ctx = _field(self.m)
        n = ctx.phi
        # columns of the multiplication-by-self matrix in the zeta-power basis
        cols = []
        for i in range(n):
            shifted = [0] * i + list(self.nums)
            cols.append(ctx.reduce(shifted))
        mat = [[Fraction(cols[j][i], self.den) for j in range(n)] for i in range(n)]
        rhs = [Fraction(1 if i == 0 else 0) for i in range(n)]
        sol = _solve_linear(mat, rhs)
        return FieldScalar.from_fractions(self.m, sol)

    # -- structure ----------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.nums)

    def is_rational(self) -> bool:
        return not any(self.nums[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("scalar is not rational")
        return Fraction(self.nums[0], self.den)

    def coeffs(self) -> tuple[Fraction, ...]:
        """Coefficient sequence over the reduced zeta-power basis."""
        return tuple(Fraction(v, self.den) for v in self.nums)

    def complex_conjugate(self) -> "FieldScalar":
        """Galois image under zeta -> zeta^-1 (complex conjugation)."""
        m = self.m
        full = [0] * m
        for i, v in enumerate(self.nums):
            full[(m - i) % m] += v
        return FieldScalar(m, full, self.den)

    def lift(self, big_m: int) -> "FieldScalar":
        """Embed into Q(zeta_M) for m | M via zeta_m = zeta_M^(M/m)."""
        if big_m % self.m:
            raise ValueError(f"cannot lift conductor {self.m} into {big_m}")
        step = big_m // self.m
        full = [0] * ((len(self.nums) - 1) * step + 1)
        for i, v in enumerate(self.nums):
            full[i * step] = v
        return FieldScalar(big_m, full, self.den)

    # -- protocol -----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FieldScalar):
            return NotImplemented
        return self.m == other.m and self.den == other.den and self.nums == other.nums

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
        for i, c in enumerate(self.coeffs()):
            if c == 0:
                continue
            sym = "1" if i == 0 else (f"z{self.m}" if i == 1 else f"z{self.m}^{i}")
            terms.append(_format_term(c, sym, first=not terms))
        return "".join(terms)

    def _in_quadratic_basis(self, rad: "FieldScalar"):
        """Write self as q0 + q1*rad with rational q0, q1, if possible."""
        rc = rad.coeffs()
        idx = next((i for i in range(1, len(rc)) if rc[i] != 0), None)
        if idx is None:
            return None
        q1 = self.coeffs()[idx] / rc[idx]
        residue = self - FieldScalar.from_rational(self.m, q1) * rad
        if residue.is_rational():
            return residue.rational_value(), q1
        return None

    def to_json(self) -> dict:
        return {
            "conductor": self.m,
            "coeffs": [[c.numerator, c.denominator] for c in self.coeffs()],
        }

    @classmethod
    def from_json(cls, data: dict) -> "FieldScalar":
        coeffs = [Fraction(n, d) for n, d in data["coeffs"]]
        return cls.from_fractions(data["conductor"], coeffs)


def _solve_linear(mat: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction]:
    """Gaussian elimination over Q; mat is modified in place."""
    n = len(mat)
    for col in range(n):
        pivot = next((r for r in range(col, n) if mat[r][col] != 0), None)
        if pivot is None:
            raise ArithmeticError("singular system")
        mat[col], mat[pivot] = mat[pivot], mat[col]
        rhs[col], rhs[pivot] = rhs[pivot], rhs[col]
        inv = 1 / mat[col][col]
        mat[col] = [v * inv for v in mat[col]]
        rhs[col] *= inv
        for r in range(n):
            if r != col and mat[r][col] != 0:
                f = mat[r][col]
                mat[r] = [v - f * w for v, w in zip(mat[r], mat[col])]
                rhs[r] -= f * rhs[col]
    return rhs


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
        return Quaternion(
            a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
            a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
            a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
            a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2,
        )

    def __pow__(self, exp: int) -> "Quaternion":
        if exp < 0:
            return self.inverse() ** (-exp)
        result = Quaternion.one(self.conductor)
        base = self
        while exp:
            if exp & 1:
                result = result * base
            base = base * base
            exp >>= 1
        return result

    def scale(self, s: FieldScalar) -> "Quaternion":
        return Quaternion(self.a * s, self.b * s, self.c * s, self.d * s)

    def conjugate(self) -> "Quaternion":
        return Quaternion(self.a, -self.b, -self.c, -self.d)

    def norm(self) -> FieldScalar:
        """Reduced norm a^2 + b^2 + c^2 + d^2 (a field scalar)."""
        return self.a * self.a + self.b * self.b + self.c * self.c + self.d * self.d

    def inverse(self) -> "Quaternion":
        n = self.norm()
        if n.is_zero():
            raise ZeroDivisionError("inverse of zero quaternion")
        if n == FieldScalar.one(self.conductor):
            return self.conjugate()
        return self.conjugate().scale(n.inverse())

    def is_unit(self) -> bool:
        return self.norm() == FieldScalar.one(self.conductor)

    def is_zero(self) -> bool:
        return self.a.is_zero() and self.b.is_zero() and self.c.is_zero() and self.d.is_zero()

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

    def sort_key(self) -> tuple:
        return self.a.coeffs() + self.b.coeffs() + self.c.coeffs() + self.d.coeffs()

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
            "coeffs": [
                [[c.numerator, c.denominator] for c in s.coeffs()]
                for s in (self.a, self.b, self.c, self.d)
            ],
        }

    @classmethod
    def from_json(cls, data: dict) -> "Quaternion":
        m = data["conductor"]
        scalars = [
            FieldScalar.from_fractions(m, [Fraction(n, d) for n, d in comp])
            for comp in data["coeffs"]
        ]
        return cls(*scalars)


def embedded_circle_element(m: int, order: int, k: int) -> Quaternion:
    """cos(2*pi*k/order) + sin(2*pi*k/order)*i as an exact quaternion.

    Requires order | m and 4 | m (the sine needs zeta_4 in the field).
    """
    if m % order or m % 4:
        raise ValueError(f"conductor {m} must be divisible by 4 and by {order}")
    step = m // order
    z = FieldScalar.root_of_unity(m, k * step)
    zbar = FieldScalar.root_of_unity(m, -k * step)
    half = FieldScalar.from_rational(m, Fraction(1, 2))
    zeta4 = FieldScalar.root_of_unity(m, m // 4)
    re = (z + zbar) * half
    im = (z - zbar) * (-zeta4) * half
    zero = FieldScalar.zero(m)
    return Quaternion(re, im, zero, zero)
