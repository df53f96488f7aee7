"""The closed forms over Omega_n and Lambda_n: index types, records and searches.

A dicyclic reflection group over D_n has an index [n, a, b, r] of order 8nr:
(a, b) is a pair of Omega_n (``DicyclicIndex``) and [n, a, b, r] a member of
Lambda_n (``IndexQuadruple``).  Everything here is formula-level (the index
sets and their counts, the records of ``classify --index`` and of the order
scans, the classical five-line parametrization and the equal-invariant pair
search), so it builds no group and imports no other layer: a command that
needs only these loads ``numutil`` and this module.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .numutil import divisor_count, divisors, prime_factorization


class DicyclicIndex(namedtuple("DicyclicIndex", "n a b")):
    """A pair (a, b) in Omega_n: coprime divisors of n with a <= b.

    An immutable tuple (n, a, b), checked when built by calling the class,
    by ``_make`` or by ``_replace``; ``omega_set`` builds its entries, valid
    by construction, unchecked.
    """

    __slots__ = ()

    def __new__(cls, n: int, a: int, b: int):
        if not (1 <= a <= b <= n and n % a == 0 and n % b == 0 and math.gcd(a, b) == 1):
            raise ValueError(f"({a},{b}) is not a valid index pair for n={n}")
        return tuple.__new__(cls, (n, a, b))

    @classmethod
    def _make(cls, iterable):  # namedtuple's _replace goes through _make
        return cls(*iterable)

    @property
    def size(self) -> int:
        return 2 * self.n // self.a + 2 * self.n // self.b


def omega_set(n: int) -> list[DicyclicIndex]:
    """All (a, b) with a <= b, a | n, b | n, gcd(a, b) = 1."""
    if n < 2:
        raise ValueError(f"omega_set needs n >= 2, got {n}")
    divs = divisors(n)  # ascending, so the pairs come out sorted by (a, b)
    new = tuple.__new__  # every entry is valid by construction: no check
    out = []
    for i, a in enumerate(divs):
        if a * a > n:  # coprime divisors a <= b of n have a b | n
            break
        m = n // a
        for b in divs[i:]:
            if b > m:
                break
            if math.gcd(a, b) == 1:
                out.append(new(DicyclicIndex, (n, a, b)))
    return out


def omega_count_formula(n: int) -> int:
    """|Omega_n| = ((prod of (2*alpha_j + 1)) + 1) / 2 over the factorization."""
    prod = 1
    for alpha in prime_factorization(n).values():
        prod *= 2 * alpha + 1
    return (prod + 1) // 2


class IndexQuadruple(namedtuple("IndexQuadruple", "n a b r")):
    """Label [n, a, b, r] of a dicyclic reflection group of order 8nr.

    An immutable tuple of its four fields, checked when built by calling the
    class, by ``_make`` or by ``_replace``; code that builds an index valid by
    construction calls ``tuple.__new__(IndexQuadruple, (n, a, b, r))`` and
    skips the check.
    """

    __slots__ = ()

    def __new__(cls, n: int, a: int, b: int, r: int):
        DicyclicIndex(n, a, b)  # checks the pair
        if a * b * r != n and not (a * b * r == 2 * n and a * b % 2 == 1):
            raise ValueError(f"[{n},{a},{b},{r}] is not a valid index")
        return tuple.__new__(cls, (n, a, b, r))

    @classmethod
    def _make(cls, iterable):  # namedtuple's _replace goes through _make
        return cls(*iterable)

    @property
    def is_higher(self) -> bool:
        return self.a * self.b * self.r == 2 * self.n

    @property
    def order(self) -> int:
        return 8 * self.n * self.r

    @property
    def reflections(self) -> int:
        return 2 * self.r + 2 * self.n // self.a + 2 * self.n // self.b - 2

    @property
    def L_size(self) -> int:
        return 2 * self.n // self.a + 2 * self.n // self.b

    @property
    def H_name(self) -> str:
        return f"C{self.r}" if self.r > 1 else "1"

    def orbit_entries(self) -> tuple[tuple[int, str], ...]:
        """Closed-form reflection-orbit types (validated against direct
        computation for n <= 12 in the test suite)."""
        n, a, b = self.n, self.a, self.b
        entries: list[tuple[int, str]] = []
        if self.r > 1:
            entries.append((2, self.H_name))
        nondiag: list[int] = []
        for side in (a, b):
            if (n // side) % 2 == 1 or self.is_higher:
                nondiag.append(2 * n // side)
            else:
                nondiag.extend([n // side, n // side])
        entries.extend((s, "C2") for s in sorted(nondiag))
        return tuple(entries)

    def render(self) -> str:
        return f"[{self.n},{self.a},{self.b},{self.r}]"

    def as_list(self) -> list[int]:
        return list(self)


class ClassificationRecord(namedtuple(
        "ClassificationRecord",
        "family K_name L_size H_name order reflections orbit_types canonical label iso_partner",
        defaults=(None,))):
    """One row of the classification, an immutable tuple of its fields.

    ``family`` is 'polyhedral', 'cyclic', 'dicyclic' or 'dicyclic-special';
    ``label`` is [n, a, b, r] as a tuple for 'dicyclic' and (K, |L|, H)
    otherwise; ``iso_partner`` is set (by ``_replace``) to the label of an
    isomorphic record, if any.
    """

    __slots__ = ()

    def label_str(self) -> str:
        if self.family == "dicyclic":
            return "[" + ",".join(str(v) for v in self.label) + "]"
        K, L, H = self.label
        return f"G_{K}(L{L},{H})" if self.family == "polyhedral" else f"G_{K}({L},{H})"

    def orbit_multiset(self) -> tuple:
        out = []
        for part in self.orbit_types.split(","):
            if not part:
                continue
            i = 0
            while i < len(part) and part[i].isdigit():
                i += 1
            out.append((int(part[:i]), part[i:]))
        return tuple(sorted(out))

    def to_json(self) -> dict:
        return {
            "family": self.family,
            "label": self.label_str(),
            "K": self.K_name,
            "L": self.L_size,
            "H": self.H_name,
            "order": self.order,
            "reflections": self.reflections,
            "orbit_types": self.orbit_types,
            "canonical": self.canonical,
            "iso_partner": self.iso_partner,
        }


# -- index sets ------------------------------------------------------------


def lambda_set(n: int) -> list[IndexQuadruple]:
    """Base indices [n,a,b,n/ab] plus higher indices [n,a,b,2n/ab] for ab odd."""
    if n < 2:
        raise ValueError(f"lambda_set needs n >= 2, got {n}")
    divs = divisors(n)
    new = tuple.__new__  # every entry is valid by construction: no check
    out = []
    for i, a in enumerate(divs):
        if a * a > n:  # coprime divisors a <= b of n have a b | n
            break
        m = n // a
        for b in divs[i:]:
            if b > m:
                break
            if math.gcd(a, b) == 1:
                r = m // b  # n / ab
                out.append(new(IndexQuadruple, (n, a, b, r)))
                if (a * b) % 2 == 1:
                    out.append(new(IndexQuadruple, (n, a, b, 2 * r)))
    return out


def lambda_count_formula(n: int) -> int:
    """|Lambda_n| = tau(2 n^2) / 2 + 1."""
    return divisor_count(2 * n * n) // 2 + 1


# -- formula records ---------------------------------------------------------


def dicyclic_record(idx: IndexQuadruple) -> ClassificationRecord:
    """Formula-based record for [n,a,b,r] (no group construction)."""
    orbit = idx.orbit_entries()
    return ClassificationRecord(
        family="dicyclic",
        K_name=f"D{idx.n}",
        L_size=idx.L_size,
        H_name=idx.H_name,
        order=idx.order,
        reflections=idx.reflections,
        orbit_types=",".join(f"{s}{t}" for s, t in orbit),
        canonical=True,
        label=(idx.n, idx.a, idx.b, idx.r),
    )


def dicyclic_special_record(n: int, half: bool) -> ClassificationRecord:
    """The L = K = D_n rows with nonabelian H: H = D_n or (n even) H = D_{n/2}."""
    if half:
        if n % 2 or n < 4:
            raise ValueError("the half-H row needs even n >= 4")
        order, refl = 16 * n * n, 8 * n - 2
        h_name = "Q8" if n == 4 else f"D{n // 2}"
    else:
        order, refl = 32 * n * n, 12 * n - 2
        h_name = "Q8" if n == 2 else f"D{n}"
    return ClassificationRecord(
        family="dicyclic-special",
        K_name=f"D{n}",
        L_size=4 * n,
        H_name=h_name,
        order=order,
        reflections=refl,
        orbit_types=f"2{h_name},{4 * n}C2",
        canonical=True,
        label=(f"D{n}", f"D{n}", h_name),
    )


# -- the classical parametrization ---------------------------------------------


def missing_from_cohen(max_n: int) -> list[IndexQuadruple]:
    """Indices in Lambda_n absent from the classical seven-line parametrization:
    (a,b) != (1,1), r != 2, r does not divide n, r divides 2n."""
    out = []
    for n in range(2, max_n + 1):
        for idx in lambda_set(n):
            if (idx.a, idx.b) == (1, 1):
                continue
            if idx.r == 2 or n % idx.r == 0 or (2 * n) % idx.r != 0:
                continue
            out.append(idx)
    out.sort(key=lambda q: (q.n, q.a, q.b, q.r))
    return out


def cohen_index(line: int, m: int, l: int | None = None,
                r: int | None = None) -> IndexQuadruple:
    """Index quadruple for one line of the classical table, normalized a <= b.

    Lines 1..5 are, in order: the (1,1)-higher row, the even-H and odd-H
    base rows over D_{2ml} / D_{(2m+1)l}, the C2 rows over D_{2m+1}, and the
    H = 1 base rows over D_m.
    """
    def norm(n, a, b, rr):
        a, b = min(a, b), max(a, b)
        return IndexQuadruple(n, a, b, rr)

    if line == 1:
        if m < 2:
            raise ValueError("line 1 needs m >= 2")
        return norm(m, 1, 1, 2 * m)
    if line in (2, 3):
        if l is None or r is None:
            raise ValueError(f"line {line} needs parameters l and r")
        if not (0 <= r <= l and r % 2 == 1):
            raise ValueError(f"line {line} needs odd r with 0 <= r <= l")
        if l != math.gcd(l, (r + 1) // 2) * math.gcd(l, (r - 1) // 2):
            raise ValueError(f"line {line} constraint l = gcd*gcd fails")
        h = 2 * m if line == 2 else 2 * m + 1
        n = h * l
        return norm(n, math.gcd(l, (r - 1) // 2), math.gcd(l, (r + 1) // 2), h)
    if line == 4:
        if r is None:
            raise ValueError("line 4 needs parameter r")
        n = 2 * m + 1
        if not 0 <= r <= m:
            raise ValueError("line 4 needs 0 <= r <= m")
        if n != math.gcd(n, r + 1) * math.gcd(n, r - 1):
            raise ValueError("line 4 constraint 2m+1 = gcd*gcd fails")
        return norm(n, math.gcd(n, r - 1), math.gcd(n, r + 1), 2)
    if line == 5:
        if r is None:
            raise ValueError("line 5 needs parameter r")
        if not (0 <= r <= m and r % 2 == 1):
            raise ValueError("line 5 needs odd r with 0 <= r <= m")
        if m != math.gcd(m, (r + 1) // 2) * math.gcd(m, (r - 1) // 2):
            raise ValueError("line 5 constraint m = gcd*gcd fails")
        return norm(m, math.gcd(m, (r - 1) // 2), math.gcd(m, (r + 1) // 2), 1)
    raise ValueError(f"unknown table line {line}")


def cohen_covered_indices(n: int) -> set[IndexQuadruple]:
    """Every [n,a,b,r] the five-line parametrization produces for this n."""
    out: set[IndexQuadruple] = set()
    if n >= 2:
        out.add(cohen_index(1, n))
    for line, h_of_m in ((2, lambda m: 2 * m), (3, lambda m: 2 * m + 1)):
        for m in range(1, n + 1):
            h = h_of_m(m)
            if n % h:
                continue
            l = n // h
            for r in range(1, l + 1, 2):
                try:
                    out.add(cohen_index(line, m, l, r))
                except ValueError:
                    pass
    if n % 2 == 1 and n >= 3:
        m = (n - 1) // 2
        for r in range(0, m + 1):
            try:
                out.add(cohen_index(4, m, r=r))
            except ValueError:
                pass
    for r in range(1, n + 1, 2):
        try:
            out.add(cohen_index(5, n, r=r))
        except ValueError:
            pass
    return out


# -- the corollary search ----------------------------------------------------


class CorollaryPair(namedtuple("CorollaryPair", "idx1 idx2 c certificate")):
    """Two indices of equal order and reflection count that are not isomorphic."""

    __slots__ = ()

    def to_json(self) -> dict:
        return {
            "pair": [self.idx1.as_list(), self.idx2.as_list()],
            "c": self.c,
            "order": self.idx1.order,
            "reflections": self.idx1.reflections,
            "certificate": self.certificate,
        }


def corollary_pair_search(max_n: int, kind: str) -> list[CorollaryPair]:
    """Equal-order, equal-reflection-count, non-isomorphic index pairs.

    kind 'i':  n = ab odd with a != 1, discriminant (a+b+1)^2 - 8ab = c^2;
    kind 'ii': n = 2ab, discriminant (2(a+b)+1)^2 - 16ab = c^2.  The partner
    lives at 2n with r = 1.  Both have order 16n and 2s reflections, and
    their orbit-type multisets differ, the pair's certificate: in (i) the
    first index's orbit sizes 2, 2a, 2b are distinct, while the partner's
    repeat (the even one of its a, b gives two equal orbits); in (ii) the two
    have 5 and 3 entries.  Each pair is checked, by an AssertionError.

    For each a, the b with a square discriminant come from the factor pairs
    d * e = M, d < e of equal parity, of a number M fixed by a, with no scan
    over b:

    (i)  with s = a + b + 1 and u = b - 3a + 1, s^2 - u^2 = 8a(b - a + 1), so
         the discriminant is u^2 - 8a(a-1).  It is c^2 iff (|u| - c)(|u| + c)
         = 8a(a-1) = M, so c = (e - d)/2 and |u| = (d + e)/2 >= sqrt(M)
         > 2a - 1 for a >= 3.  u < 0 would put b = 3a - 1 - |u| below a,
         so b = 3a - 1 + (d + e)/2;
    (ii) with s = 2(a+b) + 1 and u = 2(b - a) + 1 >= 1, s^2 - u^2 = 16ab + 8a,
         so the discriminant is u^2 + 8a.  It is c^2 iff (c - u)(c + u) =
         8a = M, so u = (e - d)/2, which must be odd, c = (d + e)/2 and
         b = a + (u - 1)/2.

    M is even, so d and e are both even: d = 2f and e = 2g with fg = M/4,
    and the halves above are g - f and f + g.  Each such b is at least a;
    then, as for any b, b must be at most max_n // (scale a), be odd in (i)
    and coprime to a, and c must be odd.  a and a - 1 are coprime, so the
    divisors of M/4 come from the factorizations of a and a - 1 by trial
    division up to sqrt(a), and the search takes about max_n^(3/4) steps
    over a <= sqrt(max_n).
    """
    if kind not in ("i", "ii"):
        raise ValueError(f"kind must be 'i' or 'ii', got {kind!r}")
    # n = scale * a * b with a <= b: both odd and a != 1 for (i); a stops
    # once no b >= a keeps n within max_n
    first, step, scale = (3, 2, 1) if kind == "i" else (1, 1, 2)
    out = []
    for a in range(first, math.isqrt(max_n // scale) + 1, step):
        b_max = max_n // (scale * a)
        for b, c in _square_discriminants(a, kind):
            if b > b_max or (kind == "i" and b % 2 == 0) or c % 2 == 0:
                continue
            if math.gcd(a, b) != 1:
                continue
            s = scale * (a + b) + 1
            pair = _validated_pair(scale * a * b, a, b, (s - c) // 2, (s + c) // 2, c)
            if pair is not None:
                out.append(pair)
    out.sort(key=lambda p: (p.idx1.n, p.idx1.a, p.idx1.b))
    return out


def _square_discriminants(a: int, kind: str) -> list[tuple[int, int]]:
    """Each (b, c), c > 0, whose discriminant for this a and kind is c^2
    and b >= a: one per factor pair f * g = M/4, f < g, in (ii) only those
    with g - f odd (see ``corollary_pair_search``)."""
    factors = prime_factorization(a)
    if kind == "i":  # M/4 = 2a(a-1), a odd and coprime to a - 1
        factors.update(prime_factorization(a - 1))
        quarter = 2 * a * (a - 1)
    else:  # M/4 = 2a
        quarter = 2 * a
    factors[2] = factors.get(2, 0) + 1
    divs = [1]
    for p, k in factors.items():
        divs = [d * p**j for d in divs for j in range(k + 1)]
    out = []
    for f in divs:
        g = quarter // f
        if f >= g:
            continue
        if kind == "i":
            out.append((3 * a - 1 + f + g, g - f))
        elif (g - f) % 2:
            out.append((a + (g - f - 1) // 2, f + g))
    return out


def _validated_pair(n, a, b, a2, b2, c) -> CorollaryPair | None:
    try:
        idx1 = IndexQuadruple(n, a, b, 2)
        idx2 = IndexQuadruple(2 * n, min(a2, b2), max(a2, b2), 1)
    except ValueError:
        return None
    if ((idx1.order, idx1.reflections) != (idx2.order, idx2.reflections)
            or idx1.orbit_entries() == idx2.orbit_entries()):
        raise AssertionError(f"corollary pair {idx1.render()} ~ {idx2.render()} "
                             "differs in order or reflections, or not in orbit types")
    return CorollaryPair(idx1, idx2, c, "orbit-type multisets differ")
