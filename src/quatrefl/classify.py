"""The classification pipeline: index sets, per-K records, isomorphisms.

Dicyclic reflection groups carry index quadruples [n, a, b, r] of order 8nr;
polyhedral ones carry (K, |L|, H) labels.  Records are deduplicated up to
simultaneous translation/automorphism of (L, H), which is what "the same
canonical label" means for subgroups of the all-of-K group.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from dataclasses import dataclass
from typing import Optional, Sequence

from .groups import (
    FiniteQuaternionGroup,
    Subgroup,
    _automorphism_search,
    _generate,
    build_group,
    default_max_order,
    normal_subgroups,
)
from .numutil import divisor_count, divisors, is_square
from .refsystems import (
    DicyclicIndex,
    ReflectionSystem,
    dicyclic_element,
    dicyclic_system,
    enumerate_systems,
    omega_set,
)
from .refgroups import (
    ReflectionGroup,
    build_reflection_group,
    is_canonical,
    isomorphism_search,
    reflection_orbit_types,
    verify_isomorphism,
)


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


@dataclass(frozen=True)
class ClassificationRecord:
    family: str                 # 'polyhedral' | 'dicyclic' | 'dicyclic-special'
    K_name: str
    L_size: int
    H_name: str
    order: int
    reflections: int
    orbit_types: str
    canonical: bool
    label: tuple
    iso_partner: Optional[str] = None

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
        for b in divs[i:]:
            if math.gcd(a, b) == 1:
                out.append(new(IndexQuadruple, (n, a, b, n // (a * b))))
                if (a * b) % 2 == 1:
                    out.append(new(IndexQuadruple, (n, a, b, 2 * n // (a * b))))
    return out


def lambda_count_formula(n: int) -> int:
    """|Lambda_n| = tau(2 n^2) / 2 + 1."""
    return divisor_count(2 * n * n) // 2 + 1


# -- per-K classification ----------------------------------------------------


def _dedup_subgroups(L: ReflectionSystem, subgroups: list[Subgroup]) -> list[Subgroup]:
    """One representative H per orbit of the pairs (L, H) under K x| Aut(K)."""
    seen: set[frozenset] = set()
    kept = []
    for H in subgroups:
        if H.member_set() not in seen:
            kept.append(H)
            seen |= _paired_images(L, H)
    return kept


def _paired_images(L: ReflectionSystem, H: Subgroup) -> set[frozenset]:
    """The H' with (L, H') in the orbit of (L, H) under K x| Aut(K).

    Translations move only L, automorphisms move both, so these are the
    phi(H) for the phi that carry L to a member translate of L.
    """
    K, L_set = L.parent, L.member_set()
    maps = [(phi, phi) for phi in _automorphism_search(K)[1]]
    maps += [(K.cayley[x], None) for x in K.generating_sequence()]

    def act(pair, f):
        (S, T), (on_S, on_T) = pair, f
        return frozenset(on_S[t] for t in S), T if on_T is None else frozenset(on_T[t] for t in T)

    return {T for S, T in _generate((L_set, H.member_set()), maps, act)[0] if S == L_set}


def classify_K(K: FiniteQuaternionGroup) -> list[ClassificationRecord]:
    """Base and higher-order canonical groups for every system class of K.

    Each group is built from a pair (H, gamma) with L_gamma = L that
    ``enumerate_systems`` kept: H_L first, then one H per class under
    K x| Aut(K).  The records are cached on K; each call returns a fresh list.
    """
    if K._records is None:
        records: list[ClassificationRecord] = []
        for L in enumerate_systems(K):
            gammas = dict(K._system_pairs[L.member_set()])
            H_L, *higher = gammas
            for H in [H_L] + _dedup_subgroups(L, higher):
                G = ReflectionGroup(L, H, gammas[H])
                if not is_canonical(G):
                    raise AssertionError(
                        f"classification produced a non-canonical record for {K.name}")
                records.append(_record_from_group(G))
        records.sort(key=lambda rec: (rec.order, rec.label_str()))
        K._records = records
    return list(K._records)


def _record_from_group(G: ReflectionGroup) -> ClassificationRecord:
    K, L, H = G.K, G.L, G.H
    label: tuple
    if K.tag == "dicyclic":
        family = "dicyclic"
        idx = _dicyclic_label(K, L, H)
        if idx is None:
            family = "dicyclic-special"
            label = (K.name, K.name, H.name)
        else:
            label = (idx.n, idx.a, idx.b, idx.r)
    else:
        family = "polyhedral" if K.tag in ("T", "O", "I") else "cyclic"
        label = (K.name, L.size, H.name)
    return ClassificationRecord(
        family=family,
        K_name=K.name,
        L_size=L.size,
        H_name=H.name,
        order=G.order,
        reflections=G.reflection_count(),
        orbit_types=reflection_orbit_types(G).render(),
        canonical=is_canonical(G),
        label=label,
    )


def _dicyclic_label(K: FiniteQuaternionGroup, L: ReflectionSystem,
                    H: Subgroup) -> Optional[IndexQuadruple]:
    """Match (L, H) to [n, a, b, r]; None for the nonabelian-H rows."""
    if H.name.startswith("D") or H.name == "Q8":
        return None
    idx = next(idx for idx in omega_set(K.n) if idx.size == L.size)
    return IndexQuadruple(K.n, idx.a, idx.b, H.order)


def group_for_record(rec: ClassificationRecord) -> ReflectionGroup:
    """Build the reflection group behind a record."""
    if rec.family == "dicyclic":
        return build_index_group(IndexQuadruple(*rec.label))
    if rec.family == "polyhedral":
        K = build_group(rec.K_name)
    else:  # 'cyclic' (C<n>) or 'dicyclic-special' (D<n>)
        K = build_group("cyclic" if rec.family == "cyclic" else "dicyclic", int(rec.K_name[1:]))
    L = next(S for S in enumerate_systems(K) if S.size == rec.L_size)
    H = next(S for S in normal_subgroups(K) if S.name == rec.H_name)
    return build_reflection_group(K, L, H)


def build_index_group(idx: IndexQuadruple) -> ReflectionGroup:
    """Honest construction of G(n, a, b, r) inside the dicyclic group."""
    K = build_group("dicyclic", idx.n)
    L = dicyclic_system(DicyclicIndex(idx.n, idx.a, idx.b))
    gen = K.subgroup_closure([dicyclic_element(K, 2 * idx.n // idx.r, 0)]) if idx.r > 1 else (0,)
    H = Subgroup(K, gen)
    return build_reflection_group(K, L, H, label=(idx.n, idx.a, idx.b, idx.r))


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


def polyhedral_records() -> tuple[ClassificationRecord, ...]:
    """The records of T, O and I, from ``classify_K``'s cache on each group."""
    out = []
    for tag in ("T", "O", "I"):
        out.extend(classify_K(build_group(tag)))
    return tuple(out)


# -- scans -------------------------------------------------------------------


def order_scan(order: int) -> list[ClassificationRecord]:
    """All imprimitive rank-two records of a given order, both families."""
    records = []
    if order % 8 == 0:
        for n in divisors(order // 8)[1:]:
            r = order // (8 * n)
            records.extend(dicyclic_record(idx) for idx in lambda_set(n) if idx.r == r)
    if order % 32 == 0 and is_square(order // 32):
        m = math.isqrt(order // 32)
        if m >= 2:
            records.append(dicyclic_special_record(m, half=False))
    if order % 16 == 0 and is_square(order // 16):
        m = math.isqrt(order // 16)
        # m = 2 would duplicate [2,1,1,4]: D_1 = <w^2, j> is the cyclic C4
        if m >= 4 and m % 2 == 0:
            records.append(dicyclic_special_record(m, half=True))
    records.extend(rec for rec in polyhedral_records() if rec.order == order)
    records.sort(key=lambda rec: (rec.family, rec.label_str()))
    return records


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


def cohen_index(line: int, m: int, l: Optional[int] = None,
                r: Optional[int] = None) -> IndexQuadruple:
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


# -- isomorphisms ------------------------------------------------------------


@dataclass(frozen=True)
class IsomorphismResult:
    label1: str
    label2: str
    map_summary: str


def the_polyhedral_isomorphism():
    """The verified map between the order-96 octahedral and tetrahedral groups.

    Uses the literal seed systems: L14 in O is L12 of T together with the two
    antidiagonal reflections over (j-k)/sqrt2 and its negative; the map fixes
    the common reflections and sends the (j-k)/sqrt2 one to diag(-1, 1).
    """
    from fractions import Fraction

    from .exactarith import FieldScalar, Quaternion
    from .refsystems import close_system

    T = build_group("T")
    O = build_group("O")
    half = Fraction(1, 2)
    zeta_T = T.index[Quaternion.from_rationals(4, (half,) * 4)]
    i_T = T.index[Quaternion.unit(4, "i")]
    L12 = close_system(T, (0, i_T, zeta_T))

    s = FieldScalar.sqrt2(8) * FieldScalar.from_rational(8, half)
    zero = FieldScalar.zero(8)
    u = O.index[Quaternion(zero, zero, s, -s)]  # (j - k)/sqrt2
    zeta_O = O.index[Quaternion.from_rationals(8, (half,) * 4)]
    i_O = O.index[Quaternion.unit(8, "i")]
    L14 = close_system(O, (0, i_O, zeta_O, u))

    C2_T = next(S for S in normal_subgroups(T) if S.order == 2)
    triv_O = next(S for S in normal_subgroups(O) if S.order == 1)
    G_O = build_reflection_group(O, L14, triv_O)
    G_T = build_reflection_group(T, L12, C2_T)

    lift = {q.lift(8): T.index[q] for q in T.elements}
    minus_one_T = T.index[Quaternion.from_rationals(4, (-1, 0, 0, 0))]
    pairs = [((u, O.inv[u], 1), (minus_one_T, 0, 0))]
    for b in L14.members:
        val = O.elements[b]
        if val in lift:
            t = lift[val]
            pairs.append(((b, O.inv[b], 1), (t, T.inv[t], 1)))
    return G_O, G_T, pairs


def the_dicyclic_family_isomorphism(n: int):
    """The verified map G(n,1,n,2) -> G(2n,2,n,1) for odd n."""
    if n % 2 == 0:
        raise ValueError("the family needs odd n")
    G1 = build_index_group(IndexQuadruple(n, 1, n, 2))
    G2 = build_index_group(IndexQuadruple(2 * n, 2, n, 1))
    K1, K2 = G1.K, G2.K

    def refl(K, idx):
        return (idx, K.inv[idx], 1)

    minus1 = dicyclic_element(K1, n, 0)
    pairs = [
        (refl(K1, 0), refl(K2, 0)),
        (refl(K1, dicyclic_element(K1, 1, 0)), refl(K2, dicyclic_element(K2, 2, 0))),
        (refl(K1, dicyclic_element(K1, 0, 1)), refl(K2, dicyclic_element(K2, 0, 1))),
        ((0, minus1, 0), refl(K2, dicyclic_element(K2, n, 1))),
    ]
    return G1, G2, pairs


def find_isomorphisms(records: Sequence[ClassificationRecord]) -> list[IsomorphismResult]:
    """Verified isomorphic pairs among the given records.

    Pairs with different reflection-orbit types are dropped without building
    anything; the two known patterns get their explicit maps; any other pair
    of an order within ``default_max_order()`` is settled by
    ``isomorphism_search`` (bounded), which drops pairs with different
    element-order censuses first.  The orbit-type pre-filter is a
    formula-level invariant of the reflection groups, not of the abstract
    groups; it stays until the printed output changes to give every pair a
    verdict.
    """
    buckets: dict[tuple[int, int], list[ClassificationRecord]] = {}
    for rec in records:
        buckets.setdefault((rec.order, rec.reflections), []).append(rec)
    results = []
    for _, bucket in sorted(buckets.items()):
        for r1, r2 in itertools.combinations(bucket, 2):
            result = _settle_pair(r1, r2)
            if result is not None:
                results.append(result)
    return results


def _settle_pair(r1: ClassificationRecord, r2: ClassificationRecord) -> Optional[IsomorphismResult]:
    """The verdict on two records of one order and reflection count."""
    # cheap formula-level invariants first
    if r1.orbit_multiset() != r2.orbit_multiset():
        return None
    known = _known_pair(r1, r2)
    if known is not None:
        G1, G2, pairs = known
        if not verify_isomorphism(G1, G2, pairs):
            raise AssertionError(f"explicit map failed for {r1.label_str()} ~ {r2.label_str()}")
        return IsomorphismResult(r1.label_str(), r2.label_str(),
                                 f"explicit map on {len(pairs)} generators")
    if r1.order > default_max_order():
        return None
    G1, G2 = group_for_record(r1), group_for_record(r2)
    found = isomorphism_search(G1, G2)
    if found is None:
        return None
    return IsomorphismResult(r1.label_str(), r2.label_str(),
                             f"search found map on {len(found)} generators")


def _known_pair(r1: ClassificationRecord, r2: ClassificationRecord):
    """(G1, G2, generator map) for a pair of the two known patterns, else None."""
    if {r1.label, r2.label} == {("T", 12, "C2"), ("O", 14, "1")}:
        return the_polyhedral_isomorphism()
    if r1.family == r2.family == "dicyclic":
        l1, l2 = sorted((r1.label, r2.label))
        n = l1[0]
        if n % 2 == 1 and l1 == (n, 1, n, 2) and l2 == (2 * n, 2, n, 1):
            return the_dicyclic_family_isomorphism(n)
    return None


# -- the corollary search ----------------------------------------------------


@dataclass(frozen=True)
class CorollaryPair:
    idx1: IndexQuadruple
    idx2: IndexQuadruple
    c: int
    certificate: str

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
    """
    if kind not in ("i", "ii"):
        raise ValueError(f"kind must be 'i' or 'ii', got {kind!r}")
    # n = scale * a * b with a <= b: both odd and a != 1 for (i); a stops
    # once no b >= a keeps n within max_n
    first, step, scale = (3, 2, 1) if kind == "i" else (1, 1, 2)
    out = []
    for a in range(first, math.isqrt(max_n // scale) + 1, step):
        for b in range(a, max_n // (scale * a) + 1, step):
            if math.gcd(a, b) != 1:
                continue
            s = scale * (a + b) + 1
            disc = s * s - 8 * scale * a * b
            if disc < 0:
                continue
            c = math.isqrt(disc)
            if c * c != disc or c % 2 == 0:
                continue
            pair = _validated_pair(scale * a * b, a, b, (s - c) // 2, (s + c) // 2, c)
            if pair is not None:
                out.append(pair)
    out.sort(key=lambda p: (p.idx1.n, p.idx1.a, p.idx1.b))
    return out


def _validated_pair(n, a, b, a2, b2, c) -> Optional[CorollaryPair]:
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
