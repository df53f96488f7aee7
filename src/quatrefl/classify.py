"""The classification pipeline: per-K records, order scans, isomorphisms.

Dicyclic reflection groups carry index quadruples [n, a, b, r] of order 8nr;
polyhedral ones carry (K, |L|, H) labels.  Records are deduplicated up to
simultaneous translation/automorphism of (L, H), which is what "the same
canonical label" means for subgroups of the all-of-K group.  The groups that
order scans and the known-pair maps build (``build_index_group``, and
``group_for_record``'s cyclic and dicyclic families) live in
``groups.label_group``'s C_n and D_n, which carry no exact values: none of
them prints an element or an index.  ``build_index_group`` reads H =
<w^(2n/r)> from D_n's labels, with no closure.  The index sets, the formula
records and the pair search live in ``indices``; this module imports the
ones it runs, and ``corollary_pair_search``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .groups import (
    FiniteQuaternionGroup,
    Subgroup,
    _generate,
    build_group,
    label_group,
    normal_subgroups,
)
# perfbench/session.py reads classify.corollary_pair_search and
# classify.lambda_set, so both resolve here; this module runs only lambda_set
from .indices import (
    ClassificationRecord,
    DicyclicIndex,
    IndexQuadruple,
    corollary_pair_search,
    dicyclic_record,
    dicyclic_special_record,
    lambda_set,
    omega_set,
)
from .numutil import default_max_order, divisors, is_square
from .refsystems import (
    ReflectionSystem,
    dicyclic_element,
    dicyclic_system,
    enumerate_systems,
    equivalence_maps,
)
from .refgroups import (
    ReflectionGroup,
    build_reflection_group,
    is_canonical,
    isomorphism_search,
    reflection_orbit_types,
    verify_isomorphism,
)


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
    L_set = L.member_set()
    automorphisms, translations = equivalence_maps(L.parent)
    maps = [(phi, phi) for phi in automorphisms] + [(f, None) for f in translations]

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
        K = label_group("cyclic" if rec.family == "cyclic" else "dicyclic", int(rec.K_name[1:]))
    L = next(S for S in enumerate_systems(K) if S.size == rec.L_size)
    H = next(S for S in normal_subgroups(K) if S.name == rec.H_name)
    return build_reflection_group(K, L, H)


def build_index_group(idx: IndexQuadruple) -> ReflectionGroup:
    """Honest construction of G(n, a, b, r) inside the dicyclic group (``label_group``'s)."""
    K, N = label_group("dicyclic", idx.n), 2 * idx.n
    L = dicyclic_system(DicyclicIndex(idx.n, idx.a, idx.b), K)
    H = Subgroup(K, tuple(sorted(map(K.positions.__getitem__, range(0, N, N // idx.r)))))
    return build_reflection_group(K, L, H, label=(idx.n, idx.a, idx.b, idx.r))


# the orders of ``polyhedral_records()``, so that an order scan classifies T, O
# and I only for these
_POLYHEDRAL_RECORD_ORDERS = frozenset({48, 96, 192, 240, 384, 480, 768, 1152, 2304, 4608, 28800})


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
    if order in _POLYHEDRAL_RECORD_ORDERS:
        records.extend(rec for rec in polyhedral_records() if rec.order == order)
    records.sort(key=lambda rec: (rec.family, rec.label_str()))
    return records


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
