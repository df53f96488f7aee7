"""Rank-two imprimitive reflection groups in the monomial element model.

A group element is a triple (x, y, s) standing for diag(x, y) * swap^s,
where x, y index elements of the underlying quaternion group K and swap is
the antidiagonal permutation matrix.  The product rule

    (x1,y1,0)(x2,y2,s) = (x1*x2, y1*y2, s)
    (x1,y1,1)(x2,y2,s) = (x1*y2, y1*x2, 1-s)

is the monomial matrix product; it is unit-tested against exact 2x2
quaternion matrices.  Keeping elements as index triples makes the largest
constructions (order 28800) cheap.
"""

from __future__ import annotations

import itertools
import math
import os
import random
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .exactarith import Quaternion
from .groups import (
    FiniteQuaternionGroup,
    Subgroup,
    commutator_subgroup,
    is_normal,
)
from .refsystems import (
    PreconditionError,
    ReflectionSystem,
    check_quotient_involution,
    coset_representatives,
    l_gamma,
)

Triple = tuple[int, int, int]


def default_max_order() -> int:
    return int(os.environ.get("QUATREFL_MAX_ORDER", "1000000"))


def model_mul(K: FiniteQuaternionGroup, t1: Triple, t2: Triple) -> Triple:
    x1, y1, s1 = t1
    x2, y2, s2 = t2
    cay = K.cayley
    if s1 == 0:
        return (cay[x1][x2], cay[y1][y2], s2)
    return (cay[x1][y2], cay[y1][x2], 1 - s2)


def model_inv(K: FiniteQuaternionGroup, t: Triple) -> Triple:
    x, y, s = t
    if s == 0:
        return (K.inv[x], K.inv[y], 0)
    return (K.inv[y], K.inv[x], 1)


def model_identity() -> Triple:
    return (0, 0, 0)


def triple_order(K: FiniteQuaternionGroup, t: Triple) -> int:
    k, cur = 1, t
    while cur != (0, 0, 0):
        cur = model_mul(K, cur, t)
        k += 1
    return k


def is_reflection_triple(K: FiniteQuaternionGroup, t: Triple) -> bool:
    x, y, s = t
    if s == 0:
        return (x == 0) != (y == 0)
    return y == K.inv[x]


class ReflectionGroup:
    """G_K(L, H): diagonal blocks from K twisted by the quotient involution.

    Elements are exactly {(b, y, s) : b in K, y in the coset gamma(bH)},
    where gamma is the involution of K/H induced by inversion on L; the
    group has order 2|H||K| and, when canonical, 2|H| + |L| - 2 reflections.
    """

    def __init__(self, K: FiniteQuaternionGroup, L: ReflectionSystem, H: Subgroup,
                 gamma: dict[int, int], coset_rep: list[int],
                 coset_members: dict[int, tuple[int, ...]], elements: frozenset,
                 label=None):
        self.K = K
        self.L = L
        self.H = H
        self.gamma = gamma
        self.coset_rep = coset_rep
        self.coset_members = coset_members
        self.elements = elements
        self.label = label

    @property
    def order(self) -> int:
        return len(self.elements)

    def reflections(self) -> list[Triple]:
        out = []
        for h in self.H.members:
            if h != 0:
                out.append((h, 0, 0))
                out.append((0, h, 0))
        for b in nondiagonal_reflections(self):
            out.append((b, self.K.inv[b], 1))
        return out

    def reflection_count(self) -> int:
        return len(self.reflections())

    def reflection_order_multiset(self) -> tuple[tuple[int, int], ...]:
        counts: dict[int, int] = {}
        for h in self.H.members:
            if h != 0:
                o = self.K.element_orders[h]
                counts[o] = counts.get(o, 0) + 2
        n_l = len(nondiagonal_reflections(self))
        if n_l:
            counts[2] = counts.get(2, 0) + n_l
        return tuple(sorted(counts.items()))

    def __repr__(self) -> str:
        return (f"ReflectionGroup(G_{self.K.name}(|L|={self.L.size}, "
                f"H={self.H.name}), order={self.order})")

    def to_json(self) -> dict:
        data = {
            "K": self.K.name,
            "L": self.L.size,
            "H": self.H.name,
            "order": self.order,
            "reflections": self.reflection_count(),
            "orbit_types": reflection_orbit_types(self).render(),
            "canonical": is_canonical(self),
        }
        if self.label is not None:
            data["label"] = list(self.label) if isinstance(self.label, tuple) else self.label
        return data


def induced_quotient_involution(K: FiniteQuaternionGroup, L_members: Sequence[int],
                                H_members: Sequence[int]):
    """The coset map gamma(bH) = b^-1 H seeded on L and extended along products.

    Returns (gamma, coset_rep, coset_members).  Raises PreconditionError when
    the seed is inconsistent, the extension conflicts, or the result is not
    an involutive automorphism of K/H.
    """
    rep = coset_representatives(K, H_members)
    members: dict[int, list[int]] = {}
    for x in range(K.order):
        members.setdefault(rep[x], []).append(x)
    coset_members = {c: tuple(sorted(v)) for c, v in members.items()}
    cosets = sorted(coset_members)

    gamma: dict[int, int] = {}
    for x in L_members:
        c, image = rep[x], rep[K.inv[x]]
        if gamma.setdefault(c, image) != image:
            raise PreconditionError("quotient map ill-defined",
                                    f"coset of element {x} has conflicting inverses mod H")
    # multiplicative extension; L generates K so all cosets are reached
    changed = True
    while changed and len(gamma) < len(cosets):
        changed = False
        known = list(gamma)
        for c1 in known:
            for c2 in known:
                c3 = rep[K.cayley[c1][c2]]
                image = rep[K.cayley[gamma[c1]][gamma[c2]]]
                if c3 not in gamma:
                    gamma[c3] = image
                    changed = True
                elif gamma[c3] != image:
                    raise PreconditionError("quotient map inconsistent",
                                            f"coset {c3} received two different images")
    if len(gamma) < len(cosets):
        raise PreconditionError("quotient map incomplete",
                                "L does not generate K modulo H")
    check_quotient_involution(K, rep, gamma)
    return gamma, rep, coset_members


def build_reflection_group(K: FiniteQuaternionGroup, L: ReflectionSystem, H: Subgroup,
                           label=None) -> ReflectionGroup:
    """Construct G(K, L, H) from its coset-map element formula.

    The group generated by the reflections over (L, H) consists of the
    monomial elements diag(b, y) * swap^s with y running over the coset
    gamma(bH); building that set directly keeps the largest cases cheap,
    and the generated-closure path is cross-checked against it in tests.
    """
    if L.parent is not K or H.parent is not K:
        raise PreconditionError("parent mismatch", "L and H must live in K")
    H_set = H.member_set()
    L_set = L.member_set()
    if not is_normal(K, H.members):
        raise PreconditionError("H not normal", f"{H.name} is not normal in {K.name}")
    if not H_set <= L_set:
        raise PreconditionError("H not inside L", f"{H.name} has members outside L")
    if any(K.cayley[x][h] not in L_set for x in L.members for h in H.members):
        raise PreconditionError("LH != L", "L is not a union of H-cosets")
    gamma, rep, coset_members = induced_quotient_involution(K, L.members, H.members)
    elements = frozenset(
        (b, y, s)
        for b in range(K.order)
        for y in coset_members[gamma[rep[b]]]
        for s in (0, 1)
    )
    return ReflectionGroup(K, L, H, gamma, rep, coset_members, elements, label=label)


def nondiagonal_reflections(G: ReflectionGroup) -> tuple[int, ...]:
    """L_G = {b : the antidiagonal reflection over b lies in G}, i.e. L_gamma."""
    return l_gamma(G.K, G.coset_rep, G.gamma)


def is_canonical(G: ReflectionGroup) -> bool:
    return nondiagonal_reflections(G) == G.L.members


def minimal_diagonal_subgroup(K: FiniteQuaternionGroup, L: ReflectionSystem) -> Subgroup:
    """H_L: diagonal entries diag(h, 1) reachable from L's antidiagonal reflections.

    For L = K this is the commutator subgroup, which keeps the largest case
    (the icosahedral group with 28800 elements downstream) cheap; the
    identity is cross-checked against direct closure in the test suite.
    """
    if L.size == K.order:
        return commutator_subgroup(K)
    gens = [(b, K.inv[b], 1) for b in L.members]
    elements = closure_of_triples(K, gens, bound=default_max_order())
    members = sorted(x for (x, y, s) in elements if s == 0 and y == 0)
    return Subgroup(K, tuple(members))


def closure_of_triples(K: FiniteQuaternionGroup, gens: Sequence[Triple],
                       bound: int = 10 ** 6) -> frozenset:
    return _triple_closure(K, gens, bound)


def _triple_closure(K: FiniteQuaternionGroup, gens: Sequence[Triple], bound: int) -> frozenset:
    # The one generator BFS over triples. verify_isomorphism calls it
    # directly, so a traced run keeps its generation check inside its own span.
    seen = {model_identity()}
    frontier = [model_identity()]
    while frontier:
        new = []
        for t in frontier:
            for g in gens:
                u = model_mul(K, t, g)
                if u not in seen:
                    seen.add(u)
                    new.append(u)
                    if len(seen) > bound:
                        raise ValueError(f"closure exceeded bound {bound}")
        frontier = new
    return frozenset(seen)


@dataclass
class GeneratedClosure:
    """Result of closing explicit reflection seeds in the element model."""

    parent: FiniteQuaternionGroup
    elements: frozenset
    K_observed: tuple[int, ...]
    L_observed: tuple[int, ...]
    H_observed: tuple[int, ...]

    @property
    def order(self) -> int:
        return len(self.elements)

    def reflection_count(self) -> int:
        return sum(is_reflection_triple(self.parent, t) for t in self.elements)


def generate_from_reflections(K: FiniteQuaternionGroup, diag_seed: Iterable[int],
                              offdiag_seed: Iterable[int],
                              bound: Optional[int] = None) -> GeneratedClosure:
    """Close the reflection matrices diag(h,1) (h in diag_seed) and the
    antidiagonal reflections over offdiag_seed; report what was generated."""
    bound = default_max_order() if bound is None else bound
    gens: list[Triple] = [(h, 0, 0) for h in diag_seed]
    gens += [(b, K.inv[b], 1) for b in offdiag_seed]
    if not all(0 <= g < K.order for g, _, _ in gens):
        raise PreconditionError("seed outside K", "seed indices must index K")
    elements = closure_of_triples(K, gens, bound=bound)
    K_observed = K.subgroup_closure({x for (x, y, s) in elements} |
                                    {y for (x, y, s) in elements})
    L_observed = tuple(sorted({x for (x, y, s) in elements if s == 1 and y == K.inv[x]}))
    H_observed = tuple(sorted({x for (x, y, s) in elements if s == 0 and y == 0}))
    return GeneratedClosure(K, elements, K_observed, L_observed, H_observed)


# -- reflection orbits ---------------------------------------------------


@dataclass(frozen=True)
class ReflectionOrbitType:
    """Conjugation orbits of root subgroups: (orbit size, subgroup type) pairs."""

    entries: tuple[tuple[int, str], ...]

    def multiset(self) -> tuple:
        return tuple(sorted(self.entries))

    def render(self) -> str:
        return ",".join(f"{size}{name}" for size, name in self.entries)


def reflection_orbit_types(G: ReflectionGroup) -> ReflectionOrbitType:
    """Orbit decomposition of the root subgroups under conjugation by G.

    The two diagonal root subgroups form one orbit of size 2 (type H); the
    antidiagonal reflections decompose into circ-orbits merged by left and
    right H-translation.
    """
    K = G.K
    entries: list[tuple[int, str]] = []
    if G.H.order > 1:
        entries.append((2, G.H.name))
    circ = K.circ_table()
    L_G = nondiagonal_reflections(G)
    remaining = set(L_G)
    nondiag = []
    while remaining:
        b = min(remaining)
        orbit = {b}
        queue = [b]
        while queue:
            x = queue.pop()
            images = [circ[a][x] for a in L_G]
            images += [K.cayley[h][x] for h in G.H.members]
            images += [K.cayley[x][h] for h in G.H.members]
            for y in images:
                if y not in orbit:
                    orbit.add(y)
                    queue.append(y)
        nondiag.append(len(orbit))
        remaining -= orbit
    nondiag.sort()
    entries.extend((size, "C2") for size in nondiag)
    return ReflectionOrbitType(tuple(entries))


# -- matrix realization ---------------------------------------------------


def realize_matrices(G: ReflectionGroup, bound: Optional[int] = None):
    """Exact 2x2 monomial matrices for every element, as nested tuples."""
    bound = default_max_order() if bound is None else bound
    if G.order > bound:
        raise ValueError(f"matrix realization bound {bound} exceeded (|G| = {G.order})")
    return [triple_to_matrix(G.K, t) for t in sorted(G.elements)]


def triple_to_matrix(K: FiniteQuaternionGroup, t: Triple):
    x, y, s = t
    m = K.conductor
    zero = Quaternion.zero(m)
    vx, vy = K.elements[x], K.elements[y]
    if s == 0:
        return ((vx, zero), (zero, vy))
    return ((zero, vx), (vy, zero))


def mat_mul(a, b):
    return tuple(
        tuple(a[r][0] * b[0][c] + a[r][1] * b[1][c] for c in (0, 1))
        for r in (0, 1)
    )


# -- isomorphism machinery -------------------------------------------------


def iso_prescreen(G1: ReflectionGroup, G2: ReflectionGroup):
    """Cheap-invariant screen; returns ('distinct', reasons) or ('candidate', [])."""
    reasons = []
    if G1.order != G2.order:
        reasons.append(f"order {G1.order} != {G2.order}")
    if G1.reflection_count() != G2.reflection_count():
        reasons.append(f"reflection count {G1.reflection_count()} != {G2.reflection_count()}")
    if not reasons and G1.reflection_order_multiset() != G2.reflection_order_multiset():
        reasons.append("reflection-order multisets differ")
    if not reasons and reflection_orbit_types(G1).multiset() != reflection_orbit_types(G2).multiset():
        reasons.append("orbit-type multisets differ")
    if reasons:
        return "distinct", reasons
    k1, k2 = G1.K.order, G2.K.order
    if k1 != k2:
        small, large = (G1, G2) if k1 < k2 else (G2, G1)
        if large.K.order != 2 * small.K.order:
            return "distinct", ["|K| orders are not in ratio 2"]
        if not (small.H.order == 2 and large.H.order == 1):
            return "distinct", ["H pattern is not (C2, 1)"]
        if large.L.size != small.L.size + 2:
            return "distinct", ["|L| sizes do not differ by 2"]
        if not embeds_as_subsystem(small.L, large.L):
            return "distinct", ["smaller system does not embed as a subsystem"]
    return "candidate", []


def embeds_as_subsystem(L1: ReflectionSystem, L2: ReflectionSystem, bound: int = 32) -> bool:
    """Backtracking search for an injection L1 -> L2 preserving a o b."""
    if L1.size > L2.size or L1.size > bound:
        return L1.size <= L2.size  # too large to decide; do not rule out
    K1, K2 = L1.parent, L2.parent
    c1, c2 = K1.circ_table(), K2.circ_table()
    src = list(L1.members)
    tgt = list(L2.members)
    pos = {x: i for i, x in enumerate(src)}
    n = len(src)

    def consistent(assign: list[int], i: int) -> bool:
        for j in range(i + 1):
            for a, b in ((i, j), (j, i)):
                w = c1[src[a]][src[b]]
                img = c2[assign[a]][assign[b]]
                if pos.get(w) is not None and pos[w] <= i and assign[pos[w]] != img:
                    return False
        return True

    def search(i: int, assign: list[int], used: set) -> bool:
        if i == n:
            return True
        for cand in tgt:
            if cand in used:
                continue
            assign.append(cand)
            if consistent(assign, i) and search(i + 1, assign, used | {cand}):
                return True
            assign.pop()
        return False

    return search(0, [], set())


def verify_isomorphism(G1: ReflectionGroup, G2: ReflectionGroup,
                       generator_map: Sequence[tuple[Triple, Triple]]) -> bool:
    """Check that mapping the given generators extends to an isomorphism.

    The map is extended breadth-first along products; the extension is a
    homomorphism iff no product pair conflicts, and an isomorphism iff it is
    onto a group of equal order.
    """
    for t, u in generator_map:
        if t not in G1.elements:
            raise ValueError(f"source element {t} is not in G1")
        if u not in G2.elements:
            raise ValueError(f"target element {u} is not in G2")
    if G1.order != G2.order:
        return False
    sources = [t for t, _ in generator_map]
    if len(_triple_closure(G1.K, sources, G1.order)) != G1.order:
        raise ValueError("generator_map sources do not generate G1")
    # each (element, generator) pair is compared exactly once: the extension
    # is a homomorphism iff no pair conflicts
    phi = {model_identity(): model_identity()}
    frontier = [model_identity()]
    while frontier:
        new = []
        for t in frontier:
            for g, g2 in generator_map:
                u = model_mul(G1.K, t, g)
                img = model_mul(G2.K, phi[t], g2)
                if u in phi:
                    if phi[u] != img:
                        return False
                else:
                    phi[u] = img
                    new.append(u)
        frontier = new
    return len(set(phi.values())) == G2.order


def isomorphism_search(G1: ReflectionGroup, G2: ReflectionGroup,
                       max_order: int = 4608) -> Optional[list[tuple[Triple, Triple]]]:
    """Exhaustive generator-image search; None means proven non-isomorphic.

    Raises ValueError when the groups exceed the search bound.
    """
    if (G1.order, G1.reflection_count()) != (G2.order, G2.reflection_count()):
        return None
    if G1.order > max_order:
        raise ValueError(f"isomorphism search bound {max_order} exceeded")
    elems1 = sorted(G1.elements)
    orders1 = {t: triple_order(G1.K, t) for t in elems1}
    elems2 = sorted(G2.elements)
    orders2: dict[int, list[Triple]] = {}
    for t in elems2:
        orders2.setdefault(triple_order(G2.K, t), []).append(t)

    gens: list[Triple] = []
    closure = {model_identity()}
    for t in sorted(elems1, key=lambda t: (-orders1[t], t)):
        if t in closure:
            continue
        gens.append(t)
        closure = closure_of_triples(G1.K, gens)
        if len(closure) == G1.order:
            break

    def backtrack(i: int, chosen: list[Triple]) -> Optional[list[tuple[Triple, Triple]]]:
        if i == len(gens):
            pairs = list(zip(gens, chosen))
            if verify_isomorphism(G1, G2, pairs):
                return pairs
            return None
        for cand in orders2.get(orders1[gens[i]], []):
            result = backtrack(i + 1, chosen + [cand])
            if result is not None:
                return result
        return None

    return backtrack(0, [])


# -- rank n >= 3 -----------------------------------------------------------


@dataclass(frozen=True)
class RankNDescriptor:
    """Order and reflection-count data for a rank-n monomial group.

    `reflection_count` carries n(|H|-1) + |K|, which undercounts at every
    rank n >= 3; the true count n(|H|-1) + C(n,2)|K| is the one reported in
    `explicit_reflection_count` when the group is enumerated.
    """

    rank: int
    K_name: str
    H_name: str
    order: int
    reflection_count: int
    explicit_order: Optional[int] = None
    explicit_reflection_count: Optional[int] = None


def rank_n_group(rank: int, K: FiniteQuaternionGroup, H: Subgroup,
                 bound: Optional[int] = None) -> RankNDescriptor:
    """The rank-n imprimitive group over (K, H), plus explicit counts when small.

    The descriptor carries the formulas order = n! |H| |K|^(n-1) and
    reflections = n(|H|-1) + |K|; the latter undercounts at rank n >= 3,
    where the classical count is n(|H|-1) + C(n,2)|K|.  When the order is
    within bound the group is enumerated explicitly from its defining matrix
    shape and the observed order and reflection count (which equals the
    classical count) are reported alongside.
    """
    bound = default_max_order() if bound is None else bound
    if rank < 3:
        raise ValueError(f"rank_n_group needs rank >= 3, got {rank}")
    comm = commutator_subgroup(K).member_set()
    if not comm <= H.member_set():
        raise PreconditionError("H below commutator subgroup",
                                f"H = {H.name} must contain [K, K]")
    order = math.factorial(rank) * H.order * K.order ** (rank - 1)
    formula_reflections = rank * (H.order - 1) + K.order
    explicit_order = explicit_refl = None
    if order <= bound:
        explicit_order, explicit_refl = _rank_n_explicit_counts(rank, K, H)
    return RankNDescriptor(rank, K.name, H.name, order, formula_reflections,
                           explicit_order, explicit_refl)


def rank_n_elements(rank: int, K: FiniteQuaternionGroup, H: Subgroup):
    """Iterate (diag entries, permutation) for the whole rank-n group."""
    perms = list(itertools.permutations(range(rank)))
    for firsts in itertools.product(range(K.order), repeat=rank - 1):
        prod = 0
        for d in firsts:
            prod = K.cayley[prod][d]
        inv_prod = K.inv[prod]
        for h in H.members:
            last = K.cayley[inv_prod][h]
            diag = firsts + (last,)
            for perm in perms:
                yield diag, perm


def rank_n_mul(K: FiniteQuaternionGroup, e1, e2):
    """(B1 P_s1)(B2 P_s2) with P_s row u carrying entry at column s(u)."""
    d1, s1 = e1
    d2, s2 = e2
    diag = tuple(K.cayley[d1[u]][d2[s1[u]]] for u in range(len(d1)))
    perm = tuple(s2[s1[u]] for u in range(len(s1)))
    return diag, perm


def _rank_n_explicit_counts(rank: int, K: FiniteQuaternionGroup, H: Subgroup):
    count = 0
    refl = 0
    for diag, perm in rank_n_elements(rank, K, H):
        count += 1
        moved = [u for u in range(rank) if perm[u] != u]
        if not moved:
            if sum(1 for u in range(rank) if diag[u] != 0) == 1:
                refl += 1
        elif len(moved) == 2:
            a, b = moved
            if all(diag[u] == 0 for u in range(rank) if u not in (a, b)):
                # fixed block iff the product of the two entries is the identity
                if K.cayley[diag[b]][diag[a]] == 0:
                    refl += 1
    return count, refl


def rank_n_closure_spot_check(rank: int, K: FiniteQuaternionGroup, H: Subgroup,
                              samples: int = 200, seed: int = 7) -> bool:
    """Products of random element pairs stay in the set (group closure)."""
    rng = random.Random(seed)
    perms = list(itertools.permutations(range(rank)))
    Hset = H.member_set()

    def random_element():
        firsts = tuple(rng.randrange(K.order) for _ in range(rank - 1))
        prod = 0
        for d in firsts:
            prod = K.cayley[prod][d]
        h = rng.choice(H.members)
        return firsts + (K.cayley[K.inv[prod]][h],), rng.choice(perms)

    for _ in range(samples):
        e1, e2 = random_element(), random_element()
        diag, perm = rank_n_mul(K, e1, e2)
        prod = 0
        for d in diag[:-1]:
            prod = K.cayley[prod][d]
        if K.cayley[prod][diag[-1]] not in Hset:
            return False
    return True
