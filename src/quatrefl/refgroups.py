"""Rank-two imprimitive reflection groups in the monomial element model.

A group element is a triple (x, y, s) standing for diag(x, y) * swap^s,
where x, y index elements of the underlying quaternion group K and swap is
the antidiagonal permutation matrix.  The product rule

    (x1,y1,0)(x2,y2,s) = (x1*x2, y1*y2, s)
    (x1,y1,1)(x2,y2,s) = (x1*y2, y1*x2, 1-s)

is the monomial matrix product; it is unit-tested against exact 2x2
quaternion matrices.  Keeping elements as index triples makes the largest
constructions (order 28800) cheap.  ``ReflectionGroup(L, H, gamma)`` reads K
from ``L.parent``; gamma, the involution of K/H that
``induced_quotient_involution`` forms, is ``image[x]`` as in the quotient
search, and the coset gamma(bH) is row gamma[b] of K's table at H's members.

Isomorphism rests on one invariant of the abstract group and one walk.  The
element-order census is counted per coset in closed form: (b, y, 0) has order
lcm(o(b), o(y)) and (b, y, 1) squares to (by, yb, 0), so it has order
2 o(by).  Pairs with different orders or censuses are distinct; the others
are settled by extending candidate generator images along one walk of G1.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from dataclasses import dataclass
from functools import partial
from typing import Iterable, Optional, Sequence

from .exactarith import Quaternion
from .groups import (
    FiniteQuaternionGroup,
    Subgroup,
    _closure,
    _extend_map,
    _generate,
    _orbits,
    commutator_subgroup,
    is_normal,
    normal_subgroups,
)
from .numutil import default_max_order
from .refsystems import PreconditionError, ReflectionSystem, l_gamma

Triple = tuple[int, int, int]
IDENTITY: Triple = (0, 0, 0)
# the largest |G| that ``isomorphism_search`` walks
ISO_SEARCH_BOUND = 4608


def model_mul(K: FiniteQuaternionGroup, t1: Triple, t2: Triple) -> Triple:
    x1, y1, s1 = t1
    x2, y2, s2 = t2
    cay = K.cayley
    if s1 == 0:
        return (cay[x1][x2], cay[y1][y2], s2)
    return (cay[x1][y2], cay[y1][x2], 1 - s2)


def triple_order(K: FiniteQuaternionGroup, t: Triple) -> int:
    """lcm(o(x), o(y)) for diag(x, y), and 2 o(xy) for diag(x, y) * swap."""
    x, y, s = t
    orders = K.element_orders
    if s:
        return 2 * orders[K.cayley[x][y]]
    return math.lcm(orders[x], orders[y])


class ReflectionGroup:
    """G_K(L, H): diagonal blocks from K twisted by the quotient involution.

    Elements are exactly {(b, y, s) : b in K, y in the coset gamma(bH)},
    where gamma, given as ``image[x]``, is the involution of K/H induced by
    inversion on L (K = ``L.parent``); the group has order 2|H||K| and, when
    canonical, 2|H| + |L| - 2 reflections.
    """

    def __init__(self, L: ReflectionSystem, H: Subgroup, gamma: Sequence[int], label=None):
        self.K = L.parent
        self.L = L
        self.H = H
        self.gamma = gamma
        self.label = label
        # built on first use, each set here first, as FiniteQuaternionGroup's caches
        self._elements: Optional[frozenset] = None
        self._L_G: Optional[tuple[int, ...]] = None

    @property
    def elements(self) -> frozenset:
        """Every (b, y, s) with y in gamma(bH), built on first use."""
        if self._elements is None:
            cay, gamma, members = self.K.cayley, self.gamma, self.H.members
            self._elements = frozenset((b, cay[gamma[b]][h], s) for b in range(self.K.order)
                                       for h in members for s in (0, 1))
        return self._elements

    @property
    def L_G(self) -> tuple[int, ...]:
        """L_G = {b : the antidiagonal reflection over b lies in G}, i.e. L_gamma."""
        if self._L_G is None:
            self._L_G = l_gamma(self.H, self.gamma)
        return self._L_G

    @property
    def order(self) -> int:
        return 2 * self.H.order * self.K.order

    def reflections(self) -> list[Triple]:
        out = []
        for h in self.H.members:
            if h != 0:
                out.append((h, 0, 0))
                out.append((0, h, 0))
        for b in self.L_G:
            out.append((b, self.K.inv[b], 1))
        return out

    def reflection_count(self) -> int:
        return len(self.reflections())

    def element_order_census(self) -> dict[int, int]:
        """The number of elements of each order, ascending: the closed-form
        ``triple_order`` of (b, y, 0) and (b, y, 1) for b in K and y in
        gamma(bH), 2|K||H| orders and no walk."""
        K, gamma, members = self.K, self.gamma, self.H.members
        census: dict[int, int] = {}
        for b in range(K.order):
            for y in map(K.cayley[gamma[b]].__getitem__, members):
                for s in (0, 1):
                    o = triple_order(K, (b, y, s))
                    census[o] = census.get(o, 0) + 1
        return dict(sorted(census.items()))

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
                                H: Subgroup) -> tuple[int, ...]:
    """The coset map gamma(bH) = b^-1 H seeded on L and extended along products.

    K/H is walked from the coset reps of L that ``_closure`` admits, the seed is
    extended from them by ``_extend_map``, and the extension must agree with
    the rest of the seed; a homomorphism that inverts a generating set is its
    own inverse, so the result is an involutive automorphism of K/H.
    Returns gamma as ``image[x]``, the least index in gamma(xH), as
    ``_quotient_search`` does.  Raises PreconditionError when the seed is
    inconsistent, L does not generate K/H, or the seed does not extend to a
    homomorphism.
    """
    rep = H.coset_rep
    seed: dict[int, int] = {}
    for x in L_members:
        c, image = rep[x], rep[K.inv[x]]
        if seed.setdefault(c, image) != image:
            raise PreconditionError("quotient map ill-defined",
                                    f"coset of element {x} has conflicting inverses mod H")

    def mul(c1: int, c2: int) -> int:
        return rep[K.cayley[c1][c2]]

    reached, admitted = _closure(0, seed, mul)
    if len(reached) < K.order // H.order:
        raise PreconditionError("quotient map incomplete",
                                "L does not generate K modulo H")
    reps, right, _ = _generate(0, admitted, mul)
    image = _extend_map(right, [seed[c] for c in admitted], mul, 0)
    on_reps = None if image is None else dict(zip(reps, image))
    if on_reps is None or any(on_reps[c] != t for c, t in seed.items()):
        raise PreconditionError("quotient map not multiplicative",
                                "the seed on L does not extend to a homomorphism of K/H")
    return tuple(on_reps[c] for c in rep)


def build_reflection_group(K: FiniteQuaternionGroup, L: ReflectionSystem, H: Subgroup,
                           label=None) -> ReflectionGroup:
    """Construct G(K, L, H) from its coset-map element formula.

    The group generated by the reflections over (L, H) consists of the
    monomial elements diag(b, y) * swap^s with y running over the coset
    gamma(bH); that set is built only when first used, and the
    generated-closure path is cross-checked against it in tests.
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
        raise PreconditionError("LH != L", "L is not closed under right multiplication by H")
    return ReflectionGroup(L, H, induced_quotient_involution(K, L.members, H), label=label)


def is_canonical(G: ReflectionGroup) -> bool:
    return G.L_G == G.L.members


def diagonal_subgroups(K: FiniteQuaternionGroup, L: ReflectionSystem) -> list[Subgroup]:
    """The normal H inside L over which L is L_gamma, in ``normal_subgroups`` order.

    These are exactly the H for which G_K(L, H) is canonical; the first is
    H_L, the diagonal part of the group generated by L's antidiagonal
    reflections (cross-checked against that closure in the test suite).
    """
    L_set = L.member_set()
    out = []
    for H in normal_subgroups(K):
        if not L_set.issuperset(H.members):
            continue
        try:
            gamma = induced_quotient_involution(K, L.members, H)
        except PreconditionError:
            continue
        if l_gamma(H, gamma) == L.members:
            out.append(H)
    return out


def closure_of_triples(K: FiniteQuaternionGroup, gens: Sequence[Triple]) -> frozenset:
    """The closure of gens; ValueError beyond ``default_max_order()`` elements."""
    return frozenset(_closure(IDENTITY, gens, partial(model_mul, K), default_max_order())[0])


class GeneratedClosure(namedtuple("GeneratedClosure", "parent elements")):
    """Result of closing explicit reflection seeds in the element model."""

    __slots__ = ()

    @property
    def order(self) -> int:
        return len(self.elements)

    def reflection_count(self) -> int:
        """The members of reflection shape, (h, 0, 0) and (0, h, 0) for h != 0
        and (b, b^-1, 1): 3|K| - 2 lookups rather than one per element."""
        K, elements = self.parent, self.elements
        shapes = [(h, 0, 0) for h in range(1, K.order)] + [(0, h, 0) for h in range(1, K.order)]
        shapes += [(b, K.inv[b], 1) for b in range(K.order)]
        return sum(t in elements for t in shapes)


def generate_from_reflections(K: FiniteQuaternionGroup, diag_seed: Iterable[int],
                              offdiag_seed: Iterable[int]) -> GeneratedClosure:
    """Close the reflection matrices diag(h,1) (h in diag_seed) and the
    antidiagonal reflections over offdiag_seed; report what was generated.
    Raises ValueError once the closure exceeds ``default_max_order()``."""
    gens: list[Triple] = [(h, 0, 0) for h in diag_seed]
    gens += [(b, K.inv[b], 1) for b in offdiag_seed]
    if not all(0 <= g < K.order for g, _, _ in gens):
        raise PreconditionError("seed outside K", "seed indices must index K")
    return GeneratedClosure(K, closure_of_triples(K, gens))


# -- reflection orbits ---------------------------------------------------


class ReflectionOrbitType(namedtuple("ReflectionOrbitType", "entries")):
    """Conjugation orbits of root subgroups: (orbit size, subgroup type) pairs."""

    __slots__ = ()

    def render(self) -> str:
        return ",".join(f"{size}{name}" for size, name in self.entries)


def reflection_orbit_types(G: ReflectionGroup) -> ReflectionOrbitType:
    """Orbit decomposition of the root subgroups under conjugation by G.

    The two diagonal root subgroups form one orbit of size 2 (type H); the
    antidiagonal reflections decompose into circ-orbits merged by left and
    right H-translation.  G is generated by the antidiagonal reflections over
    L's generators and the diagonal ones over H's, and s_(a o b) = s_a s_b s_a,
    so conjugating by those generators walks every orbit.
    """
    K = G.K
    entries: list[tuple[int, str]] = []
    if G.H.order > 1:
        entries.append((2, G.H.name))
    cay = K.cayley
    # x -> a o x for a generating L, and the left and right translations by
    # generators of H
    H_gens = _closure(0, G.H.members, lambda x, h: cay[x][h])[1]
    maps = [K.circ_row(a) for a in G.L.generators] + [cay[h] for h in H_gens]
    maps += [[row[h] for row in cay] for h in H_gens]
    entries.extend((size, "C2") for size in sorted(map(len, _orbits(G.L_G, maps))))
    return ReflectionOrbitType(tuple(entries))


# -- matrix realization ---------------------------------------------------


def realize_matrices(G: ReflectionGroup):
    """Exact 2x2 monomial matrices for every element, as nested tuples;
    ValueError when |G| exceeds ``default_max_order()``, or when K carries no
    values (a ``groups.label_group``)."""
    bound = default_max_order()
    if G.order > bound:
        raise ValueError(f"matrix realization bound {bound} exceeded (|G| = {G.order})")
    if G.K.elements is None:
        raise ValueError(f"{G.K.name} is a label group with no element values; build the "
                         f"reflection group in build_group({G.K.tag!r}, {G.K.n}) to realize it")
    return [triple_to_matrix(G.K, t) for t in sorted(G.elements)]


def triple_to_matrix(K: FiniteQuaternionGroup, t: Triple):
    x, y, s = t
    m = K.conductor
    zero = Quaternion.zero(m)
    vx, vy = K.elements[x], K.elements[y]
    if s == 0:
        return ((vx, zero), (zero, vy))
    return ((zero, vx), (vy, zero))


# -- isomorphism machinery -------------------------------------------------


def iso_prescreen(G1: ReflectionGroup, G2: ReflectionGroup):
    """Abstract-invariant screen; returns ('distinct', reasons) or ('candidate', []).

    The order and the element-order census are invariants of the abstract
    group, so 'distinct' is a certificate of non-isomorphism.
    """
    if G1.order != G2.order:
        return "distinct", [f"order {G1.order} != {G2.order}"]
    if G1.element_order_census() != G2.element_order_census():
        return "distinct", ["element-order censuses differ"]
    return "candidate", []


def verify_isomorphism(G1: ReflectionGroup, G2: ReflectionGroup,
                       generator_map: Sequence[tuple[Triple, Triple]]) -> bool:
    """Check that mapping the given generators extends to an isomorphism.

    One walk of G1 over the sources checks that they generate it; the map is
    extended along that walk, which is a homomorphism iff no (element,
    generator) pair conflicts, and an isomorphism iff it is onto a group of
    equal order.
    """
    for t, u in generator_map:
        if t not in G1.elements:
            raise ValueError(f"source element {t} is not in G1")
        if u not in G2.elements:
            raise ValueError(f"target element {u} is not in G2")
    if G1.order != G2.order:
        return False
    sources = [t for t, _ in generator_map]
    elements, right, _ = _generate(IDENTITY, sources, partial(model_mul, G1.K), G1.order)
    if len(elements) != G1.order:
        raise ValueError("generator_map sources do not generate G1")
    image = _extend_map(right, [u for _, u in generator_map], partial(model_mul, G2.K), IDENTITY)
    return image is not None and len(set(image)) == G2.order


def isomorphism_search(G1: ReflectionGroup, G2: ReflectionGroup) -> Optional[list[tuple[Triple, Triple]]]:
    """Exhaustive generator-image search; None means proven non-isomorphic.

    Pairs that ``iso_prescreen`` calls distinct return None at once.  G1 is
    walked once over greedy generators, highest orders first, and each choice
    of same-order images in G2 is extended along that walk by ``_extend_map``;
    the first that is a homomorphism onto G2 is returned.  Raises ValueError
    when a candidate pair is larger than ``ISO_SEARCH_BOUND``.
    """
    if iso_prescreen(G1, G2)[0] == "distinct":
        return None
    if G1.order > ISO_SEARCH_BOUND:
        raise ValueError(f"isomorphism search bound {ISO_SEARCH_BOUND} exceeded")
    mul1, mul2 = partial(model_mul, G1.K), partial(model_mul, G2.K)
    highest_first = sorted(G1.elements, key=lambda t: (-triple_order(G1.K, t), t))
    gens = _closure(IDENTITY, highest_first, mul1)[1]
    _, right, _ = _generate(IDENTITY, gens, mul1)
    same_order: dict[int, list[Triple]] = {}
    for t in sorted(G2.elements):
        same_order.setdefault(triple_order(G2.K, t), []).append(t)
    for images in itertools.product(*(same_order.get(triple_order(G1.K, g), []) for g in gens)):
        image = _extend_map(right, images, mul2, IDENTITY)
        if image is not None and len(set(image)) == G2.order:
            return list(zip(gens, images))
    return None


# -- rank n >= 3 -----------------------------------------------------------


@dataclass(frozen=True)
class RankNDescriptor:
    """Order and reflection-count data for a rank-n monomial group.

    `reflection_count` carries n(|H|-1) + |K|, which undercounts at every
    rank n >= 3; the true count n(|H|-1) + C(n,2)|K| is the one reported in
    `explicit_reflection_count`, counted from the group's defining shape
    when its order is within the bound.
    """

    rank: int
    K_name: str
    H_name: str
    order: int
    reflection_count: int
    explicit_order: Optional[int] = None
    explicit_reflection_count: Optional[int] = None


def rank_n_group(rank: int, K: FiniteQuaternionGroup, H: Subgroup) -> RankNDescriptor:
    """The rank-n imprimitive group over (K, H), plus explicit counts when small.

    The descriptor carries the formulas order = n! |H| |K|^(n-1) and
    reflections = n(|H|-1) + |K|; the latter undercounts at rank n >= 3,
    where the classical count is n(|H|-1) + C(n,2)|K|.  When the order is
    within ``default_max_order()``, read at the call, the order and
    reflection count (which equals the classical count) are also counted from
    the defining matrix shape, without a walk over the group: the order from
    the diagonals whose product lies in H, the reflections from the
    reflection-shaped candidates.
    """
    if rank < 3:
        raise ValueError(f"rank_n_group needs rank >= 3, got {rank}")
    if H.parent is not K:
        raise PreconditionError("parent mismatch", "H must live in K")
    comm = commutator_subgroup(K).member_set()
    if not comm <= H.member_set():
        raise PreconditionError("H below commutator subgroup",
                                f"H = {H.name} must contain [K, K]")
    order = math.factorial(rank) * H.order * K.order ** (rank - 1)
    formula_reflections = rank * (H.order - 1) + K.order
    explicit_order = explicit_refl = None
    if order <= default_max_order():
        explicit_order, explicit_refl = _rank_n_explicit_counts(rank, K, H)
    return RankNDescriptor(rank, K.name, H.name, order, formula_reflections,
                           explicit_order, explicit_refl)


def _rank_n_explicit_counts(rank: int, K: FiniteQuaternionGroup, H: Subgroup):
    """Order and reflection count of the group of n x n monomial matrices
    over K whose diagonal product lies in H.

    The order is n! times the number of diagonals (k1, ..., kn) in K^n with
    k1...kn in H; ``ways[x]`` counts the diagonals of each length by their
    product x, pushed through the Cayley table once per entry.  A reflection
    is the identity permutation with one non-identity entry d (a member iff
    d is in H), or a transposition (a b) with entries x, y and the identity
    elsewhere (a member iff xy is in H, a reflection iff yx = 1).
    """
    cay, H_set = K.cayley, H.member_set()
    ways = [1] + [0] * (K.order - 1)
    for _ in range(rank):
        nxt = [0] * K.order
        for row, w in zip(cay, ways):
            for y in row:
                nxt[y] += w
        ways = nxt
    diagonal = sum(d in H_set for d in range(1, K.order))
    swapped = sum(cay[x][y] in H_set and cay[y][x] == 0
                  for x in range(K.order) for y in range(K.order))
    return (math.factorial(rank) * sum(ways[h] for h in H.members),
            rank * diagonal + math.comb(rank, 2) * swapped)

