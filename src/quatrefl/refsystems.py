"""Reflection systems: closure, orbits, equivalence, and enumeration.

A reflection system for a finite group K is a subset L with 1 in L, closed
under a o b = a * b^-1 * a, that generates K.  Systems are stored as sorted
index tuples against the parent group's fixed element ordering.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .groups import (
    FiniteQuaternionGroup,
    Subgroup,
    _automorphism_search,
    _generate,
    _quotient_search,
    automorphism_group,
    build_group,
    is_normal,
    normal_subgroups,
)
from .numutil import divisors, prime_factorization


class PreconditionError(ValueError):
    """A named violation of a construction precondition."""

    def __init__(self, name: str, detail: str):
        self.name = name
        super().__init__(f"{name}: {detail}")


class NonGeneratingSeedError(ValueError):
    """Raised when a closed seed fails to generate the parent group."""

    def __init__(self, parent: FiniteQuaternionGroup, generated: tuple[int, ...]):
        self.generated = generated
        super().__init__(
            f"closure generates a subgroup of order {len(generated)}, "
            f"not {parent.name} (order {parent.order})"
        )


@dataclass(frozen=True)
class ReflectionSystem:
    parent: FiniteQuaternionGroup
    members: tuple[int, ...]
    generators: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.members)

    def member_set(self) -> frozenset:
        return frozenset(self.members)

    def __repr__(self) -> str:
        return f"ReflectionSystem(|L|={self.size} in {self.parent.name})"

    def to_json(self) -> dict:
        return {
            "parent": self.parent.name,
            "size": self.size,
            "members": list(self.members),
            "generators": list(self.generators),
            "orbit_partition": [list(o) for o in orbit_partition(self)],
        }


def _check_index_pair(n: int, a: int, b: int) -> None:
    """Raise ValueError unless (a, b) lies in Omega_n."""
    if not (1 <= a <= b <= n and n % a == 0 and n % b == 0 and math.gcd(a, b) == 1):
        raise ValueError(f"({a},{b}) is not a valid index pair for n={n}")


@dataclass(frozen=True)
class DicyclicIndex:
    """A pair (a, b) in Omega_n: coprime divisors of n with a <= b."""

    n: int
    a: int
    b: int

    def __post_init__(self):
        _check_index_pair(self.n, self.a, self.b)

    @property
    def size(self) -> int:
        return 2 * self.n // self.a + 2 * self.n // self.b


# -- closure -------------------------------------------------------------


def close_under_circ(K: FiniteQuaternionGroup, seed: Iterable[int],
                     closed: frozenset = frozenset()) -> frozenset:
    """Least circ-closed superset of closed | seed (no generation requirement).

    ``closed`` must already be circ-closed: only the seed elements outside it
    are queued, so extending a closed set costs no more than the new elements.
    """
    circ = K.circ_table()
    current = set(closed)
    queue = [x for x in set(seed) if x not in current]
    current.update(queue)
    while queue:
        u = queue.pop()
        row_u = circ[u]
        for v in list(current):
            for w in (row_u[v], circ[v][u]):
                if w not in current:
                    current.add(w)
                    queue.append(w)
    return frozenset(current)


def close_system(K: FiniteQuaternionGroup, seed: Iterable[int]) -> ReflectionSystem:
    """Close a seed (which must contain the identity) into a reflection system."""
    seed = tuple(sorted(set(seed)))
    if 0 not in seed:
        raise ValueError("seed must contain the identity")
    members = close_under_circ(K, seed)
    generated = K.subgroup_closure(members)
    if len(generated) != K.order:
        raise NonGeneratingSeedError(K, generated)
    return ReflectionSystem(K, tuple(sorted(members)), seed)


def system_orbit(L: ReflectionSystem, b: int) -> tuple[int, ...]:
    """Closure of {b} under x -> a o x for a in L."""
    if b not in L.member_set():
        raise ValueError(f"element {b} is not in the system")
    circ = L.parent.circ_table()
    return tuple(sorted(_generate(b, [circ[a] for a in L.members], lambda x, f: f[x])[0]))


def orbit_partition(L: ReflectionSystem) -> list[tuple[int, ...]]:
    remaining = set(L.members)
    parts = []
    while remaining:
        b = min(remaining)
        orb = system_orbit(L, b)
        parts.append(orb)
        remaining -= set(orb)
    parts.sort(key=lambda o: (len(o), o))
    return parts


# -- equivalence ----------------------------------------------------------


def _translates(K: FiniteQuaternionGroup, members: frozenset) -> dict[frozenset, int]:
    """Each distinct member translate xL (it contains 1), mapped to its least x.

    L holds 1 and is closed under a o b = a b^-1 a, hence under inverses
    (1 o y = y^-1) and under x o y^-1 = x y x.  So x L x = L, and every right
    translate L x is the left translate x^-1 L.
    """
    cay = K.cayley
    out: dict[frozenset, int] = {}
    for x in sorted(members):
        out.setdefault(frozenset(cay[x][y] for y in members), x)
    return out


def systems_equivalent(L1: ReflectionSystem, L2: ReflectionSystem):
    """Equivalence test with witness: L2 == phi(x*L1) for a member x of L1.

    Returns (True, (x, phi)) or (False, None).
    """
    if L1.parent is not L2.parent:
        raise ValueError("systems must share a parent group")
    if L1.size != L2.size:
        return False, None
    K = L1.parent
    target = L2.member_set()
    autos = automorphism_group(K)
    for translated, x in _translates(K, L1.member_set()).items():
        for phi in autos:
            img = phi.image
            if all(img[t] in target for t in translated):
                return True, (x, phi)
    return False, None


def equivalence_class_subsets(L: ReflectionSystem) -> set[frozenset]:
    """All distinct reflection systems equivalent to L: the sets phi(x*L).

    Here x runs over L's members and phi over Aut(K).  Any identity-containing
    two-sided translate x*L*y equals an inner twist of a member translate.
    """
    return _equivalent_sets(L.parent, L.member_set())


def _equivalent_sets(K: FiniteQuaternionGroup, members: frozenset) -> set[frozenset]:
    """One walk from L under K x| Aut(K), kept to the sets that contain 1.

    The maps are the generators of Aut(K) and left multiplication by a
    generating sequence of K, so the walk reaches every phi(xL) with x in K;
    phi(xL) contains 1 exactly when x^-1, hence x, lies in L.
    """
    if len(members) == K.order:
        return {members}
    maps = _automorphism_search(K)[1] + [K.cayley[x] for x in K.generating_sequence()]
    orbit = _generate(members, maps, lambda S, f: frozenset(f[t] for t in S))[0]
    return {S for S in orbit if 0 in S}


def copy_count(L: ReflectionSystem) -> int:
    """Number of reflection systems equivalent to L: the size of its class."""
    return len(_equivalent_sets(L.parent, L.member_set()))


def subgroup_copy_count(L: ReflectionSystem) -> int:
    """Number of two-sided translates x*L*y, identity-containing or not.

    This counts the occurrences of the groups over L as reflection subgroups
    of the all-of-K reflection group: conjugating by diag(x, y) carries the
    antidiagonal reflection set L to x*L*y^-1.  By orbit-stabiliser it is
    |K|^2 over the number of pairs with x L y^-1 = L.  Such a pair has
    y = x l for a member l (1 lies in x L y^-1), and then the condition is
    L l^-1 = x^-1 L x; so the pairs number sum_x mult(x L x^-1), where
    mult(C) counts the members l with L l^-1 = C.
    """
    K = L.parent
    if L.size == K.order:
        return 1
    cay, inv = K.cayley, K.inv
    members = L.members
    mult: dict[frozenset, int] = {}
    for l in members:
        C = frozenset(cay[t][inv[l]] for t in members)
        mult[C] = mult.get(C, 0) + 1
    pairs = sum(mult.get(frozenset(K.conj(x, t) for t in members), 0) for x in range(K.order))
    return K.order ** 2 // pairs


def canonical_members(K: FiniteQuaternionGroup, members: frozenset) -> tuple[int, ...]:
    """Lexicographically least image over all translations and automorphisms."""
    return min(tuple(sorted(s)) for s in _equivalent_sets(K, frozenset(members)))


def minimal_generators(K: FiniteQuaternionGroup, members: tuple[int, ...]) -> tuple[int, ...]:
    """A small seed whose circ-closure is the given closed set."""
    gens = [0]
    closed = close_under_circ(K, gens)
    for x in members:
        if x not in closed:
            gens.append(x)
            closed = close_under_circ(K, (x,), closed)
            if len(closed) == len(members):
                break
    return tuple(gens)


def enumerate_systems(K: FiniteQuaternionGroup, bound: int = 120) -> list[ReflectionSystem]:
    """All reflection systems of K, one canonical representative per class.

    Every reflection system is some L_gamma = {x : gamma(xH) = x^-1 H} for a
    normal subgroup H and an involutive automorphism gamma of K/H, which the
    quotient search lists without listing Aut(K/H); the L_gamma that
    generate K are canonicalised once per equivalence class.
    """
    if K.order > bound:
        raise ValueError(f"enumeration bound {bound} exceeded by |K| = {K.order}")
    if K._systems is not None:
        return K._systems

    seen: set[frozenset] = set()
    systems = []
    for H in normal_subgroups(K):
        rep = coset_representatives(K, H.members)
        # for H = 1, the search whose generators _equivalent_sets uses, cached on K
        search = _automorphism_search(K) if H.order == 1 else _quotient_search(K, rep)
        for gamma in search[0]:
            members = frozenset(l_gamma(K, rep, gamma))
            if members in seen or len(K.subgroup_closure(members)) != K.order:
                continue
            equivalent = _equivalent_sets(K, members)
            seen |= equivalent
            canon = min(tuple(sorted(s)) for s in equivalent)
            systems.append(ReflectionSystem(K, canon, minimal_generators(K, canon)))
    systems.sort(key=lambda L: (L.size, L.members))
    K._systems = systems
    return systems


# -- dicyclic systems ------------------------------------------------------


def omega_set(n: int) -> list[DicyclicIndex]:
    """All (a, b) with a <= b, a | n, b | n, gcd(a, b) = 1."""
    if n < 2:
        raise ValueError(f"omega_set needs n >= 2, got {n}")
    divs = divisors(n)
    out = [
        DicyclicIndex(n, a, b)
        for a in divs
        for b in divs
        if a <= b and math.gcd(a, b) == 1
    ]
    out.sort(key=lambda idx: (idx.a, idx.b))
    return out


def omega_count_formula(n: int) -> int:
    """|Omega_n| = ((prod of (2*alpha_j + 1)) + 1) / 2 over the factorization."""
    prod = 1
    for alpha in prime_factorization(n).values():
        prod *= 2 * alpha + 1
    return (prod + 1) // 2


def dicyclic_system(idx: DicyclicIndex) -> ReflectionSystem:
    """The system generated by {1, w^a, j, w^b j} inside D_n."""
    K = build_group("dicyclic", idx.n)
    n = idx.n
    # locate elements by their symbolic role: w = the embedded zeta_2n
    w = dicyclic_element(K, idx.a, 0)
    j = dicyclic_element(K, 0, 1)
    wbj = dicyclic_element(K, idx.b, 1)
    return close_system(K, (0, w, j, wbj))


def dicyclic_element(K: FiniteQuaternionGroup, e: int, s: int) -> int:
    """Index of w^e (s = 0) or w^e * j (s = 1) in D_n, from its build generators (w, j)."""
    w, j = K.build_gens
    x = K.power(w, e)
    return K.cayley[x][j] if s else x


# -- systems from quotient automorphisms -----------------------------------


def system_from_automorphism(K: FiniteQuaternionGroup, H: Subgroup, gamma: dict[int, int]) -> tuple[int, ...]:
    """L_gamma = {x : gamma(xH) = x^-1 H} for an involution gamma of K/H.

    ``gamma`` maps coset representatives (least member index) to coset
    representatives.  The result is verified to be closed under circ.
    """
    if not is_normal(K, H.members):
        raise PreconditionError("H not normal", f"{H.name} is not normal in {K.name}")
    rep = coset_representatives(K, H.members)
    cosets = sorted(set(rep))
    for c in cosets:
        if gamma.get(c) not in rep:
            raise PreconditionError("quotient map ill-defined",
                                    "gamma must map coset representatives to coset representatives")
    check_quotient_involution(K, rep, gamma)
    members = l_gamma(K, rep, gamma)
    if close_under_circ(K, members) != frozenset(members):
        raise AssertionError("L_gamma failed to be circ-closed")
    return members


def check_quotient_involution(K: FiniteQuaternionGroup, rep: Sequence[int],
                              gamma: Mapping[int, int] | Sequence[int]) -> None:
    """Raise PreconditionError unless gamma is an involutive automorphism of K/H.

    ``rep`` is the coset-representative table of H and ``gamma`` maps every
    coset representative to a coset representative (a dict, or a sequence
    indexed by element such as ``quotient_automorphisms`` returns).
    """
    cosets = sorted(set(rep))
    for c1 in cosets:
        if gamma[gamma[c1]] != c1:
            raise PreconditionError("quotient map not an involution",
                                    f"gamma^2 moves coset {c1}")
        for c2 in cosets:
            if gamma[rep[K.cayley[c1][c2]]] != rep[K.cayley[gamma[c1]][gamma[c2]]]:
                raise PreconditionError("quotient map not multiplicative",
                                        f"gamma fails on cosets ({c1}, {c2})")


def l_gamma(K: FiniteQuaternionGroup, rep: Sequence[int],
            gamma: Mapping[int, int] | Sequence[int]) -> tuple[int, ...]:
    """L_gamma = {x : gamma(xH) = x^-1 H}, ascending, from the coset table of H."""
    return tuple(x for x in range(K.order) if gamma[rep[x]] == rep[K.inv[x]])


def coset_representatives(K: FiniteQuaternionGroup, H: Iterable[int]) -> list[int]:
    """rep[x] = least index in the coset xH."""
    H = tuple(H)
    rep = [-1] * K.order
    for x in range(K.order):
        if rep[x] == -1:
            coset = sorted(K.cayley[x][h] for h in H)
            least = coset[0]
            for y in coset:
                rep[y] = least
    return rep


def power_lemma_check(K: FiniteQuaternionGroup, x: int, y: int, n: int) -> bool:
    """(x y^-1)^n x lies in the circ-closure of {x, y}."""
    closure = close_under_circ(K, (x, y))
    xy = K.cayley[x][K.inv[y]]
    return K.cayley[K.power(xy, n)][x] in closure
