"""Reflection systems: closure, orbits, equivalence, and enumeration.

A reflection system for a finite group K is a subset L with 1 in L, closed
under a o b = a * b^-1 * a, that generates K.  Systems are stored as sorted
index tuples against the parent group's fixed element ordering; the members
of a ``ReflectionSystem(parent, generators)`` are its generators' circ-closure.

Systems are equivalent under K x| Aut(K).  One class walk, ``_generate`` from
L under ``equivalence_maps(K)`` (the generators of Aut(K), then left
multiplication by a generating sequence of K), gives L's class, whose size
``enumerate_systems`` keeps on K for ``copy_count``, and the witness of
``systems_equivalent``; ``subgroup_copy_count`` walks L's orbit under
conjugation.  Neither lists all of K or Aut(K).  The pairs of Omega_n and
``omega_set`` live in ``indices``, which this module does not import.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Sequence

from .groups import (
    AUTOMORPHISM_BOUND,
    FiniteQuaternionGroup,
    Subgroup,
    _automorphism_search,
    _generate,
    _orbits,
    _quotient_search,
    build_group,
    normal_subgroups,
)

if TYPE_CHECKING:
    from .indices import DicyclicIndex


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


class ReflectionSystem:
    """A reflection system, given by a seed that circ-generates it (orbits walk the seed).

    Immutable: every slot is set once, here, and equality and hash are those
    of (parent, generators).  ``members`` is the generators' circ-closure,
    ascending.
    """

    __slots__ = ("parent", "generators", "members")

    def __init__(self, parent: FiniteQuaternionGroup, generators: tuple[int, ...]):
        object.__setattr__(self, "parent", parent)
        object.__setattr__(self, "generators", generators)
        object.__setattr__(self, "members", tuple(sorted(close_under_circ(parent, generators))))

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.parent, self.generators) == (other.parent, other.generators)

    def __hash__(self) -> int:
        return hash((self.parent, self.generators))

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


# -- closure -------------------------------------------------------------


def close_under_circ(K: FiniteQuaternionGroup, seed: Iterable[int]) -> frozenset:
    """Least circ-closed superset of the seed (no generation requirement).

    The maps s_a: x -> a o x are involutions with s_(a o b) = s_a s_b s_a, so
    s_a lies in the group generated by the s_s (s in the seed) whenever a lies
    in the seed's orbits under that group; those orbits are the closure.
    """
    seed = set(seed)
    return frozenset().union(*_orbits(seed, [K.circ_row(s) for s in seed]))


def close_system(K: FiniteQuaternionGroup, seed: Iterable[int]) -> ReflectionSystem:
    """Close a seed (which must contain the identity) into a reflection system."""
    seed = tuple(sorted(set(seed)))
    if 0 not in seed:
        raise ValueError("seed must contain the identity")
    L = ReflectionSystem(K, seed)
    generated = K.subgroup_closure(L.members)
    if len(generated) != K.order:
        raise NonGeneratingSeedError(K, generated)
    return L


def system_orbit(L: ReflectionSystem, b: int) -> tuple[int, ...]:
    """Closure of {b} under x -> a o x for a in L."""
    if b not in L.member_set():
        raise ValueError(f"element {b} is not in the system")
    return next(orbit for orbit in orbit_partition(L) if b in orbit)


def orbit_partition(L: ReflectionSystem) -> list[tuple[int, ...]]:
    """The orbits of x -> a o x (a in L), by size, then members; they are walked
    under L's generators, as s_(a o c) = s_a s_c s_a."""
    maps = [L.parent.circ_row(a) for a in L.generators]
    return sorted(_orbits(L.members, maps), key=lambda o: (len(o), o))


# -- equivalence ----------------------------------------------------------


def equivalence_maps(K: FiniteQuaternionGroup) -> tuple[list, list]:
    """The generators of K x| Aut(K) acting on K, each as ``image[x]``: those
    of Aut(K), and left multiplication by a generating sequence of K."""
    return _automorphism_search(K)[1], [K.cayley[x] for x in K.generating_sequence()]


def _class_walk(K: FiniteQuaternionGroup, members: frozenset):
    """L's walk under K x| Aut(K): ``_generate``'s sets and words, and its maps.

    The maps are ``equivalence_maps(K)``, the automorphisms first, so the
    walk reaches every phi(xL) with x in K; phi(xL) contains 1 exactly when
    x^-1, hence x, lies in L.
    """
    automorphisms, translations = equivalence_maps(K)
    maps = automorphisms + translations
    sets, _, word = _generate(members, maps, lambda S, f: frozenset(f[t] for t in S))
    return sets, word, maps


def systems_equivalent(L1: ReflectionSystem, L2: ReflectionSystem):
    """Equivalence test with witness: L2 == phi(x*L1) for a member x of L1.

    Returns (True, (x, phi)) or (False, None), phi as ``image[y]``.  The maps
    along the word by which L1's class walk reaches L2 compose to a map
    M = y phi(.), as automorphisms and left multiplications compose so:
    y = M(1), phi = y^-1 M and x = phi^-1(y) give phi(x L1) = M(L1) = L2.
    """
    if L1.parent is not L2.parent:
        raise ValueError("systems must share a parent group")
    if L1.size != L2.size:
        return False, None
    K, target = L1.parent, L2.member_set()
    sets, word, maps = _class_walk(K, L1.member_set())
    if target not in sets:
        return False, None
    M, step = range(K.order), word[sets.index(target)]
    while step is not None:  # the last map of the word first
        M = [M[i] for i in maps[step[1]]]
        step = word[step[0]]
    y = M[0]
    phi = tuple(map(K.cayley[K.inv[y]].__getitem__, M))
    return True, (phi.index(y), phi)


def _equivalent_sets(K: FiniteQuaternionGroup, members: frozenset) -> set[frozenset]:
    """L's class under K x| Aut(K): the sets of its class walk that contain 1."""
    if len(members) == K.order:
        return {members}
    return {S for S in _class_walk(K, members)[0] if 0 in S}


def copy_count(L: ReflectionSystem) -> int:
    """Number of reflection systems equivalent to L: the size of its class,
    as ``enumerate_systems`` walked it."""
    enumerate_systems(L.parent)
    return L.parent._class_sizes[L.members]


def subgroup_copy_count(L: ReflectionSystem) -> int:
    """Number of two-sided translates x*L*y, identity-containing or not.

    This counts the occurrences of the groups over L as reflection subgroups
    of the all-of-K reflection group: conjugating by diag(x, y) carries the
    antidiagonal reflection set L to x*L*y^-1.  By orbit-stabiliser it is
    |K|^2 over the number of pairs with x L y^-1 = L.  Such a pair has
    y = x l for a member l (1 lies in x L y^-1), and then the condition is
    L l^-1 = x^-1 L x; so the pairs number sum_x mult(x L x^-1), where
    mult(C) counts the members l with L l^-1 = C.  x L x^-1 takes each value
    of L's conjugation orbit, walked from ``conjugation_maps()``, for
    |K| / |orbit| of the x.
    """
    K = L.parent
    cay, inv, members = K.cayley, K.inv, L.members
    mult: dict[frozenset, int] = {}
    for l in members:
        C = frozenset(cay[t][inv[l]] for t in members)
        mult[C] = mult.get(C, 0) + 1
    orbit = _generate(L.member_set(), K.conjugation_maps(), lambda S, f: frozenset(f[t] for t in S))[0]
    return K.order * len(orbit) // sum(mult.get(C, 0) for C in orbit)


def minimal_generators(K: FiniteQuaternionGroup, members: tuple[int, ...]) -> tuple[int, ...]:
    """A small seed whose circ-closure is the given closed set."""
    gens, closed = [0], {0}
    for x in members:
        if x not in closed:
            gens.append(x)
            closed = close_under_circ(K, gens)
    return tuple(gens)


def enumerate_systems(K: FiniteQuaternionGroup) -> list[ReflectionSystem]:
    """All reflection systems of K, one canonical representative per class.

    Every reflection system is some L_gamma = {x : gamma(xH) = x^-1 H} for a
    normal subgroup H and an involutive automorphism gamma of K/H, which the
    quotient search lists without listing Aut(K/H); the L_gamma that
    generate K are canonicalised once per equivalence class, and each that
    does not is closed once and recorded as such.  The (H, gamma)
    with L_gamma a canonical system are kept on K as ``K._system_pairs``,
    keyed by its member set, in ``normal_subgroups`` order; gamma is the
    search's ``image[x]``.  Every system's ascending members map to the size
    of its class in ``K._class_sizes``, which ``copy_count`` reads.
    """
    if K.order > AUTOMORPHISM_BOUND:
        raise ValueError(f"enumeration bound {AUTOMORPHISM_BOUND} exceeded by |K| = {K.order}")
    if K._systems is not None:
        return K._systems

    sizes: dict[tuple[int, ...], int] = {}
    systems, pairs, proper = [], {}, set()  # proper: the L_gamma that generate less than K
    for H in normal_subgroups(K):
        # for H = 1, the search whose generators _class_walk uses, cached on K
        search = _automorphism_search(K) if H.order == 1 else _quotient_search(H)
        for gamma in search[0]:
            members = l_gamma(H, gamma)
            if members in proper:
                continue
            if members not in sizes:
                if len(K.subgroup_closure(members)) != K.order:
                    proper.add(members)
                    continue
                equivalent = [tuple(sorted(S)) for S in _equivalent_sets(K, frozenset(members))]
                sizes.update(dict.fromkeys(equivalent, len(equivalent)))
                canon = min(equivalent)
                systems.append(ReflectionSystem(K, minimal_generators(K, canon)))
                pairs[canon] = []
            if members in pairs:
                pairs[members].append((H, gamma))
    systems.sort(key=lambda L: (L.size, L.members))
    K._systems, K._class_sizes = systems, sizes
    K._system_pairs = {frozenset(canon): kept for canon, kept in pairs.items()}
    return systems


# -- dicyclic systems ------------------------------------------------------


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


def l_gamma(H: Subgroup, gamma: Sequence[int]) -> tuple[int, ...]:
    """L_gamma = {x : gamma(xH) = x^-1 H}, ascending, for gamma as ``image[x]``
    (the least index in the image of xH)."""
    rep, inv = H.coset_rep, H.parent.inv
    return tuple(x for x in range(len(rep)) if gamma[x] == rep[inv[x]])

