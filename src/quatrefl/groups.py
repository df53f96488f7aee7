"""Finite subgroups of the unit quaternions as Cayley-table groups.

``build_group`` covers the full classification: cyclic C_n, dicyclic D_n of
order 4n, and the binary tetrahedral / octahedral / icosahedral groups of
orders 24 / 48 / 120.  Every group takes one construction path: its
generators (zeta_n; zeta_2n and j; or ``polyhedral_generators``) are closed
under right multiplication in |K|*|gens| exact quaternion products, and the
Cayley table is filled from those products by integer lookups.  Elements are
exact quaternions; indices are stable (sorted by element order, then
lexicographic coefficients) so tables and golden files are reproducible
across runs.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Optional

from .exactarith import FieldScalar, Quaternion, embedded_circle_element

POLYHEDRAL_CONDUCTOR = {"T": 4, "O": 8, "I": 20}


class FiniteQuaternionGroup:
    """A finite subgroup of the unit quaternions with full multiplication data.

    elements[0] is the identity; ``cayley[x][y]`` is the index of the product
    and ``inv[x]`` the index of the inverse.  Instances are immutable after
    construction and safe to share.
    """

    def __init__(self, name: str, tag: str, n: Optional[int], elements: list[Quaternion],
                 cayley: list[list[int]], inv: list[int], element_orders: list[int]):
        self.name = name
        self.tag = tag
        self.n = n
        self.elements = elements
        self.cayley = cayley
        self.inv = inv
        self.conductor = elements[0].conductor
        self.index = {q: i for i, q in enumerate(elements)}
        self.element_orders = element_orders
        # lazily built caches
        self._circ: Optional[list[list[int]]] = None
        self._conj_classes: Optional[list[tuple[int, ...]]] = None
        self._automorphisms: Optional[list["GroupAutomorphism"]] = None
        self._systems = None

    @property
    def order(self) -> int:
        return len(self.elements)

    def power(self, x: int, k: int) -> int:
        if k < 0:
            return self.power(self.inv[x], -k)
        acc = 0
        base = x
        while k:
            if k & 1:
                acc = self.cayley[acc][base]
            base = self.cayley[base][base]
            k >>= 1
        return acc

    def conj(self, g: int, x: int) -> int:
        """g x g^-1."""
        return self.cayley[self.cayley[g][x]][self.inv[g]]

    def circ_table(self) -> list[list[int]]:
        """Table of a o b = a * b^-1 * a, the reflection-system operation."""
        if self._circ is None:
            inv = self.inv
            cay = self.cayley
            self._circ = [
                [cay[cay[a][inv[b]]][a] for b in range(self.order)]
                for a in range(self.order)
            ]
        return self._circ

    def conjugacy_classes(self) -> list[tuple[int, ...]]:
        if self._conj_classes is None:
            seen = [False] * self.order
            classes = []
            for x in range(self.order):
                if seen[x]:
                    continue
                cls = sorted({self.conj(g, x) for g in range(self.order)})
                for y in cls:
                    seen[y] = True
                classes.append(tuple(cls))
            self._conj_classes = classes
        return self._conj_classes

    def subgroup_closure(self, seed: Iterable[int]) -> tuple[int, ...]:
        """Indices of the subgroup generated by ``seed``."""
        members = {0}
        queue = list(set(seed) - members)
        members.update(queue)
        while queue:
            u = queue.pop()
            for v in list(members):
                for w in (self.cayley[u][v], self.cayley[v][u]):
                    if w not in members:
                        members.add(w)
                        queue.append(w)
        return tuple(sorted(members))

    def generating_sequence(self) -> list[int]:
        """A small generating sequence, preferring high-order elements."""
        candidates = sorted(range(self.order), key=lambda x: (-self.element_orders[x], x))
        gens: list[int] = []
        current = (0,)
        for x in candidates:
            if x in current:
                continue
            gens.append(x)
            current = self.subgroup_closure(gens)
            if len(current) == self.order:
                return gens
        return gens  # order-1 group

    def __repr__(self) -> str:
        return f"FiniteQuaternionGroup({self.name}, order={self.order})"

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "order": self.order,
            "elements": [q.to_json() for q in self.elements],
            "cayley": [list(row) for row in self.cayley],
        }


@dataclass(frozen=True)
class Subgroup:
    """A subgroup given by its sorted member indices in the parent group."""

    parent: FiniteQuaternionGroup
    members: tuple[int, ...]

    def __post_init__(self):
        if 0 not in self.members:
            raise ValueError("subgroup must contain the identity")

    @property
    def order(self) -> int:
        return len(self.members)

    @property
    def name(self) -> str:
        return subgroup_name(self.parent, self.members)

    def member_set(self) -> frozenset:
        return frozenset(self.members)

    def __repr__(self) -> str:
        return f"Subgroup({self.name} in {self.parent.name})"


@dataclass(frozen=True)
class GroupAutomorphism:
    """A Cayley-table-preserving permutation of element indices."""

    parent: FiniteQuaternionGroup
    image: tuple[int, ...]

    def __call__(self, x: int) -> int:
        return self.image[x]


# -- constructors -------------------------------------------------------


def default_max_order() -> int:
    return int(os.environ.get("QUATREFL_MAX_ORDER", "1000000"))


@lru_cache(maxsize=None)
def build_group(tag: str, n: Optional[int] = None) -> FiniteQuaternionGroup:
    """Construct a finite subgroup of the unit quaternions.

    tag: 'cyclic' (n >= 1), 'dicyclic' (n >= 2), or 'T' / 'O' / 'I'.
    """
    if tag == "cyclic":
        if n is None or n < 1:
            raise ValueError(f"cyclic group needs n >= 1, got {n}")
        return _close_generators(f"C{n}", tag, n, [embedded_circle_element(math.lcm(4, n), n, 1)])
    if tag == "dicyclic":
        if n is None or n < 2:
            raise ValueError(f"dicyclic group needs n >= 2, got {n}")
        gens = [embedded_circle_element(4 * n, 2 * n, 1), Quaternion.unit(4 * n, "j")]
        return _close_generators(f"D{n}", tag, n, gens)
    if tag in POLYHEDRAL_CONDUCTOR:
        if n is not None:
            raise ValueError(f"group {tag} takes no parameter")
        return _close_generators(tag, tag, None, polyhedral_generators(tag))
    raise ValueError(f"unsupported group tag {tag!r}")


def polyhedral_generators(tag: str) -> list[Quaternion]:
    m = POLYHEDRAL_CONDUCTOR[tag]
    half = Fraction(1, 2)
    zeta = Quaternion.from_rationals(m, (half, half, half, half))
    if tag == "T":
        return [Quaternion.unit(m, "i"), zeta]
    if tag == "O":
        s = FieldScalar.sqrt2(m) * FieldScalar.from_rational(m, half)
        zero = FieldScalar.zero(m)
        return [Quaternion(s, s, zero, zero), zeta]
    tau_half = (FieldScalar.one(m) + FieldScalar.sqrt5(m)) * FieldScalar.from_rational(m, Fraction(1, 4))
    sigma_half = (FieldScalar.one(m) - FieldScalar.sqrt5(m)) * FieldScalar.from_rational(m, Fraction(1, 4))
    w = Quaternion(FieldScalar.from_rational(m, half), tau_half, sigma_half, FieldScalar.zero(m))
    return [Quaternion.unit(m, "i"), zeta, w]


def _close_generators(name: str, tag: str, n: Optional[int],
                      gens: list[Quaternion]) -> FiniteQuaternionGroup:
    """Close ``gens`` under multiplication and tabulate the group.

    A breadth-first search from 1 forms x*g for every element x and generator
    g (|K|*|gens| exact products), recording ``right[x][k] = x*gens[k]`` and
    the word ``(parent, k)`` that first reached each element.  The Cayley
    table then needs integer lookups only: x*y = right[x*parent(y)][k].
    """
    one = Quaternion.one(gens[0].conductor)
    values, index, word, right = [one], {one: 0}, [None], []
    for x, q in enumerate(values):  # values grows while it is walked
        row = []
        for k, g in enumerate(gens):
            y = q * g
            if y not in index:
                index[y] = len(values)
                values.append(y)
                word.append((x, k))
            row.append(index[y])
        right.append(row)
    cayley = []
    for x in range(len(values)):
        row = [x]
        for p, k in word[1:]:
            row.append(right[row[p]][k])
        cayley.append(row)
    orders = []
    for x, row in enumerate(cayley):
        k, y = 1, x
        while y != 0:
            y = row[y]
            k += 1
        orders.append(k)
    # order by (element order, coefficients); integers over one common
    # denominator compare exactly as the Fraction coefficients would
    scalars = [(q.a, q.b, q.c, q.d) for q in values]
    den = math.lcm(*(s.den for qs in scalars for s in qs))
    keys = [tuple(v * (den // s.den) for s in qs for v in s.nums) for qs in scalars]
    idx = sorted(range(len(values)), key=lambda i: (orders[i], keys[i]))
    pos = [0] * len(idx)
    for new, old in enumerate(idx):
        pos[old] = new
    cayley = [[pos[row[j]] for j in idx] for row in (cayley[i] for i in idx)]
    return FiniteQuaternionGroup(name, tag, n, [values[i] for i in idx], cayley,
                                 [row.index(0) for row in cayley], [orders[i] for i in idx])


# -- subgroup machinery --------------------------------------------------


def subgroup_name(K: FiniteQuaternionGroup, members: tuple[int, ...]) -> str:
    o = len(members)
    if o == 1:
        return "1"
    orders = [K.element_orders[x] for x in members]
    if max(orders) == o:
        return f"C{o}"
    abelian = all(
        K.cayley[x][y] == K.cayley[y][x] for x in members for y in members
    ) if o <= 16 else False
    if o == 8 and not abelian:
        return "Q8"
    if o % 4 == 0 and max(orders) == o // 2 and not abelian:
        return f"D{o // 4}"
    if o == 24:
        return "T"
    if o == 48:
        return "O"
    if o == 120:
        return "I"
    return f"sub{o}"


def is_normal(K: FiniteQuaternionGroup, members: Iterable[int]) -> bool:
    mset = frozenset(members)
    return all(K.conj(g, x) in mset for x in mset for g in range(K.order))


def normal_subgroups(K: FiniteQuaternionGroup) -> list[Subgroup]:
    """All normal subgroups, found by closing unions of conjugacy classes."""
    classes = K.conjugacy_classes()
    trivial = (0,)
    found = {trivial}
    queue = [trivial]
    while queue:
        base = queue.pop()
        for cls in classes:
            if cls[0] in base:
                continue
            closed = K.subgroup_closure(set(base) | set(cls))
            if closed not in found:
                found.add(closed)
                queue.append(closed)
    subs = [Subgroup(K, members) for members in found]
    subs.sort(key=lambda s: (s.order, s.members))
    return subs


def commutator_subgroup(K: FiniteQuaternionGroup) -> Subgroup:
    commutators = {
        K.cayley[K.cayley[a][b]][K.cayley[K.inv[a]][K.inv[b]]]
        for a in range(K.order)
        for b in range(K.order)
    }
    return Subgroup(K, K.subgroup_closure(commutators))


def automorphism_group(K: FiniteQuaternionGroup, bound: int = 120) -> list[GroupAutomorphism]:
    """All automorphisms, by backtracking on images of a generating sequence."""
    if K.order > bound:
        raise ValueError(f"automorphism search bound {bound} exceeded by |K| = {K.order}")
    if K._automorphisms is not None:
        return K._automorphisms

    gens = K.generating_sequence()
    if not gens:  # trivial group
        autos = [GroupAutomorphism(K, (0,))]
        K._automorphisms = autos
        return autos

    # breadth-first words for every element over the generating sequence
    parent: list[Optional[tuple[int, int]]] = [None] * K.order
    seen = [False] * K.order
    seen[0] = True
    frontier = [0]
    while frontier:
        nxt = []
        for x in frontier:
            for gi, g in enumerate(gens):
                y = K.cayley[x][g]
                if not seen[y]:
                    seen[y] = True
                    parent[y] = (x, gi)
                    nxt.append(y)
        frontier = nxt

    by_order: dict[int, list[int]] = {}
    for x in range(K.order):
        by_order.setdefault(K.element_orders[x], []).append(x)

    images = []

    def extend(chosen: list[int]) -> Optional[tuple[int, ...]]:
        img: list[Optional[int]] = [None] * K.order
        img[0] = 0
        pending = [x for x in range(K.order) if parent[x] is not None]
        # resolve in dependency order via repeated passes (parents form a DAG)
        resolved = 1
        while pending:
            progressed = False
            rest = []
            for x in pending:
                px, gi = parent[x]
                if img[px] is not None:
                    img[x] = K.cayley[img[px]][chosen[gi]]
                    progressed = True
                else:
                    rest.append(x)
            pending = rest
            if pending and not progressed:
                raise AssertionError("BFS parent chain incomplete")
        if len(set(img)) != K.order:
            return None
        # homomorphism check on (x, generator) pairs extends to all products
        for x in range(K.order):
            for gi, g in enumerate(gens):
                if img[K.cayley[x][g]] != K.cayley[img[x]][chosen[gi]]:
                    return None
        return tuple(img)  # type: ignore[arg-type]

    def backtrack(i: int, chosen: list[int]):
        if i == len(gens):
            result = extend(chosen)
            if result is not None:
                images.append(result)
            return
        for cand in by_order[K.element_orders[gens[i]]]:
            backtrack(i + 1, chosen + [cand])

    backtrack(0, [])
    autos = [GroupAutomorphism(K, img) for img in sorted(set(images))]
    K._automorphisms = autos
    return autos


def element_order_census(K: FiniteQuaternionGroup) -> dict[int, int]:
    census: dict[int, int] = {}
    for o in K.element_orders:
        census[o] = census.get(o, 0) + 1
    return dict(sorted(census.items()))


def group_contains(outer: FiniteQuaternionGroup, inner: FiniteQuaternionGroup) -> bool:
    """True if inner's element set lies in outer's, after lifting conductors."""
    m = math.lcm(outer.conductor, inner.conductor)
    outer_set = {q.lift(m) for q in outer.elements}
    return all(q.lift(m) in outer_set for q in inner.elements)
