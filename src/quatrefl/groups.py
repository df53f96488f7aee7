"""Finite subgroups of the unit quaternions as Cayley-table groups.

The constructors cover the full classification: cyclic C_n, dicyclic D_n of
order 4n, and the binary tetrahedral / octahedral / icosahedral groups of
orders 24 / 48 / 120.  Elements are exact quaternions; indices are stable
(sorted by element order, then lexicographic coefficients) so tables and
golden files are reproducible across runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Optional, Sequence

from .exactarith import FieldScalar, Quaternion, embedded_circle_element

POLYHEDRAL_CONDUCTOR = {"T": 4, "O": 8, "I": 20}


class FiniteQuaternionGroup:
    """A finite subgroup of the unit quaternions with full multiplication data.

    elements[0] is the identity; ``cayley[x][y]`` is the index of the product
    and ``inv[x]`` the index of the inverse.  Instances are immutable after
    construction and safe to share.
    """

    def __init__(self, name: str, tag: str, n: Optional[int], elements: list[Quaternion],
                 cayley: list[list[int]], inv: list[int]):
        self.name = name
        self.tag = tag
        self.n = n
        self.elements = elements
        self.cayley = cayley
        self.inv = inv
        self.conductor = elements[0].conductor
        self.index = {q: i for i, q in enumerate(elements)}
        self.element_orders = self._element_orders()
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

    def _element_orders(self) -> list[int]:
        orders = []
        for x in range(len(self.elements)):
            k, y = 1, x
            while y != 0:
                y = self.cayley[y][x]
                k += 1
            orders.append(k)
        return orders

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


@lru_cache(maxsize=None)
def build_group(tag: str, n: Optional[int] = None) -> FiniteQuaternionGroup:
    """Construct a finite subgroup of the unit quaternions.

    tag: 'cyclic' (n >= 1), 'dicyclic' (n >= 2), or 'T' / 'O' / 'I'.
    """
    if tag == "cyclic":
        if n is None or n < 1:
            raise ValueError(f"cyclic group needs n >= 1, got {n}")
        return _build_cyclic(n)
    if tag == "dicyclic":
        if n is None or n < 2:
            raise ValueError(f"dicyclic group needs n >= 2, got {n}")
        return _build_dicyclic(n)
    if tag in POLYHEDRAL_CONDUCTOR:
        if n is not None:
            raise ValueError(f"group {tag} takes no parameter")
        return _build_polyhedral(tag)
    raise ValueError(f"unsupported group tag {tag!r}")


def _sorted_with_tags(values: list[Quaternion], tags: list, orders: list[int]):
    keyed = sorted(range(len(values)), key=lambda i: (orders[i], values[i].sort_key()))
    return ([values[i] for i in keyed], [tags[i] for i in keyed], [orders[i] for i in keyed])


def _build_cyclic(n: int) -> FiniteQuaternionGroup:
    m = math.lcm(4, n)
    values = [embedded_circle_element(m, n, e) for e in range(n)]
    tags = list(range(n))
    orders = [n // math.gcd(e, n) for e in range(n)]
    values, tags, orders = _sorted_with_tags(values, tags, orders)
    pos = {t: i for i, t in enumerate(tags)}
    cayley = [[pos[(tags[i] + tags[j]) % n] for j in range(n)] for i in range(n)]
    inv = [pos[(-tags[i]) % n] for i in range(n)]
    return FiniteQuaternionGroup(f"C{n}", "cyclic", n, values, cayley, inv)


def _dicyclic_tag_mul(n: int, t1, t2):
    e1, s1 = t1
    e2, s2 = t2
    if s1 == 0:
        return ((e1 + e2) % (2 * n), s2)
    if s2 == 0:
        return ((e1 - e2) % (2 * n), 1)
    return ((e1 - e2 + n) % (2 * n), 0)


def _build_dicyclic(n: int) -> FiniteQuaternionGroup:
    m = 4 * n
    j = Quaternion.unit(m, "j")
    values, tags, orders = [], [], []
    for e in range(2 * n):
        w = embedded_circle_element(m, 2 * n, e)
        values.append(w)
        tags.append((e, 0))
        orders.append(2 * n // math.gcd(e, 2 * n))
        values.append(w * j)
        tags.append((e, 1))
        orders.append(4)
    values, tags, orders = _sorted_with_tags(values, tags, orders)
    pos = {t: i for i, t in enumerate(tags)}
    size = 4 * n
    cayley = [
        [pos[_dicyclic_tag_mul(n, tags[i], tags[j2])] for j2 in range(size)]
        for i in range(size)
    ]
    inv = []
    for i in range(size):
        e, s = tags[i]
        inv.append(pos[((-e) % (2 * n), 0)] if s == 0 else pos[((e + n) % (2 * n), 1)])
    return FiniteQuaternionGroup(f"D{n}", "dicyclic", n, values, cayley, inv)


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


def mulclose(generators: Sequence[Quaternion]) -> list[Quaternion]:
    """Closure of a set of quaternions under multiplication."""
    m = generators[0].conductor
    one = Quaternion.one(m)
    seen = {one}
    frontier = [one]
    while frontier:
        new = []
        for x in frontier:
            for g in generators:
                y = x * g
                if y not in seen:
                    seen.add(y)
                    new.append(y)
        frontier = new
    return list(seen)


def closure_table(elements: list[Quaternion]):
    """Cayley and inverse tables from raw element values (order n^2 products)."""
    index = {q: i for i, q in enumerate(elements)}
    n = len(elements)
    cayley = [[index[elements[i] * elements[j]] for j in range(n)] for i in range(n)]
    one = Quaternion.one(elements[0].conductor)
    inv = [next(j for j in range(n) if cayley[i][j] == index[one]) for i in range(n)]
    return cayley, inv


def _build_polyhedral(tag: str) -> FiniteQuaternionGroup:
    return _group_from_values(tag, tag, None, mulclose(polyhedral_generators(tag)))


def build_group_by_closure(tag: str, n: Optional[int] = None) -> FiniteQuaternionGroup:
    """Independent construction path: close the generators by multiplication.

    Used to cross-check the fast cyclic/dicyclic constructors; identical
    element sets, ordering, and tables are expected.
    """
    if tag in POLYHEDRAL_CONDUCTOR:
        return build_group(tag)
    if tag == "cyclic":
        m = math.lcm(4, n)
        gens = [embedded_circle_element(m, n, 1)]
        name = f"C{n}"
    elif tag == "dicyclic":
        m = 4 * n
        gens = [embedded_circle_element(m, 2 * n, 1), Quaternion.unit(m, "j")]
        name = f"D{n}"
    else:
        raise ValueError(f"unsupported group tag {tag!r}")
    return _group_from_values(name, tag, n, mulclose(gens))


def _group_from_values(name: str, tag: str, n: Optional[int],
                       values: list[Quaternion]) -> FiniteQuaternionGroup:
    """Order closed element values by (element order, coefficients) and tabulate."""
    # element orders straight from the values, so sorting precedes the table
    one = Quaternion.one(values[0].conductor)
    orders = []
    for q in values:
        k, p = 1, q
        while p != one:
            p = p * q
            k += 1
        orders.append(k)
    idx = sorted(range(len(values)), key=lambda i: (orders[i], values[i].sort_key()))
    values = [values[i] for i in idx]
    cayley, inv = closure_table(values)
    return FiniteQuaternionGroup(name, tag, n, values, cayley, inv)


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
