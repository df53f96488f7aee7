"""Finite subgroups of the unit quaternions as Cayley-table groups.

``build_group`` covers the full classification: cyclic C_n, dicyclic D_n of
order 4n, and the binary tetrahedral / octahedral / icosahedral groups of
orders 24 / 48 / 120.  Every group takes one construction path: its
generators (zeta_n; zeta_2n and j; or ``polyhedral_generators``) are closed
under right multiplication modulo a prime, which is injective on K; the
Cayley table is filled from that walk by integer lookups, and each element is
formed once, along the word that first reached it (|K| - 1 exact quaternion
products).  Elements are exact quaternions; indices are stable (sorted by
element order, then lexicographic coefficients) so tables are reproducible.

Every generator walk of the package goes through one closure routine,
``_generate``: group construction, the automorphism search, and (in
``refsystems`` and ``refgroups``) isomorphism checks and orbits under maps.
Maps given on generators are extended to homomorphisms by ``_extend_map``
along the same walk, and ``_orbits`` runs one walk per orbit of index
permutations: conjugacy classes, circ-closures, system orbits and reflection
orbit types.  Closures that need no table (subgroups, reflection triples,
greedy generating sequences, the keys of the automorphisms the search has
found) go through ``_closure``, which admits only the generators that enlarge
the closure and resumes its walk at each admission.

The automorphisms of K/H come from one search, ``_quotient_search``, which
returns the involutions of K/H and a generating set of Aut(K/H);
``quotient_automorphisms`` and ``automorphism_group`` are the closure of the
search's generators.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterable, Optional, Sequence

from .exactarith import FieldScalar, Quaternion, embedded_circle_element
from .numutil import prime_root_of_unity

POLYHEDRAL_CONDUCTOR = {"T": 4, "O": 8, "I": 20}
POLYHEDRAL_ORDER = {"T": 24, "O": 48, "I": 120}


class FiniteQuaternionGroup:
    """A finite subgroup of the unit quaternions with full multiplication data.

    elements[0] is the identity; ``cayley[x][y]`` is the index of the product,
    ``inv[x]`` that of the inverse and ``build_gens`` those of the generators
    it was closed from.  Instances are immutable after construction and safe to share.
    """

    def __init__(self, name: str, tag: str, n: Optional[int], elements: list[Quaternion],
                 cayley: list[list[int]], inv: list[int], element_orders: list[int],
                 build_gens: tuple[int, ...]):
        self.name = name
        self.tag = tag
        self.n = n
        self.elements = elements
        self.cayley = cayley
        self.inv = inv
        self.conductor = elements[0].conductor
        self.index = {q: i for i, q in enumerate(elements)}
        self.element_orders = element_orders
        self.build_gens = build_gens
        # lazily built caches
        self._circ: Optional[list[list[int]]] = None
        self._conj_classes: Optional[list[tuple[int, ...]]] = None
        self._normal: Optional[list["Subgroup"]] = None
        self._automorphisms: Optional[list["GroupAutomorphism"]] = None
        self._aut_search: Optional[tuple[list, list]] = None
        self._gens: Optional[list[int]] = None
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
        """Orbits under conjugation by ``generating_sequence()``, by least member."""
        if self._conj_classes is None:
            maps = [[self.conj(g, x) for x in range(self.order)] for g in self.generating_sequence()]
            self._conj_classes = _orbits(range(self.order), maps)
        return self._conj_classes

    def subgroup_closure(self, seed: Iterable[int]) -> tuple[int, ...]:
        """Indices of the subgroup generated by ``seed``."""
        cay = self.cayley
        return tuple(sorted(_closure(0, seed, lambda x, g: cay[x][g])[0]))

    def generating_sequence(self) -> list[int]:
        """A small generating sequence, preferring high-order elements (a fresh list)."""
        if self._gens is None:
            cay = self.cayley
            candidates = sorted(range(self.order), key=lambda x: (-self.element_orders[x], x))
            self._gens = _closure(0, candidates, lambda x, g: cay[x][g])[1]
        return list(self._gens)

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


# -- the closure routine --------------------------------------------------


def _generate(one, gens: Sequence, mul: Callable, bound: Optional[int] = None):
    """Close ``gens`` under right multiplication, breadth first from ``one``.

    Returns ``(elements, right, word)``: the elements in discovery order,
    ``right[x][k]``, the index of ``mul(elements[x], gens[k])``, and
    ``word[x] = (parent, k)``, the product that first reached x (None for
    ``one``).  Raises ValueError once more than ``bound`` elements are found.
    """
    elements, index, word, right = [one], {one: 0}, [None], []
    for x, u in enumerate(elements):  # elements grows while it is walked
        row = []
        for k, g in enumerate(gens):
            n, v = len(elements), mul(u, g)
            y = index.setdefault(v, n)
            if y == n:
                elements.append(v)
                word.append((x, k))
                if bound is not None and n >= bound:
                    raise ValueError(f"closure exceeded bound {bound}")
            row.append(y)
        right.append(row)
    return elements, right, word


def _orbits(points: Iterable[int], maps: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """The orbits that meet ``points`` under the index permutations ``maps``,
    each sorted, in order of least member; each is one ``_generate`` walk
    (forward images suffice, as the maps permute a finite set)."""
    orbits, seen = [], set()
    for p in points:
        if p not in seen:
            orbit = _generate(p, maps, lambda x, f: f[x])[0]
            seen.update(orbit)
            orbits.append(tuple(sorted(orbit)))
    return sorted(orbits)


def _closure(one, gens: Iterable, mul: Callable, bound: Optional[int] = None):
    """Close ``gens`` under ``mul``, admitting only the generators that enlarge it.

    Returns (members as a set, admitted generators in order); each admission
    is one ``_enlarge`` step (Dimino's method).
    """
    members, admitted = {one}, []
    for g in gens:
        _enlarge(members, admitted, g, mul, bound)
    return members, admitted


def _enlarge(members: set, admitted: list, g, mul: Callable, bound: Optional[int] = None) -> None:
    """Close ``members``, the closure of ``admitted``, over g as well, in place.

    Nothing changes when g is already a member.  Otherwise g is admitted and
    the walk resumes: the old members are multiplied by g only and the new
    ones by every admitted generator, so no product is formed twice and a
    closure costs at most |closure| * |admitted| products.  Raises ValueError
    once more than ``bound`` members are found.
    """
    if g in members:
        return
    admitted.append(g)
    new: list = []

    def reach(v) -> None:
        if v not in members:
            members.add(v)
            new.append(v)
            if bound is not None and len(members) > bound:
                raise ValueError(f"closure exceeded bound {bound}")

    for u in list(members):
        reach(mul(u, g))
    for u in new:  # new grows while it is walked
        for h in admitted:
            reach(mul(u, h))


def _extend_map(right: list[list[int]], targets: Sequence, mul: Callable, one) -> Optional[list]:
    """Images of ``_generate``'s elements under the map gens[k] -> targets[k].

    Each element takes its image along the product that first reached it;
    the result is None unless every (element, generator) pair agrees, i.e.
    unless the map extends to a homomorphism.
    """
    image = [one]
    for x, row in enumerate(right):
        u = image[x]
        for y, t in zip(row, targets):
            v = mul(u, t)
            if y == len(image):  # y is first reached here, as in _generate
                image.append(v)
            elif image[y] != v:
                return None
    return image


# -- constructors -------------------------------------------------------


def default_max_order() -> int:
    """The explicit-construction budget, from QUATREFL_MAX_ORDER (default 10^6)."""
    text = os.environ.get("QUATREFL_MAX_ORDER", "1000000")
    if not text.strip().isdecimal() or int(text) < 1:
        raise ValueError(f"QUATREFL_MAX_ORDER must be a positive integer, got {text!r}")
    return int(text)


@lru_cache(maxsize=None)
def build_group(tag: str, n: Optional[int] = None) -> FiniteQuaternionGroup:
    """Construct a finite subgroup of the unit quaternions.

    tag: 'cyclic' (n >= 1), 'dicyclic' (n >= 2), or 'T' / 'O' / 'I'.
    """
    if tag == "cyclic":
        if n is None or n < 1:
            raise ValueError(f"cyclic group needs n >= 1, got {n}")
        return _close_generators(f"C{n}", tag, n, [embedded_circle_element(math.lcm(4, n), n, 1)], n)
    if tag == "dicyclic":
        if n is None or n < 2:
            raise ValueError(f"dicyclic group needs n >= 2, got {n}")
        gens = [embedded_circle_element(4 * n, 2 * n, 1), Quaternion.unit(4 * n, "j")]
        return _close_generators(f"D{n}", tag, n, gens, 4 * n)
    if tag in POLYHEDRAL_CONDUCTOR:
        if n is not None:
            raise ValueError(f"group {tag} takes no parameter")
        return _close_generators(tag, tag, None, polyhedral_generators(tag), POLYHEDRAL_ORDER[tag])
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


def _reduced_walk(gens: list[Quaternion], order: int):
    """``_generate(Quaternion.one(m), gens, operator.mul)`` for a group of ``order`` elements.

    The walk runs mod the least odd prime p = 1 (mod m), zeta_m -> a primitive
    m-th root r (denominators are powers of 2), a ring map injective on finite
    groups (Minkowski); a count other than ``order`` raises ArithmeticError.
    Each element is then formed once, along the word that first reached it.
    """
    m = gens[0].conductor
    p, r = prime_root_of_unity(m)

    def mul(x: tuple, y: tuple) -> tuple:
        (a, b, c, d), (e, f, g, h) = x, y
        return ((a * e - b * f - c * g - d * h) % p, (a * f + b * e + c * h - d * g) % p,
                (a * g - b * h + c * e + d * f) % p, (a * h + b * g - c * f + d * e) % p)

    images = [tuple(sum(v * pow(r, k, p) for k, v in s.terms) * pow(s.den, -1, p) % p
                    for s in (q.a, q.b, q.c, q.d)) for q in gens]
    _, right, word = _generate((1, 0, 0, 0), images, mul)
    if len(word) != order:
        raise ArithmeticError(f"generators close to {len(word)} elements mod {p}, not {order}")
    values = [Quaternion.one(m)]
    for parent, k in word[1:]:
        values.append(values[parent] * gens[k])
    return values, right, word


def _close_generators(name: str, tag: str, n: Optional[int],
                      gens: list[Quaternion], order: int) -> FiniteQuaternionGroup:
    """Close ``gens``, which generate a group of ``order`` elements, and tabulate it.

    ``_reduced_walk`` gives the elements with ``_generate``'s ``right`` and
    ``word``; the Cayley table then needs integer lookups only:
    x*y = right[x*parent(y)][k] for the word (parent, k) that first reached y.
    """
    values, right, word = _reduced_walk(gens, order)
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
    # denominator compare exactly as the Fraction coefficients would, and a
    # (component, power) column that is zero in every element never decides
    # the comparison, so the keys keep only the other columns
    scalars = [(q.a, q.b, q.c, q.d) for q in values]
    den = math.lcm(*(s.den for qs in scalars for s in qs))
    cols = sorted({(c, p) for qs in scalars for c, s in enumerate(qs) for p, _ in s.terms})
    col = {cp: i for i, cp in enumerate(cols)}
    keys = []
    for qs in scalars:
        key = [0] * len(cols)
        for c, s in enumerate(qs):
            scale = den // s.den
            for p, v in s.terms:
                key[col[c, p]] = v * scale
        keys.append(key)
    idx = sorted(range(len(values)), key=lambda i: (orders[i], keys[i]))
    pos = [0] * len(idx)
    for new, old in enumerate(idx):
        pos[old] = new
    cayley = [[pos[row[j]] for j in idx] for row in (cayley[i] for i in idx)]
    return FiniteQuaternionGroup(name, tag, n, [values[i] for i in idx], cayley,
                                 [row.index(0) for row in cayley], [orders[i] for i in idx],
                                 tuple(pos[y] for y in right[0]))


# -- subgroup machinery --------------------------------------------------


def subgroup_name(K: FiniteQuaternionGroup, members: tuple[int, ...]) -> str:
    o = len(members)
    if o == 1:
        return "1"
    orders = [K.element_orders[x] for x in members]
    if max(orders) == o:
        return f"C{o}"
    # every finite abelian subgroup of the unit quaternions is cyclic (a finite
    # subgroup of a field's multiplicative group), so from here on none is
    if o == 8:
        return "Q8"
    if o % 4 == 0 and max(orders) == o // 2:
        return f"D{o // 4}"
    if o == 24:
        return "T"
    if o == 48:
        return "O"
    if o == 120:
        return "I"
    return f"sub{o}"


def is_normal(K: FiniteQuaternionGroup, members: Iterable[int]) -> bool:
    """g S g^-1 = S for every g in K, tested on generators: conjugation is
    injective and S finite, so g S g^-1 within S gives equality."""
    mset = frozenset(members)
    gens = K.generating_sequence()
    return all(K.conj(g, x) in mset for x in mset for g in gens)


def normal_subgroups(K: FiniteQuaternionGroup) -> list[Subgroup]:
    """All normal subgroups: the closure of 1 under joining conjugacy classes."""
    def join(base: tuple[int, ...], cls: tuple[int, ...]) -> tuple[int, ...]:
        return base if cls[0] in base else K.subgroup_closure(base + cls)

    if K._normal is None:
        found = _generate((0,), K.conjugacy_classes(), join)[0]
        K._normal = sorted((Subgroup(K, members) for members in found),
                           key=lambda s: (s.order, s.members))
    return K._normal


def commutator_subgroup(K: FiniteQuaternionGroup) -> Subgroup:
    commutators = {
        K.cayley[K.cayley[a][b]][K.cayley[K.inv[a]][K.inv[b]]]
        for a in range(K.order)
        for b in range(K.order)
    }
    return Subgroup(K, K.subgroup_closure(commutators))


def automorphism_group(K: FiniteQuaternionGroup, bound: int = 120) -> list[GroupAutomorphism]:
    """All automorphisms of K: the closure of the search's generators."""
    generators = _automorphism_search(K, bound)[1]
    if K._automorphisms is None:
        K._automorphisms = [GroupAutomorphism(K, img)
                            for img in _generated_automorphisms(range(K.order), generators)]
    return K._automorphisms


def _automorphism_search(K: FiniteQuaternionGroup, bound: int = 120):
    """``_quotient_search`` with H = 1, cached on K: (involutions, generators) of Aut(K)."""
    if K.order > bound:
        raise ValueError(f"automorphism search bound {bound} exceeded by |K| = {K.order}")
    if K._aut_search is None:
        K._aut_search = _quotient_search(K, range(K.order))
    return K._aut_search


def quotient_automorphisms(K: FiniteQuaternionGroup, rep: Sequence[int]) -> list[tuple[int, ...]]:
    """All automorphisms of K/H, for H given by its coset table rep[x] (the
    least index in xH).

    Each automorphism is returned as ``image[x]``, the representative of the
    image of the coset xH, and the list is sorted; it is the closure of the
    generators that ``_quotient_search`` finds.
    """
    return _generated_automorphisms(rep, _quotient_search(K, rep)[1])


def _generated_automorphisms(rep: Sequence[int], generators: list) -> list[tuple[int, ...]]:
    """The sorted closure of coset automorphisms, composed as (g o phi)[x] = g[phi[x]]."""
    return sorted(_generate(tuple(rep), generators, lambda phi, g: tuple(g[c] for c in phi))[0])


def _quotient_search(K: FiniteQuaternionGroup, rep: Sequence[int]):
    """The involutive automorphisms of K/H and a generating set of Aut(K/H).

    The candidates are the same-order images of a generating sequence of K/H,
    in ``itertools.product`` order; a candidate's key is that tuple of images.
    The keys of the automorphisms found so far are kept closed (``_enlarge``;
    g o phi has key g[key]), so a candidate whose key is in that closure is an
    automorphism without a walk.  Only the others, which are new generators
    or rejects, and the involutions are extended by ``_extend_map``; gamma is
    an involution when gamma(gamma(g)) = g for each generator g, evaluated
    along the words that first reached the images.  Returns (the sorted
    involutions, the generators in the order found), each as ``image[x]``.
    """
    cay = K.cayley
    cosets = sorted(set(rep))

    def mul(c1: int, c2: int) -> int:
        return rep[cay[c1][c2]]

    orders = {}
    for c in cosets:
        k, y = 1, c
        while y != 0:
            y = mul(y, c)
            k += 1
        orders[c] = k
    gens = [c for c in dict.fromkeys(rep[g] for g in K.generating_sequence()) if c != 0]
    elements, right, word = _generate(0, gens, mul)
    words: dict[int, tuple[int, ...]] = {0: ()}
    for c, w in zip(elements[1:], word[1:]):
        words[c] = words[elements[w[0]]] + (w[1],)

    def involutive(key: tuple[int, ...]) -> bool:
        for g, c in zip(gens, key):
            v = 0
            for k in words[c]:
                v = mul(v, key[k])
            if v != g:
                return False
        return True

    members, admitted, full = {tuple(gens)}, [], {}
    involutions = []
    for key in itertools.product(*([c for c in cosets if orders[c] == orders[g]] for g in gens)):
        known, inv = key in members, involutive(key)
        if known and not inv:
            continue
        image = _extend_map(right, key, mul, 0)
        if image is None or len(set(image)) < len(cosets):
            continue
        on_cosets = dict(zip(elements, image))
        phi = tuple(on_cosets[c] for c in rep)
        if not known:
            full[key] = phi
            _enlarge(members, admitted, key, lambda k, g: tuple(full[g][c] for c in k))
        if inv:
            involutions.append(phi)
    return sorted(involutions), [full[key] for key in admitted]


def element_order_census(K: FiniteQuaternionGroup) -> dict[int, int]:
    census: dict[int, int] = {}
    for o in K.element_orders:
        census[o] = census.get(o, 0) + 1
    return dict(sorted(census.items()))

