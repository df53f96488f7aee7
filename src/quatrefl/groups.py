"""Finite subgroups of the unit quaternions as Cayley-table groups.

``build_group`` covers the full classification: cyclic C_n, dicyclic D_n of
order 4n, and the binary tetrahedral / octahedral / icosahedral groups of
orders 24 / 48 / 120.  C_n and D_n are built from the labels of their
elements, zeta_n^e and zeta_2n^e j^s, with no walk (``_label_group``):
orders, inverses and products are closed form in the labels, and each row of
the Cayley table is a rotation of the label positions.  ``build_group``'s
C_n and D_n carry the values (``embedded_circle_element``, no quaternion
product) in sorted order, each row gathered once into it.  ``label_group``'s
index each element by its label and carry no values: no sort and no gather,
for callers that print no element or index (order scans, the known-pair
maps, the cyclic and dicyclic groups of ``classify.group_for_record`` and
``group --emit summary``).  Only the functions that form values import
``exactarith`` and ``fractions``.  The
polyhedral groups close ``polyhedral_generators`` under right multiplication
modulo a prime, which is injective on K, form each element once along the
word that first reached it (at most 119 exact products a group), and fill
the table from that walk a column at a time by integer gathers.  Elements
are exact quaternions; indices are stable (sorted by element order, then
lexicographic coefficients) so tables are reproducible.  The circ operation
a o b = a b^-1 a is kept a row at a time (``circ_row``), for the rows that
are read.

Every generator walk that needs words goes through one closure routine,
``_generate``: group construction, the quotient walk, and (in
``refsystems`` and ``refgroups``) isomorphism checks and the orbits of
systems under K x| Aut(K) and under conjugation.  Maps given on generators are
extended to homomorphisms by ``_extend_map`` along the same walk.  ``_orbits``
walks the orbits of index permutations a layer at a time, without words:
conjugacy classes, circ-closures, system orbits and reflection orbit types.
The conjugation maps by a generating sequence are formed once per group
(``conjugation_maps()``); the conjugacy classes, the commutator subgroup (a
normal closure) and ``refsystems.subgroup_copy_count`` read them, so nothing
conjugates by every element of K.  Closures that need no table (subgroups,
reflection triples, greedy generating sequences, the keys of the
automorphisms the search has found) go through ``_closure``, which admits
only the generators that enlarge the closure and grows it a coset at a time
at each admission (Dimino's method).

A ``Subgroup`` H owns the table of K/H, formed when H is built: ``coset_rep``
(rep[x], the least index in xH); xH is row x of the table at ``H.members``.
The automorphisms of K/H come from one routine, ``_quotient_search(H)``,
which returns the involutions of K/H and a generating set of Aut(K/H), each as
``image[x]`` (the rep of the image of xH).  For C_n and D_n, with H = <w^d> in
the cyclic part and K/H of order above 4 and not Q8, they are closed form in
the labels (``_quotient_closed_form``): Aut(K/H) is the maps (e, s) ->
(u e + c s, s) mod d.  T, O, I and the remaining quotients take a walk over
candidate generator images (``_quotient_walk``), checking by ``_extend_map``
only the candidates that lie outside the closure of those found and keep the
orders of generator products.  The normal subgroups of C_n and D_n are closed
form too; T, O and I's are joins of conjugacy classes.
``quotient_automorphisms(H)`` and ``automorphism_group`` are the closure of the
generators; the involutions are what ``refsystems.enumerate_systems`` turns
into systems and keeps, with their H, for ``classify.classify_K``.
"""

from __future__ import annotations

import itertools
import math
import operator
from functools import lru_cache
from typing import TYPE_CHECKING, Callable, Iterable, Optional, Sequence

from .numutil import divisors, prime_root_of_unity

if TYPE_CHECKING:
    from .exactarith import Quaternion

POLYHEDRAL_CONDUCTOR = {"T": 4, "O": 8, "I": 20}
POLYHEDRAL_ORDER = {"T": 24, "O": 48, "I": 120}
# the largest |K| whose automorphisms, and so whose systems, are searched
AUTOMORPHISM_BOUND = 480


class FiniteQuaternionGroup:
    """A finite subgroup of the unit quaternions with full multiplication data.

    elements[0] is the identity; ``cayley[x][y]`` is the index of the product
    and ``inv[x]`` that of the inverse.  C_n and D_n keep their label maps:
    ``labels[x]`` is the label e + N s of element x = zeta^e j^s (as in
    ``_label_group``) and ``positions[label]`` its index; both are None for
    T, O and I.  ``generating_sequence()`` is its one generating set.
    Instances are immutable after construction and safe to share.
    """

    def __init__(self, name: str, tag: str, n: Optional[int], elements: Optional[list[Quaternion]],
                 cayley: list[list[int]], inv: list[int], element_orders: list[int],
                 labels: Optional[Sequence[int]], positions: Optional[Sequence[int]]):
        self.name = name
        self.tag = tag
        self.n = n
        self.elements = elements
        self.cayley = cayley
        self.inv = inv
        # a group of ``label_group`` has no values: no conductor, no index
        self.conductor = None if elements is None else elements[0].conductor
        self.index = None if elements is None else {q: i for i, q in enumerate(elements)}
        self.element_orders = element_orders
        self.labels = labels
        self.positions = positions
        # lazily built caches, each set here first: cached_property would write
        # through the instance __dict__, which on CPython 3.11 slows every
        # later attribute read of the instance (1.7x in a micro-benchmark)
        self._circ: dict[int, Sequence[int]] = {}
        self._conj_maps: Optional[list[tuple[int, ...]]] = None
        self._normal: Optional[list["Subgroup"]] = None
        self._automorphisms: Optional[list[tuple[int, ...]]] = None
        self._aut_search: Optional[tuple[list, list]] = None
        self._gens: Optional[list[int]] = None
        self._systems = self._system_pairs = self._class_sizes = self._records = None

    @property
    def order(self) -> int:
        return len(self.cayley)

    def conj(self, g: int, x: int) -> int:
        """g x g^-1."""
        return self.cayley[self.cayley[g][x]][self.inv[g]]

    def circ_row(self, a: int) -> Sequence[int]:
        """Row a of a o b = a * b^-1 * a, the reflection-system operation, cached.

        a o b = a * (a^-1 * b)^-1, so the row is ``inv`` gathered at row a^-1
        of the Cayley table, and row a gathered at that: two ``_gather``
        calls, and no column of the table."""
        row = self._circ.get(a)
        if row is None:
            cay = self.cayley
            row = self._circ[a] = _gather(_gather(cay[self.inv[a]], self.inv), cay[a])
        return row

    def conjugation_maps(self) -> list[tuple[int, ...]]:
        """x -> g x g^-1 as ``image[x]``, for each g of ``generating_sequence()``, cached."""
        if self._conj_maps is None:
            self._conj_maps = [tuple(self.conj(g, x) for x in range(self.order))
                               for g in self.generating_sequence()]
        return self._conj_maps

    def conjugacy_classes(self) -> list[tuple[int, ...]]:
        """The orbits of ``conjugation_maps()``, by least member."""
        return _orbits(range(self.order), self.conjugation_maps())

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


class Subgroup:
    """A subgroup H given by its ascending member indices in the parent group K;
    H owns the table of K/H, formed here: ``coset_rep`` (rep[x], the least
    index in xH).  The coset xH is ``K.cayley[x][h]`` for h in ``members``.

    Immutable: every slot is set once, here, and equality and hash are those
    of (parent, members).  Raises ValueError unless ``members`` is an
    ascending tuple closed under the product.
    """

    __slots__ = ("parent", "members", "coset_rep")

    def __init__(self, parent: FiniteQuaternionGroup, members: tuple[int, ...]):
        cay = parent.cayley
        if members != tuple(sorted(_closure(0, members, lambda x, g: cay[x][g])[0])):
            raise ValueError(f"{members!r} is not an ascending subgroup of {parent.name}")
        # x ascending: a rep is set at its own index first
        rep = [-1] * parent.order
        for x in range(len(rep)):
            if rep[x] < 0:  # so x is the least member of xH
                for h in members:
                    rep[cay[x][h]] = x
        object.__setattr__(self, "parent", parent)
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "coset_rep", tuple(rep))

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.parent, self.members) == (other.parent, other.members)

    def __hash__(self) -> int:
        return hash((self.parent, self.members))

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
    each sorted, in order of least member.  Each orbit is walked a layer at a
    time, the images of the last layer under every map, until a layer adds
    nothing (forward images suffice, as the maps permute a finite set)."""
    orbits, seen = [], set()
    for p in points:
        if p not in seen:
            orbit, layer = {p}, {p}
            while layer:
                reached = set()
                for f in maps:
                    reached.update(map(f.__getitem__, layer))
                layer = reached - orbit
                orbit |= layer
            seen |= orbit
            orbits.append(tuple(sorted(orbit)))
    return sorted(orbits)


def _closure(one, gens: Iterable, mul: Callable, bound: Optional[int] = None):
    """Close ``gens`` under ``mul``, admitting only the generators that enlarge it.

    Returns (members as a set, admitted generators in order); each admission
    is one ``_enlarge`` step.
    """
    members, admitted = {one}, []
    for g in gens:
        _enlarge(members, admitted, g, mul, bound)
    return members, admitted


def _enlarge(members: set, admitted: list, g, mul: Callable, bound: Optional[int] = None) -> None:
    """Close ``members``, the closure H of ``admitted``, over g as well, in place.

    Nothing changes when g is already a member.  Otherwise g is admitted and
    the closure grows a right coset of H at a time (Dimino's method; Butler,
    LNCS 559, 1991): the first is H g, and each coset c is multiplied by
    every admitted h through its first member only.  Each right coset of H
    lies in the closure or misses it, so c h lies in it or misses it whole;
    when that product t is new, c h, formed from t and the rest of c, is the
    next coset.  Growing H to G takes (|G| - |H|) + ([G : H] - 1)(k - 1) + 1
    products, k = len(admitted) with g.  Raises ValueError when the closure
    has more than ``bound`` members.
    """
    if g in members:
        return
    admitted.append(g)
    grown: list[list] = []

    def add(coset: list) -> None:
        members.update(coset)
        grown.append(coset)
        if bound is not None and len(members) > bound:
            raise ValueError(f"closure exceeded bound {bound}")

    add([mul(u, g) for u in members])
    for c in grown:  # grown grows while it is walked
        for h in admitted:
            t = mul(c[0], h)
            if t not in members:
                add([t] + [mul(u, h) for u in c[1:]])


def _gather(idx: Sequence[int], seq: Sequence) -> Sequence:
    """``[seq[i] for i in idx]``, as a tuple from one ``operator.itemgetter`` call
    (two to three times faster than ``list(map(seq.__getitem__, idx))`` on
    D200's rows of 800)."""
    if len(idx) < 2:  # itemgetter of one index returns the bare item
        return [seq[i] for i in idx]
    return operator.itemgetter(*idx)(seq)


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


@lru_cache(maxsize=128)
def build_group(tag: str, n: Optional[int] = None) -> FiniteQuaternionGroup:
    """Construct a finite subgroup of the unit quaternions.

    tag: 'cyclic' (n >= 1), 'dicyclic' (n >= 2), or 'T' / 'O' / 'I'.
    """
    if tag in ("cyclic", "dicyclic"):
        return _label_group(tag, n)
    if tag in POLYHEDRAL_CONDUCTOR:
        if n is not None:
            raise ValueError(f"group {tag} takes no parameter")
        return _close_generators(tag, tag, None, polyhedral_generators(tag), POLYHEDRAL_ORDER[tag])
    raise ValueError(f"unsupported group tag {tag!r}")


@lru_cache(maxsize=128)
def label_group(tag: str, n: int) -> FiniteQuaternionGroup:
    """C_n or D_n indexed by label, with no values (``elements`` is None).

    Element e + N s is zeta^e j^s (as in ``_label_group``).  For callers
    that print no element or index: the table, inverses and orders are
    ``build_group(tag, n)``'s under a relabelling, formed with no exact
    value, sort or gather.  A bad n raises ``build_group``'s ValueError.
    """
    if tag not in ("cyclic", "dicyclic"):
        raise ValueError(f"label group needs tag 'cyclic' or 'dicyclic', got {tag!r}")
    return _label_group(tag, n, valued=False)


def polyhedral_generators(tag: str) -> list[Quaternion]:
    from fractions import Fraction

    from .exactarith import FieldScalar, Quaternion

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
    """``_generate``'s ``right`` and ``word`` for ``gens``, which generate a group of ``order`` elements.

    The walk runs mod the least odd prime p = 1 (mod m), zeta_m -> a primitive
    m-th root r (denominators are powers of 2), a ring map injective on finite
    groups (Minkowski); a count other than ``order`` raises ArithmeticError.
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
    return right, word


def _close_generators(name: str, tag: str, n: Optional[int], gens: list[Quaternion],
                      order: int) -> FiniteQuaternionGroup:
    """Close ``gens``, which generate a group of ``order`` elements, and tabulate it.

    ``_reduced_walk`` gives ``_generate``'s ``right`` and ``word``.  Each
    element is formed once along the word that first reached it (|K| - 1
    exact products).  The Cayley table then needs integer lookups only, a
    column at a time: x*y = right[x*parent(y)][k] for the word (parent, k)
    that first reached y, so column y gathers column k of ``right`` at
    column parent(y).
    """
    from .exactarith import Quaternion

    right, word = _reduced_walk(gens, order)
    values = [Quaternion.one(gens[0].conductor)]
    for parent, k in word[1:]:
        values.append(values[parent] * gens[k])
    right_cols = list(zip(*right))
    cols = [range(len(values))]
    for p, k in word[1:]:
        cols.append(_gather(cols[p], right_cols[k]))
    cayley = list(zip(*cols))
    orders = []
    for x, row in enumerate(cayley):
        k, y = 1, x
        while y != 0:
            y = row[y]
            k += 1
        orders.append(k)
    idx = _sort_order(values, orders)
    pos = _positions(idx)
    cayley = [list(_gather(_gather(idx, cayley[i]), pos)) for i in idx]
    return FiniteQuaternionGroup(name, tag, n, [values[i] for i in idx], cayley,
                                 [row.index(0) for row in cayley], [orders[i] for i in idx], None, None)


def _label_group(tag: str, n: Optional[int], valued: bool = True) -> FiniteQuaternionGroup:
    """C_n or D_n, tabulated from the labels of its elements, with no walk.

    D_n's elements are zeta^e j^s (zeta = zeta_2n, e mod N = 2n, s = 0, 1),
    labelled e + N s; C_n's are zeta_n^e, labelled e (N = n, s = 0 only).
    The product is closed form in the labels, mod N: (e, 0)(f, t) =
    (e + f, t), (e, 1)(f, 0) = (e - f, 1) and (e, 1)(f, 1) = (e - f + n, 0);
    so are the orders (N / gcd(e, N) for s = 0, 4 for s = 1) and the
    inverses ((-e, 0) and (e + n, 1)).  With P_s[f] the position of (f, s),
    row (e, 0) of the table is the rotations of P_0 and P_1 by e, and row
    (e, 1) the reversed rotations of P_1 at e and P_0 at e + n.

    Unless ``valued``, a position is its label and the group has no values.
    Else zeta^e is ``embedded_circle_element``, re + im*i, zeta^e j =
    re*j + im*k reuses its scalars, the positions are the sorted ones, and
    each row is gathered once into sorted order.
    """
    least = 1 if tag == "cyclic" else 2
    if n is None or n < least:
        raise ValueError(f"{tag} group needs n >= {least}, got {n}")
    name, N = (f"C{n}", n) if tag == "cyclic" else (f"D{n}", 2 * n)
    orders = [N // math.gcd(e, N) for e in range(N)]
    inverse = [-e % N for e in range(N)]
    if tag == "dicyclic":
        orders += [4] * N
        inverse += [N + (e + n) % N for e in range(N)]
    values = None
    idx = pos = list(range(len(orders)))
    if valued:
        from .exactarith import Quaternion, embedded_circle_element

        m = 4 * n if tag == "dicyclic" else math.lcm(4, n)
        values = [embedded_circle_element(m, N, e) for e in range(N)]
        if tag == "dicyclic":
            zero = values[0].c
            values += [Quaternion(zero, zero, q.a, q.b) for q in values]
        idx = _sort_order(values, orders)
        pos = _positions(idx)
    # P_s twice over, so that a rotation, or a reversed one, is one slice
    P0, P1 = pos[:N] * 2, pos[N:] * 2

    def row(label: int) -> list[int]:
        e = label % N
        if label < N:
            return P0[e:e + N] + P1[e:e + N]
        g = (e + n) % N
        return P1[e + N:e:-1] + P0[g + N:g:-1]

    rows = map(row, idx)
    if valued:
        # itemgetter of one index returns the bare item; C1's one row is sorted
        take = operator.itemgetter(*idx) if len(idx) > 1 else list
        rows = (list(take(r)) for r in rows)
        values = [values[i] for i in idx]
    return FiniteQuaternionGroup(name, tag, n, values, list(rows), [pos[inverse[i]] for i in idx],
                                 [orders[i] for i in idx], idx, pos)


def _sort_order(values: list[Quaternion], orders: list[int]) -> list[int]:
    """The indices of ``values`` sorted by (element order, coefficients).

    Integers over one common denominator compare exactly as the Fraction
    coefficients would.  A key lists the element order, then a code and the
    value of each nonzero coefficient in (component, power) order, then 0.
    With W above every power, the code at (c, p) is (4 - c) W - p, negated
    for a negative value: never 0, and falling as (c, p) rises.  So keys
    compare as dense rows over every (component, power) column would: where
    those first differ, the row nonzero at that column has the larger code
    if its value is positive and the smaller if negative.
    """
    scalars = [(q.a, q.b, q.c, q.d) for q in values]
    den = math.lcm(*(s.den for qs in scalars for s in qs))
    W = 1 + max(q.conductor for q in values)  # powers lie below phi(m) <= m
    keys = []
    for qs, k in zip(scalars, orders):
        key = [k]
        for c, s in enumerate(qs):
            scale, base = den // s.den, (4 - c) * W
            for p, v in s.terms:
                key += (base - p, v * scale) if v > 0 else (p - base, v * scale)
        key.append(0)
        keys.append(key)
    return sorted(range(len(values)), key=keys.__getitem__)


def _positions(idx: list[int]) -> list[int]:
    """The inverse permutation of ``idx``: pos[idx[k]] = k."""
    pos = [0] * len(idx)
    for new, old in enumerate(idx):
        pos[old] = new
    return pos


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
    """All normal subgroups, by (order, members), cached on K: in closed form
    for C_n and D_n (``_label_normal_members``), else by ``_class_joins``."""
    if K._normal is None:
        found = _class_joins(K) if K.labels is None else _label_normal_members(K)
        K._normal = sorted((Subgroup(K, members) for members in found),
                           key=lambda s: (s.order, s.members))
    return K._normal


def _rotation_order(K: FiniteQuaternionGroup) -> int:
    """N, the order of w = zeta in C_n or D_n: labels e + N s."""
    return K.n if K.tag == "cyclic" else 2 * K.n


def _label_normal_members(K: FiniteQuaternionGroup) -> list[tuple[int, ...]]:
    """The normal subgroups of C_n or D_n, from the labels: the <w^d> for d | N
    (w = zeta, N its order); for D_n with n even, the index-2 <w^2, j> and
    <w^2, w j>; and D_n.  A normal subgroup of D_n with a member w^e j holds
    its conjugates w^(e+2f) j, hence <w^2>, so it has index at most 2."""
    N = _rotation_order(K)
    found = [range(0, N, d) for d in divisors(N)]
    if K.tag == "dicyclic":
        if K.n % 2 == 0:
            evens = range(0, N, 2)
            found += [[*evens, *(N + e for e in evens)], [*evens, *(N + e + 1 for e in evens)]]
        found.append(range(K.order))
    return [tuple(sorted(map(K.positions.__getitem__, labels))) for labels in found]


def _class_joins(K: FiniteQuaternionGroup) -> list[tuple[int, ...]]:
    """The members of every normal subgroup: the closure of 1 under joining
    conjugacy classes.

    Each subgroup found keeps the generators its closure admitted, so a join
    grows the base by the class with ``_enlarge`` instead of closing again
    from the identity."""
    cay = K.cayley
    admitted = {(0,): []}

    def mul(x: int, h: int) -> int:
        return cay[x][h]

    def join(base: tuple[int, ...], cls: tuple[int, ...]) -> tuple[int, ...]:
        if cls[0] in base:
            return base
        members, gens = set(base), list(admitted[base])
        for g in cls:
            _enlarge(members, gens, g, mul)
        joined = tuple(sorted(members))
        admitted.setdefault(joined, gens)
        return joined

    return _generate((0,), K.conjugacy_classes(), join)[0]


def commutator_subgroup(K: FiniteQuaternionGroup) -> Subgroup:
    """[K, K], the normal closure of the commutators a b a^-1 b^-1 of a
    generating sequence: the generators commute modulo it, so K over it is
    abelian.  It is generated by those commutators' conjugacy classes."""
    cay, inv, gens = K.cayley, K.inv, K.generating_sequence()
    commutators = {cay[cay[a][b]][cay[inv[a]][inv[b]]] for a in gens for b in gens}
    return Subgroup(K, K.subgroup_closure(itertools.chain(*_orbits(commutators, K.conjugation_maps()))))


def automorphism_group(K: FiniteQuaternionGroup) -> list[tuple[int, ...]]:
    """All automorphisms of K, each as ``image[x]``, sorted: the closure of
    the search's generators, cached on K."""
    generators = _automorphism_search(K)[1]
    if K._automorphisms is None:
        K._automorphisms = _generated_automorphisms(range(K.order), generators)
    return K._automorphisms


def _automorphism_search(K: FiniteQuaternionGroup):
    """``_quotient_search`` with H = 1, cached on K: (involutions, generators) of Aut(K)."""
    if K.order > AUTOMORPHISM_BOUND:
        raise ValueError(f"automorphism search bound {AUTOMORPHISM_BOUND} exceeded by |K| = {K.order}")
    if K._aut_search is None:
        K._aut_search = _quotient_search(Subgroup(K, (0,)))
    return K._aut_search


def quotient_automorphisms(H: Subgroup) -> list[tuple[int, ...]]:
    """All automorphisms of K/H, K = H.parent.

    Each automorphism is returned as ``image[x]``, the representative (the
    least index) of the image of the coset xH, and the list is sorted; it is
    the closure of the generators that ``_quotient_search`` finds.
    """
    return _generated_automorphisms(H.coset_rep, _quotient_search(H)[1])


def _generated_automorphisms(rep: Sequence[int], generators: list) -> list[tuple[int, ...]]:
    """The sorted closure of coset automorphisms, composed as (g o phi)[x] = g[phi[x]]."""
    return sorted(_generate(tuple(rep), generators, lambda phi, g: tuple(g[c] for c in phi))[0])


def _quotient_search(H: Subgroup):
    """The involutive automorphisms of K/H and a generating set of Aut(K/H),
    K = H.parent, each as ``image[x]`` (the rep of the image of xH): (the
    sorted involutions, the generators).  In closed form where
    ``_cyclic_quotient`` gives one, else by ``_quotient_walk``."""
    d = _cyclic_quotient(H)
    return _quotient_walk(H) if d is None else _quotient_closed_form(H, d)


def _cyclic_quotient(H: Subgroup) -> Optional[int]:
    """d when K = H.parent is C_n or D_n and H = <w^d> lies in its cyclic part
    <w> (w = zeta, of order N), and K/H, on the labels (e mod d, s), has
    order above 4 and is not Q8; else None.

    K/H is C_d for C_n.  For D_n it has order 2d and j^2 = w^n, so it is
    dihedral when d | n and dicyclic otherwise.  Past order 4, bar Q8, the
    rotations <w> of K/H are characteristic, and every automorphism is
    (e, s) -> (u e + c s, s) mod d, u a unit (Hol(C_d), c = 0 for C_n).
    """
    K = H.parent
    if K.labels is None:
        return None
    N = _rotation_order(K)
    if any(K.labels[h] >= N for h in H.members):
        return None
    quotient = K.order // H.order
    if quotient <= 4 or (quotient == 8 and K.tag == "dicyclic" and K.n % 4):
        return None
    return N // H.order


def _quotient_closed_form(H: Subgroup, d: int):
    """``_quotient_search`` for H = <w^d> with ``_cyclic_quotient(H) == d``.

    phi_{u,c}: (e, s) -> (u e + c s, s) mod d, over the units u mod d and
    (for D_n) the c mod d, is an involution exactly when u^2 = 1 and
    c (u + 1) = 0 mod d.  The generators are phi_{u,0} for the units u that a
    greedy closure admits, then phi_{1,1} for D_n.  With R_s[f] the rep of
    the coset of label (f, s), f < d, the image of (e, s) is R_s at
    (u e mod d) + c s: a gather of R_s, rotated by c s, over the d values of
    u e mod d, repeated N / d times, then gathered over ``K.labels``.
    """
    K, rep = H.parent, H.coset_rep
    N = _rotation_order(K)
    sheets = (0,) if K.tag == "cyclic" else (0, N)
    # R_s twice over, so that a rotation is one slice
    R = [_gather(K.positions[s:s + d], rep) * 2 for s in sheets]

    def phi(u: int, c: int) -> tuple[int, ...]:
        times = [u * e % d for e in range(d)]
        table = ()
        for k, R_s in enumerate(R):
            table += _gather(times, R_s[c * k:c * k + d]) * (N // d)
        return _gather(K.labels, table)

    units = [u for u in range(1, d) if math.gcd(u, d) == 1]
    twists = range(d) if K.tag == "dicyclic" else (0,)
    involutions = sorted(phi(u, c) for u in units if u * u % d == 1 for c in twists if c * (u + 1) % d == 0)
    generators = [phi(u, 0) for u in _closure(1, units, lambda x, g: x * g % d)[1]]
    if K.tag == "dicyclic":
        generators.append(phi(1, 1))
    return involutions, generators


def _quotient_walk(H: Subgroup):
    """``_quotient_search`` by a walk over candidate images of generators, for
    every K/H that has no closed form: T, O and I's, and those of order at
    most 4 or equal to Q8.

    The candidates are the same-order images of a generating sequence of K/H,
    in ``itertools.product`` order; a candidate's key is that tuple of images.
    The keys of the automorphisms found so far are kept closed (``_enlarge``;
    g o phi has key g[key]), so a candidate whose key is in that closure is an
    automorphism unchecked, and takes its image along the walk's words if an
    involution.  Any other key is extended by ``_extend_map`` only if it keeps
    the order of each product g_a g_b of two generators, as automorphisms do.
    gamma is an involution when gamma(gamma(g)) = g for each generator g,
    evaluated along the words that first reached the images.  Returns (the
    sorted involutions, the generators in the order found), each as ``image[x]``.
    """
    K, rep = H.parent, H.coset_rep
    cay = K.cayley
    reps = sorted(set(rep))

    def mul(c1: int, c2: int) -> int:
        return rep[cay[c1][c2]]

    orders = {}
    for c in reps:
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

    pairs = [(a, b, orders[mul(ga, gb)]) for (a, ga), (b, gb) in itertools.combinations(enumerate(gens), 2)]
    members, admitted, full = {tuple(gens)}, [], {}
    involutions = []
    for key in itertools.product(*([c for c in reps if orders[c] == orders[g]] for g in gens)):
        known = key in members
        if known:
            if not involutive(key):
                continue
            image = [0]
            for p, k in word[1:]:
                image.append(mul(image[p], key[k]))
        else:
            if any(orders[mul(key[a], key[b])] != o for a, b, o in pairs):
                continue
            image = _extend_map(right, key, mul, 0)
            if image is None or len(set(image)) < len(reps):
                continue
        on_reps = dict(zip(elements, image))
        phi = tuple(on_reps[c] for c in rep)
        if not known:
            full[key] = phi
            _enlarge(members, admitted, key, lambda k, g: tuple(full[g][c] for c in k))
        if known or involutive(key):
            involutions.append(phi)
    return sorted(involutions), [full[key] for key in admitted]


def element_order_census(K: FiniteQuaternionGroup) -> dict[int, int]:
    census: dict[int, int] = {}
    for o in K.element_orders:
        census[o] = census.get(o, 0) + 1
    return dict(sorted(census.items()))

