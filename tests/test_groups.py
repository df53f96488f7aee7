"""Finite quaternion groups: constructors, subgroups, automorphisms."""

import math
import random

import pytest

from quatrefl.exactarith import Quaternion, embedded_circle_element
from quatrefl.groups import (
    _close_generators,
    automorphism_group,
    build_group,
    commutator_subgroup,
    element_order_census,
    group_contains,
    normal_subgroups,
    quotient_automorphisms,
)
from quatrefl.numutil import euler_phi
from quatrefl.refsystems import coset_representatives, dicyclic_element


def test_constructor_orders():
    assert build_group("T").order == 24
    assert build_group("O").order == 48
    assert build_group("I").order == 120
    for n in range(2, 13):
        assert build_group("dicyclic", n).order == 4 * n
    for n in range(1, 9):
        assert build_group("cyclic", n).order == n


def test_constructor_argument_errors():
    with pytest.raises(ValueError):
        build_group("dicyclic", 1)
    with pytest.raises(ValueError):
        build_group("cyclic", 0)
    with pytest.raises(ValueError):
        build_group("X")
    with pytest.raises(ValueError):
        build_group("T", 3)


def test_q8_element_set():
    Q8 = build_group("dicyclic", 2)
    m = Q8.conductor
    expected = set()
    for axis in "1ijk":
        q = Quaternion.unit(m, axis)
        expected.update((q, -q))
    assert set(Q8.elements) == expected


def test_identity_at_index_zero_and_tables():
    for K in (build_group("T"), build_group("dicyclic", 5), build_group("cyclic", 6)):
        assert K.elements[0] == Quaternion.one(K.conductor)
        for x in range(K.order):
            assert K.cayley[x][K.inv[x]] == 0
            assert K.cayley[K.inv[x]][x] == 0


def test_associativity_spot_check():
    rng = random.Random(3)
    for K in (build_group("O"), build_group("dicyclic", 7)):
        for _ in range(200):
            a, b, c = (rng.randrange(K.order) for _ in range(3))
            assert K.cayley[K.cayley[a][b]][c] == K.cayley[a][K.cayley[b][c]]


def _fraction_key(K, x):
    q = K.elements[x]
    return K.element_orders[x], tuple(c for s in (q.a, q.b, q.c, q.d) for c in s.coeffs())


TABLE_GROUPS = ([("T", None), ("O", None)] + [("dicyclic", n) for n in range(2, 7)]
                + [("cyclic", n) for n in (1, 2, 5, 8)])


def test_cayley_matches_quaternion_products():
    for tag, n in TABLE_GROUPS + [("I", None), ("dicyclic", 60)]:
        K = build_group(tag, n) if n else build_group(tag)
        # sorted by element order, then by the Fraction coefficients
        keys = [_fraction_key(K, x) for x in range(K.order)]
        assert all(k1 < k2 for k1, k2 in zip(keys, keys[1:])), K.name
        if (tag, n) not in TABLE_GROUPS:
            continue
        one = Quaternion.one(K.conductor)
        for a in range(K.order):
            assert K.elements[K.inv[a]] * K.elements[a] == one
            for b in range(K.order):
                assert K.elements[K.cayley[a][b]] == K.elements[a] * K.elements[b]


def test_symbolic_vs_closure_construction():
    # the closure-built tables against the closed-form rules: w^a w^b = w^(a+b),
    # w^a (w^b j) = w^(a+b) j, (w^a j) w^b = w^(a-b) j, (w^a j)(w^b j) = w^(a-b+n)
    for n in (1, 2, 5, 8):
        K = build_group("cyclic", n)
        sym = [K.index[embedded_circle_element(math.lcm(4, n), n, e)] for e in range(n)]
        assert sorted(sym) == list(range(n))
        for a in range(n):
            assert K.inv[sym[a]] == sym[-a % n]
            for b in range(n):
                assert K.cayley[sym[a]][sym[b]] == sym[(a + b) % n]
    for n in (2, 3, 4, 5, 6):
        K = build_group("dicyclic", n)
        sym = {(e, s): dicyclic_element(K, e, s) for e in range(2 * n) for s in (0, 1)}
        assert sorted(sym.values()) == list(range(4 * n))
        for (a, s), x in sym.items():
            assert K.inv[x] == (sym[-a % (2 * n), 0] if s == 0 else sym[(a + n) % (2 * n), 1])
            for (b, t), y in sym.items():
                e = (a + b if s == 0 else a - b + n * t) % (2 * n)
                assert K.cayley[x][y] == sym[e, s ^ t]


BUILDER_GROUPS = [("T", None), ("O", None)] + [("dicyclic", n) for n in range(2, 9)]


def test_close_generators_matches_subgroup_closure():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(derandomize=True, deadline=None, max_examples=30)
    @hypothesis.given(st.data())
    def closes(data):
        tag, n = data.draw(st.sampled_from(BUILDER_GROUPS))
        K = build_group(tag, n) if n else build_group(tag)
        idx = data.draw(st.lists(st.integers(0, K.order - 1), min_size=1, max_size=3))
        # the subgroup idx generates, as the fixpoint of all pairwise products
        # (independent of the closure routine under test)
        members = {0, *idx}
        while (grown := members | {K.cayley[a][b] for a in members for b in members}) != members:
            members = grown
        hypothesis.assume(len(members) <= 24)  # the check below forms every product
        H = _close_generators("H", tag, n, [K.elements[x] for x in idx])
        assert set(H.elements) == {K.elements[x] for x in members}
        for a, qa in enumerate(H.elements):
            for b, qb in enumerate(H.elements):
                assert H.elements[H.cayley[a][b]] == qa * qb

    closes()


@pytest.mark.parametrize("tag,n,products", [
    ("T", None, 48), ("O", None, 96), ("I", None, 360), ("dicyclic", 5, 40)])
def test_build_takes_order_times_generators_products(monkeypatch, tag, n, products):
    calls = []
    mul = Quaternion.__mul__

    def counting(self, other):
        calls.append(None)
        return mul(self, other)

    monkeypatch.setattr(Quaternion, "__mul__", counting)
    build_group.__wrapped__(tag, n)  # uncached, without emptying the shared cache
    assert len(calls) == products


def test_element_order_census():
    assert element_order_census(build_group("T")) == {1: 1, 2: 1, 3: 8, 4: 6, 6: 8}
    censO = element_order_census(build_group("O"))
    assert sum(censO.values()) == 48 and censO[8] == 12
    assert element_order_census(build_group("cyclic", 1)) == {1: 1}


def test_polyhedral_inclusions():
    T, O, I = build_group("T"), build_group("O"), build_group("I")
    assert group_contains(O, T)
    assert group_contains(I, T)
    assert not group_contains(T, O)


def test_normal_subgroup_orders():
    assert [s.order for s in normal_subgroups(build_group("T"))] == [1, 2, 8, 24]
    assert [s.order for s in normal_subgroups(build_group("I"))] == [1, 2, 120]
    assert [s.order for s in normal_subgroups(build_group("O"))] == [1, 2, 8, 24, 48]


def test_d6_normal_subgroups():
    D6 = build_group("dicyclic", 6)
    subs = normal_subgroups(D6)
    cyclic_orders = sorted(s.order for s in subs if s.name.startswith("C") or s.name == "1")
    assert cyclic_orders == [1, 2, 3, 4, 6, 12]  # C_r for each r | 12
    nonabelian12 = [s for s in subs if s.order == 12 and s.name == "D3"]
    assert len(nonabelian12) == 2
    assert any(s.order == 24 for s in subs)


def test_q8_normal_subgroups_include_j_and_k_axes():
    Q8 = build_group("dicyclic", 2)
    subs = normal_subgroups(Q8)
    assert [s.order for s in subs] == [1, 2, 4, 4, 4, 8]
    order4 = [set(s.members) for s in subs if s.order == 4]
    for axis in "ijk":
        q = Quaternion.unit(Q8.conductor, axis)
        axis_set = {Q8.index[Quaternion.one(Q8.conductor)], Q8.index[-Quaternion.one(Q8.conductor)],
                    Q8.index[q], Q8.index[-q]}
        assert axis_set in order4


def test_normality_direct_check():
    for K in (build_group("T"), build_group("dicyclic", 6)):
        for s in normal_subgroups(K):
            members = set(s.members)
            for g in range(K.order):
                assert {K.conj(g, x) for x in members} == members


def test_commutator_subgroups():
    assert commutator_subgroup(build_group("T")).name == "Q8"
    for n in (3, 5, 8):
        assert commutator_subgroup(build_group("cyclic", n)).order == 1
    for n in (2, 3, 6):
        D = build_group("dicyclic", n)
        comm = commutator_subgroup(D)
        assert comm.order == n
        # the commutator subgroup is the even rotation part <w^2>
        w2 = dicyclic_element(D, 2, 0)
        assert set(comm.members) == set(D.subgroup_closure([w2]))


def test_automorphism_counts():
    assert len(automorphism_group(build_group("dicyclic", 2))) == 24
    for n in (1, 3, 4, 5, 6, 8):  # C1: the empty generating sequence
        assert len(automorphism_group(build_group("cyclic", n))) == euler_phi(n)
    # Aut(T) = S4, Aut(O) = S4 x C2, Aut(I) = S5
    for tag, count in (("T", 24), ("O", 48), ("I", 120)):
        assert len(automorphism_group(build_group(tag))) == count
    # Aut(D_n) = Hol(C_2n) for n >= 3
    for n in range(3, 13):
        assert len(automorphism_group(build_group("dicyclic", n))) == 2 * n * euler_phi(2 * n)


def _quotient_automorphisms(K, H_name):
    H = next(H for H in normal_subgroups(K) if H.name == H_name)
    return quotient_automorphisms(K, coset_representatives(K, H.members))


@pytest.mark.parametrize("tag,n", [("T", None), ("O", None), ("I", None)]
                         + [("dicyclic", n) for n in range(2, 13)]
                         + [("cyclic", n) for n in range(1, 13)])
def test_quotient_search_with_trivial_h_is_automorphism_group(tag, n):
    K = build_group(tag, n) if n else build_group(tag)
    assert _quotient_automorphisms(K, "1") == [a.image for a in automorphism_group(K)]


@pytest.mark.parametrize("tag,n,H_name,count", [
    ("T", None, "C2", 24),   # T/C2 = A4
    ("T", None, "Q8", 2),    # T/Q8 = C3
    ("O", None, "C2", 24),   # O/C2 = S4
    ("O", None, "Q8", 6),    # O/Q8 = S3
    ("O", None, "T", 1),     # O/T = C2
    ("I", None, "C2", 120),  # I/C2 = A5
] + [("dicyclic", n, "C2", n * euler_phi(n)) for n in range(3, 13)])  # dihedral, order 2n
def test_quotient_automorphism_counts(tag, n, H_name, count):
    K = build_group(tag, n) if n else build_group(tag)
    assert len(_quotient_automorphisms(K, H_name)) == count


def test_automorphisms_preserve_structure():
    for K in (build_group("dicyclic", 3), build_group("T")):
        autos = automorphism_group(K)
        assert tuple(range(K.order)) in {a.image for a in autos}
        for a in autos:
            assert a(0) == 0
            for x in range(K.order):
                for y in range(K.order):
                    assert a(K.cayley[x][y]) == K.cayley[a(x)][a(y)]
                assert K.element_orders[a(x)] == K.element_orders[x]


@pytest.mark.parametrize("tag,n", [("T", None), ("O", None)] + [("dicyclic", n) for n in range(2, 9)])
def test_abelian_subgroups_are_cyclic(tag, n):
    # subgroup_name relies on this; an abelian non-cyclic group would contain
    # C_p x C_p, which two commuting elements generate
    K = build_group(tag, n)
    for x in range(K.order):
        for y in range(K.order):
            if K.cayley[x][y] == K.cayley[y][x]:
                members = K.subgroup_closure([x, y])
                assert max(K.element_orders[z] for z in members) == len(members)


def test_rotation_twist_automorphism_swaps_half_subgroups():
    # w -> w, j -> w*j extends to an automorphism exchanging the two
    # nonabelian order-2n normal subgroups (n even)
    for n in (4, 6):
        D = build_group("dicyclic", n)
        image = [0] * D.order
        for e in range(2 * n):
            image[dicyclic_element(D, e, 0)] = dicyclic_element(D, e, 0)
            image[dicyclic_element(D, e, 1)] = dicyclic_element(D, e + 1, 1)
        image = tuple(image)
        assert image in {a.image for a in automorphism_group(D)}
        first = frozenset(D.subgroup_closure(
            [dicyclic_element(D, 2, 0), dicyclic_element(D, 0, 1)]))
        second = frozenset(D.subgroup_closure(
            [dicyclic_element(D, 2, 0), dicyclic_element(D, 1, 1)]))
        assert frozenset(image[x] for x in first) == second


def test_group_json_shape():
    K = build_group("dicyclic", 2)
    data = K.to_json()
    assert data["order"] == 8 and len(data["elements"]) == 8
    assert len(data["cayley"]) == 8 and all(len(row) == 8 for row in data["cayley"])


def test_automorphism_bound_error():
    import pytest as _pytest

    with _pytest.raises(ValueError, match="bound"):
        from quatrefl.groups import automorphism_group as ag
        ag(build_group("I"), bound=100)
