"""Reflection systems: closure, orbits, equivalence, enumeration."""

import itertools
import random
from fractions import Fraction
from typing import Sequence

import pytest

from quatrefl.exactarith import FieldScalar, Quaternion
from quatrefl.groups import (
    FiniteQuaternionGroup,
    Subgroup,
    automorphism_group,
    build_group,
    is_normal,
    normal_subgroups,
    quotient_automorphisms,
)
from quatrefl.indices import DicyclicIndex, omega_count_formula, omega_set
from quatrefl.refsystems import (
    _equivalent_sets,
    NonGeneratingSeedError,
    PreconditionError,
    ReflectionSystem,
    close_system,
    close_under_circ,
    copy_count,
    dicyclic_element,
    dicyclic_system,
    enumerate_systems,
    l_gamma,
    minimal_generators,
    orbit_partition,
    subgroup_copy_count,
    system_orbit,
    systems_equivalent,
)
from test_exactarith import is_unit


def canonical_members(K: FiniteQuaternionGroup, members: frozenset) -> tuple[int, ...]:
    """Lexicographically least image over all translations and automorphisms."""
    return min(tuple(sorted(s)) for s in _equivalent_sets(K, frozenset(members)))


def check_quotient_involution(K: FiniteQuaternionGroup, rep: Sequence[int],
                              gamma: Sequence[int]) -> None:
    """Raise PreconditionError unless gamma is an involutive automorphism of K/H.

    ``rep`` is the coset-representative table of H and ``gamma`` maps every
    coset representative to a coset representative (``image[x]``, as
    ``quotient_automorphisms`` returns).
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


def system_from_automorphism(K: FiniteQuaternionGroup, H: Subgroup, gamma: Sequence[int]) -> tuple[int, ...]:
    """L_gamma = {x : gamma(xH) = x^-1 H} for an involution gamma of K/H.

    ``gamma`` is ``image[x]``, the coset representative (least member index)
    of the image of xH.  The result is verified to be closed under circ.
    """
    if not is_normal(K, H.members):
        raise PreconditionError("H not normal", f"{H.name} is not normal in {K.name}")
    rep = H.coset_rep
    reps = set(rep)
    if any(gamma[x] != gamma[rep[x]] or gamma[x] not in reps for x in range(K.order)):
        raise PreconditionError("quotient map ill-defined",
                                "gamma must map each coset to a coset representative")
    check_quotient_involution(K, rep, gamma)
    members = l_gamma(H, gamma)
    if close_under_circ(K, members) != frozenset(members):
        raise AssertionError("L_gamma failed to be circ-closed")
    return members


def _translates(K, members):
    return {frozenset(K.cayley[x][y] for y in members) for x in members}


def _equivalent_sets_oracle(K, members):
    """Every phi(xL) for a member x and phi in Aut(K): one pass over all of
    Aut(K) per member translate, the reference for the walk from generators."""
    if len(members) == K.order:
        return {members}
    orbit = set()
    for T in _translates(K, members):
        # a translate already in the orbit brings its whole Aut-orbit with it
        if T not in orbit:
            orbit.update(frozenset(phi[t] for t in T) for phi in automorphism_group(K))
    return orbit


def stabilizer(L):
    """The automorphisms phi of K with phi(L) a member translate of L, in
    ``automorphism_group`` order."""
    K = L.parent
    translates = _translates(K, L.members)
    return [phi for phi in automorphism_group(K)
            if L.size == K.order or frozenset(phi[t] for t in L.members) in translates]


def equivalence_class_subsets(L):
    """All distinct reflection systems equivalent to L: the sets phi(x*L).

    Here x runs over L's members and phi over Aut(K).  Any identity-containing
    two-sided translate x*L*y equals an inner twist of a member translate.
    """
    return _equivalent_sets(L.parent, L.member_set())


def _power(K, x, k):
    """x^k for k >= 0, by k products from the identity."""
    acc = 0
    for _ in range(k):
        acc = K.cayley[acc][x]
    return acc


def power_lemma_check(K, x, y, n):
    """(x y^-1)^n x lies in the circ-closure of {x, y}."""
    closure = close_under_circ(K, (x, y))
    xy = K.cayley[x][K.inv[y]]
    return K.cayley[_power(K, xy, n)][x] in closure


def _close_under_circ_oracle(K, seed):
    """Least circ-closed superset of the seed: each new element is combined
    with every element found so far, both ways round; a o b = a b^-1 a is read
    off the Cayley table."""
    cay, inv = K.cayley, K.inv
    current = set(seed)
    queue = list(current)
    while queue:
        u = queue.pop()
        for v in list(current):
            for w in (cay[cay[u][inv[v]]][u], cay[cay[v][inv[u]]][v]):
                if w not in current:
                    current.add(w)
                    queue.append(w)
    return frozenset(current)


def T_group():
    return build_group("T")


def t_index(axis_or_zeta):
    T = T_group()
    if axis_or_zeta == "zeta":
        return T.index[Quaternion.from_rationals(4, (Fraction(1, 2),) * 4)]
    return T.index[Quaternion.unit(4, axis_or_zeta)]


def test_close_system_sizes_in_t():
    T = T_group()
    L12 = close_system(T, (0, t_index("i"), t_index("zeta")))
    assert L12.size == 12
    L24 = close_system(T, (0, t_index("i"), t_index("j"), t_index("zeta")))
    assert L24.size == 24


def test_close_system_cyclic_is_whole_group():
    for n in (3, 5, 7):
        C = build_group("cyclic", n)
        gen = next(x for x in range(n) if C.element_orders[x] == n)
        assert close_system(C, (0, gen)).size == n


def test_close_system_requires_identity_and_generation():
    T = T_group()
    with pytest.raises(ValueError):
        close_system(T, (t_index("i"),))
    with pytest.raises(NonGeneratingSeedError) as exc:
        close_system(T, (0, t_index("i")))
    assert len(exc.value.generated) == 4  # the <i> subgroup


def test_closure_idempotence_and_basic_closures():
    for K in (T_group(), build_group("O"), build_group("dicyclic", 6)):
        for L in enumerate_systems(K):
            members = frozenset(L.members)
            assert close_under_circ(K, members) == members
            for x in L.members:
                assert K.inv[x] in members
                assert K.cayley[x][x] in members


def test_orbit_contains_seed_and_partitions():
    T = T_group()
    for L in enumerate_systems(T):
        assert 0 in system_orbit(L, 0)
        parts = orbit_partition(L)
        assert sum(len(p) for p in parts) == L.size
        outside = [x for x in range(T.order) if x not in L.member_set()]
        if outside:
            with pytest.raises(ValueError):
                system_orbit(L, outside[0])


def test_octahedral_l20_orbit_partition():
    O = build_group("O")
    L20 = next(L for L in enumerate_systems(O) if L.size == 20)
    assert [len(p) for p in orbit_partition(L20)] == [2, 6, 12]


def test_equivalence_with_witness():
    T = T_group()
    L12 = close_system(T, (0, t_index("i"), t_index("zeta")))
    translated = sorted(T.cayley[t_index("i")][y] for y in L12.members)
    copy = ReflectionSystem(T, minimal_generators(T, translated))
    eq, witness = systems_equivalent(L12, copy)
    assert eq and witness is not None
    x, phi = witness
    assert x in L12.member_set()
    assert {phi[T.cayley[x][y]] for y in L12.members} == copy.member_set()
    L24 = close_system(T, (0, t_index("i"), t_index("j"), t_index("zeta")))
    assert systems_equivalent(L12, L24) == (False, None)


def test_copy_counts_tetrahedral():
    T = T_group()
    L12 = next(L for L in enumerate_systems(T) if L.size == 12)
    # six systems in the equivalence class; twelve two-sided translate copies
    assert copy_count(L12) == 6
    assert len(equivalence_class_subsets(L12)) == 6
    assert subgroup_copy_count(L12) == 12


def test_enumeration_t_and_q8():
    assert [L.size for L in enumerate_systems(T_group())] == [12, 24]
    assert [L.size for L in enumerate_systems(build_group("dicyclic", 2))] == [6, 8]


def test_enumeration_octahedral_sizes_and_copies():
    O = build_group("O")
    systems = enumerate_systems(O)
    assert [L.size for L in systems] == [14, 18, 20, 32, 48]
    assert [copy_count(L) for L in systems] == [7, 9, 10, 4, 1]


ORACLE_GROUPS = ([("T", None), ("O", None)] + [("dicyclic", n) for n in range(2, 13)]
                 + [("cyclic", n) for n in range(1, 13)])


def _circ_closed_sets(K):
    """Every circ-closed set containing 1, reached by adjoining one element
    at a time to a seed with no equivalence pruning (O has 123 of them)."""
    start = close_under_circ(K, (0,))
    closed, queue = {start}, [(start, (0,))]
    while queue:
        S, gens = queue.pop()
        for x in range(K.order):
            bigger = close_under_circ(K, gens + (x,))
            if bigger not in closed:
                closed.add(bigger)
                queue.append((bigger, gens + (x,)))
    return closed


@pytest.mark.parametrize("tag,n", ORACLE_GROUPS)
def test_enumeration_matches_every_circ_closed_set(tag, n):
    K = build_group(tag, n) if n else build_group(tag)
    closed = _circ_closed_sets(K)
    classes = {canonical_members(K, S) for S in closed if len(K.subgroup_closure(S)) == K.order}
    assert sorted(classes, key=lambda m: (len(m), m)) == [L.members for L in enumerate_systems(K)]
    # the non-generating sets too: for them (a subgroup <j> of D_n, say) the
    # automorphisms reach sets that no translate does
    for S in closed:
        assert _equivalent_sets(K, S) == _equivalent_sets_oracle(K, S)


@pytest.mark.parametrize("tag,n", ORACLE_GROUPS + [("I", None)])
def test_equivalence_action_matches_two_sided_translates(tag, n):
    # the unpruned action: left and right member translates under all of Aut(K)
    K = build_group(tag, n) if n else build_group(tag)
    autos = automorphism_group(K)
    cay = K.cayley
    for L in enumerate_systems(K):
        mem = L.member_set()
        assert all({cay[cay[x][y]][x] for y in mem} == mem for x in mem)
        translates = ({frozenset(cay[x][y] for y in mem) for x in mem}
                      | {frozenset(cay[y][x] for y in mem) for x in mem})
        orbit = {frozenset(phi[t] for t in T) for T in translates for phi in autos}
        assert equivalence_class_subsets(L) == orbit
        fixing = {phi for phi in autos
                  if any(frozenset(phi[t] for t in T) == mem for T in translates)}
        assert set(stabilizer(L)) == fixing


@pytest.mark.parametrize("tag,n", ORACLE_GROUPS + [("I", None)])
def test_copy_counts_match_orbit_walks(tag, n):
    # the orbit-stabiliser counts against the walks they replace: every
    # phi(xL) for a member x, and every two-sided translate xLy
    K = build_group(tag, n) if n else build_group(tag)
    autos = automorphism_group(K)
    cay = K.cayley
    for L in enumerate_systems(K):
        mem = L.members
        equivalent = {frozenset(phi[cay[x][t]] for t in mem) for x in mem for phi in autos}
        assert copy_count(L) == len(equivalent)
        lefts = {frozenset(cay[x][t] for t in mem) for x in range(K.order)}
        two_sided = {frozenset(cay[t][y] for t in S) for S in lefts for y in range(K.order)}
        assert subgroup_copy_count(L) == len(two_sided)


def _subgroup_copy_count_oracle(L):
    """|K|^2 over sum_x mult(x L x^-1), conjugating L by every x in K."""
    K = L.parent
    cay, inv, members = K.cayley, K.inv, L.members
    mult = {}
    for l in members:
        C = frozenset(cay[t][inv[l]] for t in members)
        mult[C] = mult.get(C, 0) + 1
    pairs = sum(mult.get(frozenset(K.conj(x, t) for t in members), 0) for x in range(K.order))
    return K.order ** 2 // pairs


ORBIT_GROUPS = ([("T", None), ("O", None), ("I", None)]
                + [("dicyclic", n) for n in range(2, 31)] + [("cyclic", n) for n in range(1, 25)])


@pytest.mark.parametrize("tag,n", ORBIT_GROUPS)
def test_orbits_and_copy_counts_match_the_aut_pass_oracle(tag, n):
    # the class walked from generators of K x| Aut(K) against one pass over
    # all of Aut(K) per member translate, and copy_count against its size;
    # subgroup_copy_count's walk of L's conjugation orbit against the pass
    # over every x in K that it replaces
    K = build_group(tag, n) if n else build_group(tag)
    for L in enumerate_systems(K):
        oracle = _equivalent_sets_oracle(K, L.member_set())
        assert equivalence_class_subsets(L) == oracle
        assert copy_count(L) == len(oracle)
        assert L.members == min(tuple(sorted(S)) for S in oracle)
        assert subgroup_copy_count(L) == _subgroup_copy_count_oracle(L)


@pytest.mark.parametrize("tag,n", [("T", None), ("O", None), ("I", None)]
                         + [("dicyclic", n) for n in range(2, 13)]
                         + [("cyclic", n) for n in range(1, 9)])
def test_equivalence_witness_for_every_class_member(tag, n):
    # the witness read off the class walk's word: x in L1, phi an
    # automorphism and phi(x L1) = L2, for every L2 in L1's class
    K = build_group(tag, n) if n else build_group(tag)
    autos = set(automorphism_group(K))
    systems = enumerate_systems(K)
    for L1 in systems:
        for S in _equivalent_sets(K, L1.member_set()):
            L2 = ReflectionSystem(K, minimal_generators(K, sorted(S)))
            equivalent, (x, phi) = systems_equivalent(L1, L2)
            assert equivalent and x in L1.member_set() and phi in autos
            assert {phi[K.cayley[x][t]] for t in L1.members} == S
        for other in systems:
            if other is not L1:
                assert systems_equivalent(L1, other) == (False, None)


@pytest.mark.parametrize("tag,n", [("T", None), ("O", None), ("I", None)]
                         + [("dicyclic", n) for n in range(2, 9)])
def test_quotient_involutions_pass_the_shared_check(tag, n):
    # the gamma that enumerate_systems keeps are the involutive ones
    K = build_group(tag, n) if n else build_group(tag)
    for H in normal_subgroups(K):
        rep = H.coset_rep
        for gamma in quotient_automorphisms(H):
            if any(gamma[gamma[c]] != c for c in rep):
                with pytest.raises(PreconditionError, match="not an involution"):
                    check_quotient_involution(K, rep, gamma)
                continue
            check_quotient_involution(K, rep, gamma)
            members = frozenset(l_gamma(H, gamma))
            assert 0 in members and close_under_circ(K, members) == members


def test_omega_sets():
    assert [(i.a, i.b) for i in omega_set(6)] == [(1, 1), (1, 2), (1, 3), (1, 6), (2, 3)]
    for p in (3, 5, 7, 11, 13):
        assert [(i.a, i.b) for i in omega_set(p)] == [(1, 1), (1, p)]
    for n in range(2, 201):
        assert len(omega_set(n)) == omega_count_formula(n)


def test_omega_size_map_injective():
    for n in range(2, 201):
        sizes = [idx.size for idx in omega_set(n)]
        assert len(set(sizes)) == len(sizes)


def test_dicyclic_systems():
    L = dicyclic_system(DicyclicIndex(6, 2, 3))
    assert L.size == 10
    L = dicyclic_system(DicyclicIndex(2, 1, 2))
    Q8 = build_group("dicyclic", 2)
    m = Q8.conductor
    expected = set()
    for axis in "1ij":
        q = Quaternion.unit(m, axis)
        expected.update((Q8.index[q], Q8.index[-q]))
    assert L.member_set() == expected
    for n in (3, 4, 7):
        assert dicyclic_system(DicyclicIndex(n, 1, 1)).size == 4 * n


def test_dicyclic_system_shape():
    # L is exactly the predicted powers-of-w plus twisted part, of the
    # predicted size 2n/a + 2n/b
    for n in (4, 6, 9, 12):
        D = build_group("dicyclic", n)
        for idx in omega_set(n):
            L = dicyclic_system(DicyclicIndex(n, idx.a, idx.b))
            assert L.size == 2 * n // idx.a + 2 * n // idx.b
            expected = {dicyclic_element(D, m * idx.a, 0) for m in range(2 * n // idx.a)}
            expected |= {dicyclic_element(D, l * idx.b, 1) for l in range(2 * n // idx.b)}
            assert L.member_set() == expected


def test_dicyclic_enumeration_matches_omega():
    for n in range(2, 61):
        D = build_group("dicyclic", n)
        systems = enumerate_systems(D)
        assert sorted(L.size for L in systems) == sorted(i.size for i in omega_set(n))
        for idx in omega_set(n):
            Ld = dicyclic_system(DicyclicIndex(n, idx.a, idx.b))
            rep = next(L for L in systems if L.size == Ld.size)
            assert systems_equivalent(rep, Ld)[0]


def test_dicyclic_orbit_criteria_and_sizes():
    for n in range(2, 13):
        D = build_group("dicyclic", n)
        for idx in omega_set(n):
            L = dicyclic_system(DicyclicIndex(n, idx.a, idx.b))
            one, wa = 0, dicyclic_element(D, idx.a, 0)
            jj, wbj = dicyclic_element(D, 0, 1), dicyclic_element(D, idx.b, 1)
            orb_one, orb_wa = system_orbit(L, one), system_orbit(L, wa)
            assert (orb_one == orb_wa) == ((n // idx.a) % 2 == 1)
            expected = 2 * n // idx.a if (n // idx.a) % 2 else n // idx.a
            assert len(orb_one) == len(orb_wa) == expected
            orb_j, orb_wbj = system_orbit(L, jj), system_orbit(L, wbj)
            assert (orb_j == orb_wbj) == ((n // idx.b) % 2 == 1)
            expected = 2 * n // idx.b if (n // idx.b) % 2 else n // idx.b
            assert len(orb_j) == len(orb_wbj) == expected


def test_translation_lemma():
    # {1, x} u xA generates xL, which is equivalent to L
    T = T_group()
    A = (t_index("i"), t_index("zeta"))
    L = close_system(T, (0,) + A)
    for x in list(L.members)[:6]:
        seed = {0, x} | {T.cayley[x][a] for a in A}
        xL = close_system(T, tuple(seed))
        assert xL.member_set() == {T.cayley[x][y] for y in L.members}
        assert systems_equivalent(L, xL)[0]


def test_octahedral_intersection_identity():
    O = build_group("O")
    m = O.conductor
    half = Fraction(1, 2)
    i_O = O.index[Quaternion.unit(m, "i")]
    zeta_O = O.index[Quaternion.from_rationals(m, (half,) * 4)]
    s = FieldScalar.sqrt2(m) * FieldScalar.from_rational(m, half)
    zero = FieldScalar.zero(m)
    u = O.index[Quaternion(zero, zero, s, -s)]
    h = O.index[Quaternion(s, s, zero, zero)]
    L18 = close_system(O, (0, h, zeta_O))
    L14 = close_system(O, (0, i_O, zeta_O, u))
    assert L18.size == 18 and L14.size == 14
    # L18 n L14 is the lifted 12-element tetrahedral system,
    # and L14 adds exactly the two antidiagonal sqrt2 elements
    T = T_group()
    L12_T = close_system(T, (0, t_index("i"), t_index("zeta")))
    lifted = {O.index[T.elements[x].lift(m)] for x in L12_T.members}
    assert L18.member_set() & L14.member_set() == lifted
    assert L14.member_set() == lifted | {u, O.inv[u]}


def _included_up_to_equivalence(small: ReflectionSystem, big: ReflectionSystem) -> bool:
    """Some copy of `small` is a subset of `big`'s representative."""
    K = small.parent
    from quatrefl.groups import automorphism_group

    target = big.member_set()
    if big.size == K.order:
        return True
    cay = K.cayley
    for phi in automorphism_group(K):
        S = [phi[t] for t in small.members]
        s0 = S[0]
        for t in target:
            for y in range(K.order):
                x = cay[cay[t][K.inv[y]]][K.inv[s0]]
                if all(cay[cay[x][s]][y] in target for s in S):
                    return True
    return False


def test_inclusion_poset_octahedral_and_icosahedral():
    O = build_group("O")
    sizes = {L.size: L for L in enumerate_systems(O)}
    assert _included_up_to_equivalence(sizes[14], sizes[20])
    assert _included_up_to_equivalence(sizes[18], sizes[20])
    assert _included_up_to_equivalence(sizes[20], sizes[32])
    assert not _included_up_to_equivalence(sizes[14], sizes[18])
    I = build_group("I")
    sizes = {L.size: L for L in enumerate_systems(I)}
    assert _included_up_to_equivalence(sizes[30], sizes[32])
    assert not _included_up_to_equivalence(sizes[20], sizes[32])
    assert not _included_up_to_equivalence(sizes[20], sizes[30])


def test_system_from_automorphism_identity_on_cyclic():
    for n in (5, 6):
        C = build_group("cyclic", n)
        H = Subgroup(C, (0,))
        members = system_from_automorphism(C, H, tuple(range(n)))
        assert set(members) == {x for x in range(n) if C.inv[x] == x}


def test_system_from_automorphism_recovers_superset():
    from quatrefl.refgroups import induced_quotient_involution

    T = T_group()
    L12 = close_system(T, (0, t_index("i"), t_index("zeta")))
    C2 = next(s for s in normal_subgroups(T) if s.order == 2)
    gamma = induced_quotient_involution(T, L12.members, C2)
    members = system_from_automorphism(T, C2, gamma)
    assert set(L12.members) <= set(members)


def test_system_from_automorphism_conjugation_example():
    # conjugation by (i - j)/sqrt2 (an order-2 twist from outside T) cuts out
    # a 12-element system equivalent to the tetrahedral one
    T = T_group()
    m = 8
    s = FieldScalar.sqrt2(m) * FieldScalar.from_rational(m, Fraction(1, 2))
    zero = FieldScalar.zero(m)
    u = Quaternion(zero, s, -s, zero)
    assert is_unit(u)
    lifted = {q.lift(m): i for i, q in enumerate(T.elements)}
    gamma = tuple(lifted[u * q.lift(m) * u.conjugate()] for q in T.elements)
    H = Subgroup(T, (0,))
    members = system_from_automorphism(T, H, gamma)
    assert len(members) == 12
    L12 = close_system(T, (0, t_index("i"), t_index("zeta")))
    got = ReflectionSystem(T, minimal_generators(T, sorted(members)))
    assert systems_equivalent(L12, got)[0]


def test_system_from_automorphism_rejects_non_involution():
    C5 = build_group("cyclic", 5)
    H = Subgroup(C5, (0,))
    g = next(x for x in range(5) if C5.element_orders[x] == 5)
    shift = tuple(C5.cayley[x][g] for x in range(5))  # translation, not an involution
    with pytest.raises(ValueError):
        system_from_automorphism(C5, H, shift)


CLOSURE_GROUPS = ([("T", None), ("O", None), ("I", None)]
                  + [("dicyclic", n) for n in range(2, 13)] + [("cyclic", n) for n in range(1, 13)])


def test_close_under_circ_matches_the_pairwise_oracle():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(derandomize=True, deadline=None, max_examples=200)
    @hypothesis.given(st.data())
    def matches(data):
        tag, n = data.draw(st.sampled_from(CLOSURE_GROUPS))
        K = build_group(tag, n) if n else build_group(tag)
        seed = data.draw(st.frozensets(st.integers(0, K.order - 1), max_size=4))
        assert close_under_circ(K, seed) == _close_under_circ_oracle(K, seed)

    matches()


def test_system_generators_must_circ_generate_the_members():
    # orbits are walked from the generators, so the members are their
    # circ-closure, formed once, when the system is built
    T = T_group()
    L24 = next(L for L in enumerate_systems(T) if L.size == 24)
    assert ReflectionSystem(T, L24.generators) == L24
    assert ReflectionSystem(T, L24.generators).members == L24.members
    assert L24.members is L24.members
    assert ReflectionSystem(T, (0,)).members == (0,)
    L12 = next(L for L in enumerate_systems(T) if L.size == 12)
    outside = next(x for x in range(T.order) if x not in L12.member_set())
    wider = ReflectionSystem(T, L12.generators + (outside,))
    assert wider.member_set() == close_under_circ(T, L12.members + (outside,)) > L12.member_set()


def _c5_quotient():
    C5 = build_group("cyclic", 5)
    H = Subgroup(C5, (0,))
    return C5, H, H.coset_rep


def _rejections(C5, H, rep, gamma):
    with pytest.raises(PreconditionError) as direct:
        system_from_automorphism(C5, H, gamma)
    with pytest.raises(PreconditionError) as shared:
        check_quotient_involution(C5, rep, gamma)
    return direct.value.name, shared.value.name


@pytest.mark.parametrize("g", range(1, 5))
def test_translation_of_c5_is_rejected_as_non_involution(g):
    C5, H, rep = _c5_quotient()
    shift = tuple(C5.cayley[x][g] for x in range(5))
    assert _rejections(C5, H, rep, shift) == ("quotient map not an involution",) * 2


@pytest.mark.parametrize("a,b", itertools.combinations(range(5), 2))
def test_transposition_of_c5_is_rejected_as_non_multiplicative(a, b):
    C5, H, rep = _c5_quotient()
    swap = list(range(5))
    swap[a], swap[b] = b, a
    assert _rejections(C5, H, rep, tuple(swap)) == ("quotient map not multiplicative",) * 2


def test_induced_quotient_involution_ends_in_the_shared_check():
    # the seeds extend to a map on all of D3/C2 that is not multiplicative
    from quatrefl.refgroups import induced_quotient_involution

    D3 = build_group("dicyclic", 3)
    H = Subgroup(D3, (0, 1))
    with pytest.raises(PreconditionError) as exc:
        induced_quotient_involution(D3, (0, 2, 3, 4, 5, 6), H)
    assert exc.value.name == "quotient map not multiplicative"


def test_power_lemma_examples():
    T = T_group()
    assert power_lemma_check(T, t_index("i"), t_index("i"), 5)
    D6 = build_group("dicyclic", 6)
    j6 = dicyclic_element(D6, 0, 1)
    wj6 = dicyclic_element(D6, 1, 1)
    assert power_lemma_check(D6, j6, wj6, 3)
    assert power_lemma_check(T, t_index("i"), 0, 2)


def test_power_lemma_random_property():
    rng = random.Random(17)
    for K in (T_group(), build_group("dicyclic", 6)):
        for _ in range(60):
            x, y = rng.randrange(K.order), rng.randrange(K.order)
            assert power_lemma_check(K, x, y, rng.randrange(8))


def test_system_json():
    T = T_group()
    L = enumerate_systems(T)[0]
    data = L.to_json()
    assert data["size"] == 12 and len(data["members"]) == 12
    assert sum(len(o) for o in data["orbit_partition"]) == 12


@pytest.mark.parametrize("tag,n", [("dicyclic", 24), ("I", None)])
def test_enumeration_closes_each_l_gamma_once(monkeypatch, tag, n):
    # an L_gamma that fails to generate K comes back under other (H, gamma)
    # and is not closed again
    from quatrefl.groups import _quotient_search

    K = build_group.__wrapped__(tag, n)  # uncached, so nothing is enumerated yet
    l_gammas = {l_gamma(H, gamma) for H in normal_subgroups(K) for gamma in _quotient_search(H)[0]}
    closure, closed = K.subgroup_closure, []

    def counted(seed):
        closed.append(tuple(seed))
        return closure(closed[-1])

    monkeypatch.setattr(K, "subgroup_closure", counted)
    enumerate_systems(K)
    assert len(closed) == len(set(closed)) and set(closed) <= l_gammas


def _minimal_generators_reference(K, members):
    """The seed that closes from scratch after each admission."""
    gens, closed = [0], {0}
    for x in members:
        if x not in closed:
            gens.append(x)
            closed = close_under_circ(K, gens)
    return tuple(gens)


@pytest.mark.parametrize("tag,n", [("T", None), ("O", None), ("I", None)]
                         + [("dicyclic", n) for n in range(2, 17)])
def test_minimal_generators_match_the_reference(tag, n):
    K = build_group(tag, n)
    for H in normal_subgroups(K):
        for gamma in quotient_automorphisms(H):
            members = l_gamma(H, gamma)  # circ-closed
            gens = minimal_generators(K, members)
            assert gens == _minimal_generators_reference(K, members)
            assert close_under_circ(K, gens) == frozenset(members)


def test_enumeration_bound_error():
    K = build_group("dicyclic", 121)  # order 484
    with pytest.raises(ValueError, match=r"enumeration bound 480 exceeded by \|K\| = 484"):
        enumerate_systems(K)
