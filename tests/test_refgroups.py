"""Reflection groups in the monomial element model."""

import itertools
import math
import os
import random
from collections import Counter
from fractions import Fraction
from unittest import mock

import pytest

from quatrefl import refgroups
from quatrefl.exactarith import Quaternion
from quatrefl.groups import (
    Subgroup,
    _closure,
    _extend_map,
    _generate,
    build_group,
    commutator_subgroup,
    normal_subgroups,
)
from quatrefl.classify import (
    IndexQuadruple,
    _dedup_subgroups,
    build_index_group,
    classify_K,
    corollary_pair_search,
    group_for_record,
    lambda_set,
    order_scan,
    the_polyhedral_isomorphism,
)
from quatrefl.indices import DicyclicIndex, omega_set
from quatrefl.refsystems import (
    close_system,
    close_under_circ,
    dicyclic_element,
    dicyclic_system,
    enumerate_systems,
)
from quatrefl.refgroups import (
    IDENTITY,
    PreconditionError,
    ReflectionOrbitType,
    build_reflection_group,
    closure_of_triples,
    diagonal_subgroups,
    generate_from_reflections,
    induced_quotient_involution,
    is_canonical,
    iso_prescreen,
    isomorphism_search,
    model_mul,
    rank_n_group,
    realize_matrices,
    reflection_orbit_types,
    triple_order,
    triple_to_matrix,
    verify_isomorphism,
)


def model_inv(K, t):
    """The inverse of a monomial triple."""
    x, y, s = t
    if s == 0:
        return (K.inv[x], K.inv[y], 0)
    return (K.inv[y], K.inv[x], 1)


def mat_mul(a, b):
    """The product of two 2x2 matrices over the quaternions."""
    return tuple(tuple(a[r][0] * b[0][c] + a[r][1] * b[1][c] for c in (0, 1)) for r in (0, 1))


def rank_n_mul(K, e1, e2):
    """(B1 P_s1)(B2 P_s2) with P_s row u carrying entry at column s(u)."""
    d1, s1 = e1
    d2, s2 = e2
    diag = tuple(K.cayley[d1[u]][d2[s1[u]]] for u in range(len(d1)))
    perm = tuple(s2[s1[u]] for u in range(len(s1)))
    return diag, perm


def T_system(size):
    T = build_group("T")
    return T, next(L for L in enumerate_systems(T) if L.size == size)


def normal_of_order(K, order, name=None):
    for s in normal_subgroups(K):
        if s.order == order and (name is None or s.name == name):
            return s
    raise LookupError((K.name, order, name))


# -- construction ----------------------------------------------------------


def test_build_tetrahedral_block():
    T, L24 = T_system(24)
    G = build_reflection_group(T, L24, normal_of_order(T, 8))
    assert G.order == 384 and G.reflection_count() == 38
    G = build_reflection_group(T, L24, normal_of_order(T, 24))
    assert G.order == 1152 and G.reflection_count() == 70


def test_build_complex_series():
    # over a cyclic K the construction lands on the classical groups of
    # order 2 n^2 / p
    for n, p in ((4, 2), (6, 3), (9, 3), (8, 1)):
        C = build_group("cyclic", n)
        L = close_system(C, (0, next(x for x in range(n) if C.element_orders[x] == n)))
        H = Subgroup(C, C.subgroup_closure(
            [next(x for x in range(n) if C.element_orders[x] == n // math.gcd(n, p))]))
        assert H.order == n // p
        G = build_reflection_group(C, L, H)
        assert G.order == 2 * n * (n // p)
        assert G.reflection_count() == 2 * (n // p) + n - 2


def test_build_q8_examples():
    Q8 = build_group("dicyclic", 2)
    L8 = next(L for L in enumerate_systems(Q8) if L.size == 8)
    G = build_reflection_group(Q8, L8, normal_of_order(Q8, 2))
    assert G.order == 32 and G.reflection_count() == 10


def test_build_precondition_errors():
    T, L12 = T_system(12)
    Q8sub = normal_of_order(T, 8)
    with pytest.raises(PreconditionError, match="H not inside L"):
        build_reflection_group(T, L12, Q8sub)
    # a non-normal subgroup: any <zeta> of order 6 in T
    zeta = next(x for x in range(T.order) if T.element_orders[x] == 6)
    C6 = Subgroup(T, T.subgroup_closure([zeta]))
    T24 = T_system(24)[1]
    with pytest.raises(PreconditionError, match="H not normal"):
        build_reflection_group(T, T24, C6)


def test_element_model_product_rule_against_matrices():
    T, L12 = T_system(12)
    G = build_reflection_group(T, L12, normal_of_order(T, 2))
    rng = random.Random(23)
    elems = sorted(G.elements)
    for _ in range(300):
        t1, t2 = rng.choice(elems), rng.choice(elems)
        lhs = triple_to_matrix(T, model_mul(T, t1, t2))
        rhs = mat_mul(triple_to_matrix(T, t1), triple_to_matrix(T, t2))
        assert lhs == rhs
    for _ in range(50):
        t = rng.choice(elems)
        assert model_mul(T, t, model_inv(T, t)) == IDENTITY


def test_gamma_is_an_involution_on_the_quotient():
    for K, L_size, H_order in (("T", 12, 2), ("T", 24, 8), ("O", 20, 2)):
        grp = build_group(K)
        L = next(S for S in enumerate_systems(grp) if S.size == L_size)
        H = normal_of_order(grp, H_order)
        gamma, rep = induced_quotient_involution(grp, L.members, H), H.coset_rep
        for c in set(rep):
            assert gamma[gamma[c]] == c
        for b in L.members:
            assert gamma[rep[b]] == rep[grp.inv[b]]


def test_minimal_diagonal_subgroup():
    T, L24 = T_system(24)
    assert diagonal_subgroups(T, L24)[0].name == "Q8"
    _, L12 = T_system(12)
    assert diagonal_subgroups(T, L12)[0].order == 1
    for n in (4, 6, 9):
        D = build_group("dicyclic", n)
        for idx in omega_set(n):
            L = dicyclic_system(DicyclicIndex(n, idx.a, idx.b))
            H = diagonal_subgroups(D, L)[0]
            assert H.order == n // (idx.a * idx.b)
            w2ab = dicyclic_element(D, (2 * idx.a * idx.b) % (2 * n), 0)
            assert set(H.members) == set(D.subgroup_closure([w2ab]))


DIAGONAL_ORACLE_GROUPS = ([("T", None), ("O", None), ("I", None)]
                          + [("dicyclic", n) for n in range(2, 13)]
                          + [("cyclic", n) for n in range(1, 13)])


@pytest.mark.parametrize("tag,n", DIAGONAL_ORACLE_GROUPS)
def test_diagonal_subgroups_are_the_canonical_h(tag, n):
    K = build_group(tag, n) if n else build_group(tag)
    for L in enumerate_systems(K):
        if L.size == K.order == 120:
            continue  # the closure below would walk all 28800 elements
        canonical = []
        for H in normal_subgroups(K):
            try:
                G = build_reflection_group(K, L, H)
            except PreconditionError:
                continue
            if is_canonical(G):
                canonical.append(H)
        got = diagonal_subgroups(K, L)
        assert got == canonical
        # H_L as first defined: the diagonal part of the group that L's
        # antidiagonal reflections generate
        closed = closure_of_triples(K, [(b, K.inv[b], 1) for b in L.members])
        assert got[0].members == tuple(sorted(x for x, y, s in closed if s == 0 and y == 0))


@pytest.mark.parametrize("tag,n", DIAGONAL_ORACLE_GROUPS)
def test_recorded_pairs_are_the_diagonal_subgroups_and_their_involutions(tag, n):
    # the (H, gamma) that enumerate_systems keeps and classify_K reads
    K = build_group(tag, n) if n else build_group(tag)
    systems = enumerate_systems(K)
    assert K._system_pairs.keys() == {L.member_set() for L in systems}
    for L in systems:
        pairs = K._system_pairs[L.member_set()]
        assert [H for H, _ in pairs] == diagonal_subgroups(K, L)
        for H, gamma in pairs:
            assert gamma == induced_quotient_involution(K, L.members, H)


def test_reflection_group_walks_l_gamma_once(monkeypatch):
    calls = []
    walk = refgroups.l_gamma

    def counting(*args):
        calls.append(None)
        return walk(*args)

    monkeypatch.setattr(refgroups, "l_gamma", counting)
    T, L12 = T_system(12)
    G = build_reflection_group(T, L12, next(H for H in normal_subgroups(T) if H.order == 2))
    assert G.L_G == L12.members and is_canonical(G)
    assert len(G.reflections()) == G.reflection_count() == 2 * 2 + 12 - 2
    assert reflection_orbit_types(G).render() == G.to_json()["orbit_types"]
    assert len(calls) == 1


def test_commutator_identity_for_full_systems():
    # H_{L=K} equals the commutator subgroup, checked by direct closure
    for tag, n in (("cyclic", 6), ("dicyclic", 2), ("dicyclic", 3), ("T", None), ("O", None)):
        K = build_group(tag, n) if n else build_group(tag)
        L = close_system(K, tuple(range(K.order)))
        gens = [(b, K.inv[b], 1) for b in L.members]
        closed = closure_of_triples(K, gens)
        direct = sorted(x for (x, y, s) in closed if s == 0 and y == 0)
        assert tuple(direct) == commutator_subgroup(K).members


def test_nondiagonal_reflections_of_base_is_l():
    T, L12 = T_system(12)
    G = build_reflection_group(T, L12, diagonal_subgroups(T, L12)[0])
    assert G.L_G == L12.members
    assert is_canonical(G)


def test_noncanonical_dicyclic_even_product():
    Q8 = build_group("dicyclic", 2)
    L6 = next(L for L in enumerate_systems(Q8) if L.size == 6)
    G = build_reflection_group(Q8, L6, normal_of_order(Q8, 2))
    L_G = G.L_G
    assert set(L_G) > set(L6.members)
    assert not is_canonical(G)


def test_full_system_is_canonical():
    T, L24 = T_system(24)
    G = build_reflection_group(T, L24, normal_of_order(T, 24))
    assert set(G.L_G) == set(range(T.order))
    assert is_canonical(G)


def test_higher_dicyclic_canonical_iff_ab_odd():
    for n in range(2, 9):
        D = build_group("dicyclic", n)
        for idx in omega_set(n):
            r = 2 * n // (idx.a * idx.b)
            L = dicyclic_system(DicyclicIndex(n, idx.a, idx.b))
            H = Subgroup(D, D.subgroup_closure(
                [dicyclic_element(D, (2 * n // r) % (2 * n), 0)]))
            G = build_reflection_group(D, L, H)
            assert is_canonical(G) == ((idx.a * idx.b) % 2 == 1)


def test_order_and_count_law():
    cases = [("T", 12, 1), ("T", 12, 2), ("T", 24, 8), ("T", 24, 24), ("O", 20, 2)]
    for tag, L_size, H_order in cases:
        K = build_group(tag)
        L = next(S for S in enumerate_systems(K) if S.size == L_size)
        H = normal_of_order(K, H_order)
        G = build_reflection_group(K, L, H)
        assert G.order == 2 * H.order * K.order
        assert G.reflection_count() == 2 * H.order + L.size - 2


def test_monotone_inclusion_along_table_chain():
    T = build_group("T")
    L12 = next(S for S in enumerate_systems(T) if S.size == 12)
    L24 = next(S for S in enumerate_systems(T) if S.size == 24)
    # use the canonical 12-system's actual containment copy inside L24 = T
    chain = [
        build_reflection_group(T, L12, normal_of_order(T, 1)),
        build_reflection_group(T, L12, normal_of_order(T, 2)),
        build_reflection_group(T, L24, normal_of_order(T, 8)),
        build_reflection_group(T, L24, normal_of_order(T, 24)),
    ]
    for small, large in zip(chain, chain[1:]):
        assert small.elements <= large.elements


def test_reflection_conjugation_closure():
    T, L12 = T_system(12)
    G = build_reflection_group(T, L12, normal_of_order(T, 2))
    refl = set(G.reflections())
    rng = random.Random(31)
    elems = sorted(G.elements)
    for r in refl:
        for _ in range(20):
            g = rng.choice(elems)
            conj = model_mul(T, model_mul(T, g, r), model_inv(T, g))
            assert conj in refl


def test_generate_from_reflections_observables():
    T = build_group("T")
    i_idx = T.index[Quaternion.unit(4, "i")]
    j_idx = T.index[Quaternion.unit(4, "j")]
    zeta_idx = T.index[Quaternion.from_rationals(4, (Fraction(1, 2),) * 4)]
    gc = generate_from_reflections(T, [zeta_idx], [0, i_idx])
    assert gc.order == 1152 and gc.reflection_count() == 70
    # noncanonical reflection subgroups seeded inside the big tetrahedral group
    minus_i = T.inv[i_idx]
    gc = generate_from_reflections(T, [i_idx, j_idx], [minus_i])
    assert gc.order == 128 and gc.reflection_count() == 22
    gc = generate_from_reflections(T, [zeta_idx], [minus_i])
    assert gc.order == 72 and gc.reflection_count() == 16
    gc = generate_from_reflections(T, [j_idx], [0, minus_i])
    assert gc.order == 64 and gc.reflection_count() == 14
    gc = generate_from_reflections(T, [], [0])
    assert gc.order == 2


@pytest.mark.parametrize("tag,n", [("T", None), ("O", None), ("dicyclic", 3), ("dicyclic", 4)])
def test_generate_from_reflections_observes_each_canonical_group(tag, n):
    # the reflections over L and H close onto G_K(L, H)
    K = build_group(tag, n) if n else build_group(tag)
    for L in enumerate_systems(K):
        for H in diagonal_subgroups(K, L):
            gc = generate_from_reflections(K, H.members, L.members)
            assert gc.elements == build_reflection_group(K, L, H).elements


def _induced_quotient_involution_oracle(K, L_members, H):
    """gamma extended from every seed coset at once, or the name of the
    PreconditionError: the reference for the extension from the admitted
    seed cosets."""
    rep = H.coset_rep
    seed = {}
    for x in L_members:
        if seed.setdefault(rep[x], rep[K.inv[x]]) != rep[K.inv[x]]:
            return "quotient map ill-defined"

    def mul(c1, c2):
        return rep[K.cayley[c1][c2]]

    cosets, right, _ = _generate(0, list(seed), mul)
    if len(cosets) < len(set(rep)):
        return "quotient map incomplete"
    image = _extend_map(right, list(seed.values()), mul, 0)
    if image is None:
        return "quotient map not multiplicative"
    on_cosets = dict(zip(cosets, image))
    return tuple(on_cosets[c] for c in rep)


@pytest.mark.parametrize("tag,n", [("T", None), ("O", None), ("I", None)]
                         + [("dicyclic", n) for n in range(2, 13)])
def test_induced_quotient_involution_matches_the_all_seeds_oracle(tag, n):
    # every system, and every member translate xL (a seed that need not be
    # circ-closed), against every normal H
    K = build_group(tag, n) if n else build_group(tag)
    seeds = {L.members for L in enumerate_systems(K)}
    seeds |= {tuple(sorted(K.cayley[x][y] for y in L)) for L in list(seeds) for x in L}
    for seed in sorted(seeds):
        for H in normal_subgroups(K):
            try:
                got = induced_quotient_involution(K, seed, H)
            except PreconditionError as exc:
                got = exc.name
            assert got == _induced_quotient_involution_oracle(K, seed, H)


def test_reflection_group_elements_are_built_on_first_use():
    for K in (build_group("T"), build_group("dicyclic", 6)):
        for L in enumerate_systems(K):
            for H in diagonal_subgroups(K, L):
                G = build_reflection_group(K, L, H)
                assert G.order == 2 * H.order * K.order
                assert "elements" not in vars(G)
                assert reflection_orbit_types(G) and "elements" not in vars(G)
                assert len(G.elements) == G.order


def test_orbit_type_strings():
    O = build_group("O")
    L20 = next(S for S in enumerate_systems(O) if S.size == 20)
    G = build_reflection_group(O, L20, normal_of_order(O, 2))
    assert reflection_orbit_types(G).render() == "2C2,2C2,6C2,12C2"
    T, L24 = T_system(24)
    G = build_reflection_group(T, L24, normal_of_order(T, 24))
    assert reflection_orbit_types(G).render() == "2T,24C2"
    I = build_group("I")
    L30 = next(S for S in enumerate_systems(I) if S.size == 30)
    G = build_reflection_group(I, L30, normal_of_order(I, 1))
    assert reflection_orbit_types(G).render() == "30C2"


def _reflection_orbit_types_oracle(G):
    """Orbit types walked under the circ-map of every reflection of L_G."""
    K = G.K
    entries = [(2, G.H.name)] if G.H.order > 1 else []
    cay, inv = K.cayley, K.inv
    L_G = G.L_G
    maps = [[cay[cay[a][inv[b]]][a] for b in range(K.order)] for a in L_G]
    maps += [cay[h] for h in G.H.members]
    maps += [[row[h] for row in cay] for h in G.H.members]
    remaining = set(L_G)
    nondiag = []
    while remaining:
        orbit = _generate(min(remaining), maps, lambda x, f: f[x])[0]
        nondiag.append(len(orbit))
        remaining.difference_update(orbit)
    entries.extend((size, "C2") for size in sorted(nondiag))
    return ReflectionOrbitType(tuple(entries))


def _assert_orbit_types_match_the_oracle(G):
    # the generator walk needs L to be the circ-closure of its generators
    assert close_under_circ(G.K, G.L.generators) == G.L.member_set()
    assert reflection_orbit_types(G) == _reflection_orbit_types_oracle(G)


ORBIT_ORACLE_GROUPS = ([("T", None), ("O", None), ("I", None)]
                       + [("dicyclic", n) for n in range(2, 31)]
                       + [("cyclic", n) for n in range(1, 25)])


@pytest.mark.parametrize("tag,n", ORBIT_ORACLE_GROUPS)
def test_reflection_orbit_types_match_the_all_reflections_oracle(tag, n):
    # every (L, H) that classify_K forms
    K = build_group(tag, n) if n else build_group(tag)
    for L in enumerate_systems(K):
        H_L, *higher = diagonal_subgroups(K, L)
        for H in [H_L] + _dedup_subgroups(L, higher):
            _assert_orbit_types_match_the_oracle(build_reflection_group(K, L, H))


def test_index_group_orbit_types_match_the_all_reflections_oracle():
    for n in range(2, 13):
        for idx in lambda_set(n):
            _assert_orbit_types_match_the_oracle(build_index_group(idx))


def test_realize_matrices_identity_and_roots():
    T, L12 = T_system(12)
    G = build_reflection_group(T, L12, normal_of_order(T, 2))
    mats = realize_matrices(G)
    assert len(mats) == G.order
    m = T.conductor
    one, zero = Quaternion.one(m), Quaternion.zero(m)
    assert ((one, zero), (zero, one)) in mats
    # each antidiagonal reflection negates its root (1, -conj(b))
    for b in L12.members:
        M = triple_to_matrix(T, (b, T.inv[b], 1))
        root = (one, -T.elements[b].conjugate())
        image = (M[0][0] * root[0] + M[0][1] * root[1],
                 M[1][0] * root[0] + M[1][1] * root[1])
        assert image == (-root[0], -root[1])
        # rank(M - I) = 1: the columns of M - I are right-proportional
        c1 = (M[0][0] - one, M[1][0])
        c2 = (M[0][1], M[1][1] - one)
        alpha = -T.elements[b]
        assert (c1[0] * alpha, c1[1] * alpha) == c2


def test_iso_prescreen_verdicts():
    O = build_group("O")
    L20 = next(S for S in enumerate_systems(O) if S.size == 20)
    G_O20 = build_reflection_group(O, L20, normal_of_order(O, 2))
    four = [
        build_index_group(IndexQuadruple(6, 1, 3, 4)),
        build_index_group(IndexQuadruple(12, 2, 3, 2)),
        build_index_group(IndexQuadruple(24, 3, 8, 1)),
        G_O20,
    ]
    for G in four:
        assert G.order == 192 and G.reflection_count() == 22
    for G1, G2 in itertools.combinations(four, 2):
        verdict, reasons = iso_prescreen(G1, G2)
        assert verdict == "distinct" and reasons
    verdict, _ = iso_prescreen(G_O20, G_O20)
    assert verdict == "candidate"


def test_iso_prescreen_candidate_cross_k():
    G_O, G_T, _ = the_polyhedral_isomorphism()
    verdict, _ = iso_prescreen(G_T, G_O)
    assert verdict == "candidate"


def test_verify_isomorphism_identity_and_explicit():
    T, L12 = T_system(12)
    G = build_reflection_group(T, L12, normal_of_order(T, 2))
    gens = [(b, T.inv[b], 1) for b in L12.members]
    minus_one = T.index[-Quaternion.one(4)]
    gens.append((minus_one, 0, 0))
    assert verify_isomorphism(G, G, [(g, g) for g in gens])
    G_O, G_T, pairs = the_polyhedral_isomorphism()
    assert verify_isomorphism(G_O, G_T, pairs)


def test_verify_isomorphism_rejects_wrong_map():
    T, L12 = T_system(12)
    G = build_reflection_group(T, L12, normal_of_order(T, 2))
    gens = [(b, T.inv[b], 1) for b in L12.members]
    minus_one = T.index[-Quaternion.one(4)]
    gens.append((minus_one, 0, 0))
    # swap two reflection images: no longer a homomorphism
    images = list(gens)
    images[1], images[2] = images[2], images[1]
    assert not verify_isomorphism(G, G, list(zip(gens, images)))


def _t12_reflection_generators():
    T, L12 = T_system(12)
    G = build_reflection_group(T, L12, normal_of_order(T, 2))
    gens = [(b, T.inv[b], 1) for b in L12.members]
    gens.append((T.index[-Quaternion.one(4)], 0, 0))
    return T, G, gens


def test_verify_isomorphism_rejects_non_homomorphism():
    # the antidiagonal reflection over -1 goes to diag(1, -1); the extended
    # map still fills G, so only a conflicting product pair can reject it
    T, G, gens = _t12_reflection_generators()
    minus_one = T.index[-Quaternion.one(4)]
    moved = (minus_one, minus_one, 1)
    assert moved in gens
    images = [(0, minus_one, 0) if g == moved else g for g in gens]
    assert verify_isomorphism(G, G, list(zip(gens, images))) is False


def test_verify_isomorphism_requires_generating_sources():
    _, G, gens = _t12_reflection_generators()
    with pytest.raises(ValueError, match="do not generate G1"):
        verify_isomorphism(G, G, [(g, g) for g in gens[:1]])


def test_verify_isomorphism_requires_targets_in_g2():
    T, G, gens = _t12_reflection_generators()
    outside = next((x, 0, 0) for x in range(T.order) if (x, 0, 0) not in G.elements)
    pairs = [(g, g) for g in gens]
    pairs[-1] = (gens[-1], outside)
    with pytest.raises(ValueError, match="not in G2"):
        verify_isomorphism(G, G, pairs)


def test_verify_isomorphism_builds_no_element_set():
    _, G, gens = _t12_reflection_generators()
    assert verify_isomorphism(G, G, [(g, g) for g in gens])
    assert G._elements is None


def test_membership_is_membership_of_the_element_set():
    # valued groups over T and O, and label groups over D3, D6 and D5; every
    # index one past either end of K and every s in -1..2, so an index of |K|,
    # a negative index (which must not wrap) and s = 2 are all asked
    _, G_T12, _ = _t12_reflection_generators()
    groups = [G_T12, *the_polyhedral_isomorphism()[:2], *_dicyclic_family_pair(),
              build_index_group(IndexQuadruple(5, 1, 5, 1))]
    for G in groups:
        n = G.K.order
        triples = list(itertools.product(range(-1, n + 1), range(-1, n + 1), range(-1, 3)))
        assert [t in G for t in triples] == [t in G.elements for t in triples], G
        assert sum(t in G for t in triples) == G.order


def _dicyclic_family_pair():
    return (build_index_group(IndexQuadruple(3, 1, 3, 2)),
            build_index_group(IndexQuadruple(6, 2, 3, 1)))


def test_isomorphism_search_positive_and_negative():
    G1, G2 = _dicyclic_family_pair()
    assert isomorphism_search(G1, G2) is not None
    G3 = build_index_group(IndexQuadruple(6, 1, 6, 1))  # order 48, 14 reflections
    assert isomorphism_search(G1, G3) is None


def _leaf_search_oracle(G1, G2):
    """The first generator map of the search, one ``verify_isomorphism`` walk per leaf."""
    by_order = sorted(G1.elements, key=lambda t: (-walked_triple_order(G1.K, t), t))
    gens = _closure(IDENTITY, by_order, lambda u, v: model_mul(G1.K, u, v))[1]
    images = [[u for u in sorted(G2.elements)
               if walked_triple_order(G2.K, u) == walked_triple_order(G1.K, g)] for g in gens]
    for choice in itertools.product(*images):
        pairs = list(zip(gens, choice))
        if verify_isomorphism(G1, G2, pairs):
            return pairs
    return None


def test_isomorphism_search_walks_g1_once(monkeypatch):
    G1, G2 = _dicyclic_family_pair()
    walks = []

    def counted(*args, **kwargs):
        walks.append(args[1])
        return _generate(*args, **kwargs)

    monkeypatch.setattr(refgroups, "_generate", counted)
    found = isomorphism_search(G1, G2)
    monkeypatch.undo()
    assert len(walks) == 1 and walks[0] == [t for t, _ in found]
    assert verify_isomorphism(G1, G2, found)


def test_isomorphism_search_finds_the_leaf_search_map():
    G_O, G_T, _ = the_polyhedral_isomorphism()
    for G1, G2 in (_dicyclic_family_pair(), (G_T, G_O), (G_O, G_T)):
        assert isomorphism_search(G1, G2) == _leaf_search_oracle(G1, G2)


def test_isomorphism_search_screens_before_the_bound(monkeypatch):
    # census-distinct pairs above the bound are answered, not refused
    groups = [group_for_record(r) for r in order_scan(192) if r.reflections == 22]
    assert len(groups) == 4
    monkeypatch.setattr(refgroups, "ISO_SEARCH_BOUND", 100)
    for G1, G2 in itertools.combinations(groups, 2):
        assert isomorphism_search(G1, G2) is None


def test_isomorphism_search_refuses_a_candidate_above_the_bound(monkeypatch):
    G_O, G_T, _ = the_polyhedral_isomorphism()
    assert G_T.order == 96
    monkeypatch.setattr(refgroups, "ISO_SEARCH_BOUND", 50)
    with pytest.raises(ValueError, match="bound 50 exceeded"):
        isomorphism_search(G_T, G_O)


# -- the element-order census ------------------------------------------------


def walked_triple_order(K, t):
    """The order of t, walked through its powers (the oracle of ``triple_order``)."""
    k, cur = 1, t
    while cur != IDENTITY:
        cur = model_mul(K, cur, t)
        k += 1
    return k


def walked_census(G):
    """Element orders of G with multiplicities, walked over ``G.elements``."""
    return dict(sorted(Counter(walked_triple_order(G.K, t) for t in G.elements).items()))


@pytest.mark.parametrize("tag,n", [("T", None), ("O", None)]
                         + [("dicyclic", n) for n in range(2, 13)])
def test_element_order_census_matches_the_walk(tag, n):
    # every classify_K record group, and every index group [n, a, b, r]
    K = build_group(tag, n) if n else build_group(tag)
    groups = [group_for_record(rec) for rec in classify_K(K)]
    if tag == "dicyclic":
        groups += [build_index_group(idx) for idx in lambda_set(n)]
    for G in groups:
        assert all(triple_order(G.K, t) == walked_triple_order(G.K, t) for t in G.elements)
        census = G.element_order_census()
        assert census == walked_census(G) and sum(census.values()) == G.order


def test_corollary_type_ii_pairs_have_different_censuses():
    # every equal-order, equal-reflection-count pair of the corollary up to
    # n = 90 is told apart by an invariant of the abstract group
    pairs = corollary_pair_search(90, "ii")
    assert [p.idx1.n for p in pairs] == [2, 12, 30, 56, 60, 90]
    for p in pairs:
        G1, G2 = build_index_group(p.idx1), build_index_group(p.idx2)
        assert walked_census(G1) != walked_census(G2)
        assert iso_prescreen(G1, G2) == ("distinct", ["element-order censuses differ"])


@pytest.mark.parametrize("idx,n,label", [
    ((2, 1, 1, 4), 8, "G_C8(8,C4)"),
    ((3, 1, 1, 3), 12, "G_C12(12,C3)"),
    ((3, 1, 1, 6), 12, "G_C12(12,C6)"),
])
def test_census_separates_equal_reflection_data(idx, n, label):
    # same order, reflection count, orbit types and |K|: the reflection
    # screens left these pairs as candidates
    G1 = build_index_group(IndexQuadruple(*idx))
    G2 = group_for_record(next(r for r in classify_K(build_group("cyclic", n))
                                if r.label_str() == label))
    assert (G1.order, G1.reflection_count()) == (G2.order, G2.reflection_count())
    assert sorted(reflection_orbit_types(G1).entries) == sorted(reflection_orbit_types(G2).entries)
    assert walked_census(G1) != walked_census(G2)
    assert iso_prescreen(G1, G2) == ("distinct", ["element-order censuses differ"])
    assert isomorphism_search(G1, G2) is None


# -- rank n >= 3 ------------------------------------------------------------


def test_rank3_hyperoctahedral_oracle():
    # the rank-3 group over (C2, C2) is the real signed-permutation group;
    # enumerate its 48 matrices over the integers and count rank(M - I) = 1
    refl = 0
    total = 0
    for signs in itertools.product((1, -1), repeat=3):
        for perm in itertools.permutations(range(3)):
            total += 1
            fixed_dim = 0
            moved = [u for u in range(3) if perm[u] != u]
            if not moved:
                fixed_dim = sum(1 for s in signs if s == 1)
            elif len(moved) == 2:
                a, b = moved
                block_fix = 1 if signs[a] * signs[b] == 1 else 0
                fixed_dim = block_fix + sum(1 for u in range(3)
                                            if u not in moved and signs[u] == 1)
            else:
                prod = signs[0] * signs[1] * signs[2]
                fixed_dim = 1 if prod == 1 else 0
            if fixed_dim == 2:
                refl += 1
    assert total == 48 and refl == 9

    C2 = build_group("cyclic", 2)
    H = Subgroup(C2, (0, 1))
    d = rank_n_group(3, C2, H)
    assert d.order == 48 and d.explicit_order == 48
    assert d.explicit_reflection_count == 9


def rank_n_closure_spot_check(rank, K, H, samples=200, seed=7):
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


def test_rank3_explicit_counts():
    Q8 = build_group("dicyclic", 2)
    HC2 = normal_of_order(Q8, 2)
    d = rank_n_group(3, Q8, HC2)
    assert d.order == 6 * 2 * 64 == 768
    assert d.explicit_order == 768
    assert d.explicit_reflection_count == 27  # 3(|H|-1) + 3|K|
    assert rank_n_closure_spot_check(3, Q8, HC2)


def test_rank3_general_reflection_law():
    # explicit count always equals n(|H|-1) + (n choose 2)|K|
    for tag, n in (("cyclic", 3), ("cyclic", 4), ("dicyclic", 2), ("dicyclic", 3)):
        K = build_group(tag, n)
        for H in (commutator_subgroup(K), Subgroup(K, tuple(range(K.order)))):
            d = rank_n_group(3, K, H)
            assert d.explicit_order == d.order
            assert d.explicit_reflection_count == 3 * (H.order - 1) + 3 * K.order


def test_rank3_requires_commutator_containment():
    T = build_group("T")
    C2 = normal_of_order(T, 2)
    with pytest.raises(PreconditionError):
        rank_n_group(3, T, C2)  # [T, T] = Q8 is not inside C2


def test_rank_n_descriptor_beyond_bound():
    I = build_group("I")
    HI = Subgroup(I, tuple(range(120)))
    d = rank_n_group(4, I, HI)
    assert d.order == math.factorial(4) * 120 * 120 ** 3
    assert d.explicit_order is None


def test_rank_n_cocycle_condition():
    # diagonal cocycle: coset of a product is the product of cosets, any order
    rng = random.Random(41)
    for K in (build_group("dicyclic", 3), build_group("T")):
        rep = commutator_subgroup(K).coset_rep
        for rank in (3, 4):
            for _ in range(100):
                xs = [rng.randrange(K.order) for _ in range(rank)]
                ys = [rng.randrange(K.order) for _ in range(rank)]
                prod_x = prod_y = prod_xy = 0
                for x, y in zip(xs, ys):
                    prod_x = K.cayley[prod_x][x]
                    prod_y = K.cayley[prod_y][y]
                    prod_xy = K.cayley[prod_xy][K.cayley[x][y]]
                lhs = K.cayley[K.inv[prod_x]][K.inv[prod_y]]
                assert rep[lhs] == rep[K.inv[prod_xy]]


def test_rank_n_multiplication_consistency():
    Q8 = build_group("dicyclic", 2)
    rng = random.Random(43)
    perms = list(itertools.permutations(range(3)))
    for _ in range(100):
        d1 = tuple(rng.randrange(8) for _ in range(3))
        d2 = tuple(rng.randrange(8) for _ in range(3))
        s1, s2 = rng.choice(perms), rng.choice(perms)
        diag, perm = rank_n_mul(Q8, (d1, s1), (d2, s2))
        # associativity through a third element
        d3 = tuple(rng.randrange(8) for _ in range(3))
        s3 = rng.choice(perms)
        left = rank_n_mul(Q8, (diag, perm), (d3, s3))
        inner = rank_n_mul(Q8, (d2, s2), (d3, s3))
        right = rank_n_mul(Q8, (d1, s1), inner)
        assert left == right


def test_realize_matrices_bound_error(monkeypatch):
    T, L12 = T_system(12)
    G = build_reflection_group(T, L12, normal_of_order(T, 2))
    monkeypatch.setenv("QUATREFL_MAX_ORDER", "10")
    with pytest.raises(ValueError, match="bound"):
        realize_matrices(G)


def test_realize_matrices_of_a_label_group_names_the_valued_group():
    # build_index_group builds in label_group's D_n, which has no values
    idx = IndexQuadruple(3, 1, 3, 2)
    with pytest.raises(ValueError, match=r"label group .* build_group\('dicyclic', 3\)"):
        realize_matrices(build_index_group(idx))
    K = build_group("dicyclic", 3)
    H = Subgroup(K, K.subgroup_closure([dicyclic_element(K, 3, 0)]))
    G = build_reflection_group(K, dicyclic_system(DicyclicIndex(3, 1, 3), K), H)
    assert len(realize_matrices(G)) == G.order == 48


def test_generate_from_reflections_bound_error(monkeypatch):
    T = build_group("T")
    monkeypatch.setenv("QUATREFL_MAX_ORDER", "50")
    with pytest.raises(ValueError, match="bound"):
        generate_from_reflections(T, [], list(range(T.order)))


def test_reflection_group_json():
    T, L12 = T_system(12)
    G = build_reflection_group(T, L12, normal_of_order(T, 2))
    data = G.to_json()
    assert data == {"K": "T", "L": 12, "H": "C2", "order": 96, "reflections": 14,
                    "orbit_types": "2C2,12C2", "canonical": True}


def test_product_rule_matches_matrices_across_groups():
    rng = random.Random(59)
    cases = [("T", None, 12, 1), ("O", None, 18, 1), ("dicyclic", 4, 12, 2)]
    for tag, n, L_size, H_order in cases:
        K = build_group(tag, n) if n else build_group(tag)
        L = next(S for S in enumerate_systems(K) if S.size == L_size)
        H = normal_of_order(K, H_order)
        G = build_reflection_group(K, L, H)
        elems = sorted(G.elements)
        for _ in range(350):
            t1, t2 = rng.choice(elems), rng.choice(elems)
            lhs = triple_to_matrix(K, model_mul(K, t1, t2))
            rhs = mat_mul(triple_to_matrix(K, t1), triple_to_matrix(K, t2))
            assert lhs == rhs


def test_product_rule_matches_matrices_on_drawn_elements():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(derandomize=True, deadline=None, max_examples=60)
    @hypothesis.given(st.data())
    def agrees(data):
        tag, n = data.draw(st.sampled_from([("T", None), ("O", None), ("dicyclic", 4)]))
        K = build_group(tag, n) if n else build_group(tag)
        L = data.draw(st.sampled_from(enumerate_systems(K)))
        H = data.draw(st.sampled_from(diagonal_subgroups(K, L)))
        elems = sorted(build_reflection_group(K, L, H).elements)
        t1, t2 = data.draw(st.sampled_from(elems)), data.draw(st.sampled_from(elems))
        lhs = triple_to_matrix(K, model_mul(K, t1, t2))
        assert lhs == mat_mul(triple_to_matrix(K, t1), triple_to_matrix(K, t2))

    agrees()


# -- closures over the enlarging generators ----------------------------------


def test_closure_of_triples_matches_the_all_generators_walk():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(derandomize=True, deadline=None, max_examples=60)
    @hypothesis.given(st.data())
    def matches(data):
        K = build_group(*data.draw(st.sampled_from([("T",), ("dicyclic", 3)])))
        triple = st.tuples(st.integers(0, K.order - 1), st.integers(0, K.order - 1),
                           st.integers(0, 1))
        gens = data.draw(st.lists(triple, max_size=6))
        full = frozenset(_generate(IDENTITY, gens, lambda t, g: model_mul(K, t, g))[0])
        assert closure_of_triples(K, gens) == full
        # the bound is exceeded exactly when the whole closure exceeds it
        bound = data.draw(st.integers(1, 2 * len(full)))
        with mock.patch.dict(os.environ, {"QUATREFL_MAX_ORDER": str(bound)}):
            if len(full) > bound:
                with pytest.raises(ValueError, match="bound"):
                    closure_of_triples(K, gens)
            else:
                assert closure_of_triples(K, gens) == full

    matches()


def test_closure_of_all_antidiagonal_reflections_of_I_stays_small():
    # walked over all 120 generators this closure peaked at 35.7 MiB; the
    # enlarging ones keep the table |G| x (a few generators)
    import tracemalloc

    I = build_group("I")
    gens = [(b, I.inv[b], 1) for b in range(I.order)]
    tracemalloc.start()
    try:
        closed = closure_of_triples(I, gens)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(closed) == 2 * I.order * I.order
    assert peak <= 12 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MiB"


# -- rank n: counted against the walk ----------------------------------------


def _rank_n_walk(rank, K, H):
    """Every (diagonal, permutation) of the rank-n group over (K, H): n-1
    free entries in K, the last fixing the diagonal product into H."""
    perms = list(itertools.permutations(range(rank)))
    for firsts in itertools.product(range(K.order), repeat=rank - 1):
        prod = 0
        for d in firsts:
            prod = K.cayley[prod][d]
        inv_prod = K.inv[prod]
        for h in H.members:
            diag = firsts + (K.cayley[inv_prod][h],)
            for perm in perms:
                yield diag, perm


def _rank_n_walk_counts(rank, K, H):
    count = refl = 0
    for diag, perm in _rank_n_walk(rank, K, H):
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


@pytest.mark.parametrize("rank", [3, 4])
def test_rank_n_counts_match_the_walk(rank):
    groups = [build_group("cyclic", n) for n in range(1, 9)]
    groups += [build_group("dicyclic", 2), build_group("dicyclic", 3)]
    groups += [build_group("T")] if rank == 3 else []
    for K in groups:
        comm = commutator_subgroup(K).member_set()
        for H in normal_subgroups(K):
            if not comm <= H.member_set():
                continue
            d = rank_n_group(rank, K, H)
            assert (d.explicit_order, d.explicit_reflection_count) == \
                _rank_n_walk_counts(rank, K, H), (K.name, H.name)
            assert d.explicit_order == d.order
            assert d.explicit_reflection_count == \
                rank * (H.order - 1) + math.comb(rank, 2) * K.order


def test_rank_n_group_rejects_a_foreign_H():
    Q8, D3 = build_group("dicyclic", 2), build_group("dicyclic", 3)
    with pytest.raises(PreconditionError, match="parent mismatch"):
        rank_n_group(3, D3, Subgroup(Q8, tuple(range(Q8.order))))
