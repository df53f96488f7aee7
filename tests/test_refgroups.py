"""Reflection groups in the monomial element model."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from quatrefl.exactarith import Quaternion
from quatrefl.groups import (
    Subgroup,
    build_group,
    commutator_subgroup,
    normal_subgroups,
)
from quatrefl.refsystems import (
    DicyclicIndex,
    _dicyclic_element,
    close_system,
    dicyclic_system,
    enumerate_systems,
    omega_set,
)
from quatrefl.refgroups import (
    PreconditionError,
    build_reflection_group,
    generate_from_reflections,
    induced_quotient_involution,
    is_canonical,
    iso_prescreen,
    isomorphism_search,
    mat_mul,
    minimal_diagonal_subgroup,
    model_identity,
    model_inv,
    model_mul,
    nondiagonal_reflections,
    rank_n_closure_spot_check,
    rank_n_group,
    rank_n_mul,
    realize_matrices,
    reflection_orbit_types,
    triple_to_matrix,
    verify_isomorphism,
)


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
        assert model_mul(T, t, model_inv(T, t)) == model_identity()


def test_gamma_is_an_involution_on_the_quotient():
    for K, L_size, H_order in (("T", 12, 2), ("T", 24, 8), ("O", 20, 2)):
        grp = build_group(K)
        L = next(S for S in enumerate_systems(grp) if S.size == L_size)
        H = normal_of_order(grp, H_order)
        gamma, rep, _ = induced_quotient_involution(grp, L.members, H.members)
        for c in set(rep):
            assert gamma[gamma[c]] == c
        for b in L.members:
            assert gamma[rep[b]] == rep[grp.inv[b]]


def test_minimal_diagonal_subgroup():
    T, L24 = T_system(24)
    assert minimal_diagonal_subgroup(T, L24).name == "Q8"
    _, L12 = T_system(12)
    assert minimal_diagonal_subgroup(T, L12).order == 1
    for n in (4, 6, 9):
        D = build_group("dicyclic", n)
        for idx in omega_set(n):
            L = dicyclic_system(DicyclicIndex(n, idx.a, idx.b))
            H = minimal_diagonal_subgroup(D, L)
            assert H.order == n // (idx.a * idx.b)
            w2ab = _dicyclic_element(D, (2 * idx.a * idx.b) % (2 * n), 0)
            assert set(H.members) == set(D.subgroup_closure([w2ab]))


def test_commutator_identity_for_full_systems():
    # H_{L=K} equals the commutator subgroup, checked by direct closure
    for tag, n in (("cyclic", 6), ("dicyclic", 2), ("dicyclic", 3), ("T", None), ("O", None)):
        K = build_group(tag, n) if n else build_group(tag)
        L = close_system(K, tuple(range(K.order)))
        gens = [(b, K.inv[b], 1) for b in L.members]
        from quatrefl.refgroups import closure_of_triples

        closed = closure_of_triples(K, gens)
        direct = sorted(x for (x, y, s) in closed if s == 0 and y == 0)
        assert tuple(direct) == commutator_subgroup(K).members


def test_nondiagonal_reflections_of_base_is_l():
    T, L12 = T_system(12)
    G = build_reflection_group(T, L12, minimal_diagonal_subgroup(T, L12))
    assert nondiagonal_reflections(G) == L12.members
    assert is_canonical(G)


def test_noncanonical_dicyclic_even_product():
    Q8 = build_group("dicyclic", 2)
    L6 = next(L for L in enumerate_systems(Q8) if L.size == 6)
    G = build_reflection_group(Q8, L6, normal_of_order(Q8, 2))
    L_G = nondiagonal_reflections(G)
    assert set(L_G) > set(L6.members)
    assert not is_canonical(G)


def test_full_system_is_canonical():
    T, L24 = T_system(24)
    G = build_reflection_group(T, L24, normal_of_order(T, 24))
    assert set(nondiagonal_reflections(G)) == set(range(T.order))
    assert is_canonical(G)


def test_higher_dicyclic_canonical_iff_ab_odd():
    for n in range(2, 9):
        D = build_group("dicyclic", n)
        for idx in omega_set(n):
            r = 2 * n // (idx.a * idx.b)
            L = dicyclic_system(DicyclicIndex(n, idx.a, idx.b))
            H = Subgroup(D, D.subgroup_closure(
                [_dicyclic_element(D, (2 * n // r) % (2 * n), 0)]))
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
    from quatrefl.classify import build_index_group, IndexQuadruple

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
    from quatrefl.classify import the_polyhedral_isomorphism

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
    from quatrefl.classify import the_polyhedral_isomorphism

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


def test_isomorphism_search_positive_and_negative():
    from quatrefl.classify import build_index_group, IndexQuadruple

    G1 = build_index_group(IndexQuadruple(3, 1, 3, 2))
    G2 = build_index_group(IndexQuadruple(6, 2, 3, 1))
    assert isomorphism_search(G1, G2) is not None
    G3 = build_index_group(IndexQuadruple(6, 1, 6, 1))  # order 48, 14 reflections
    assert isomorphism_search(G1, G3) is None


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
    d = rank_n_group(4, I, HI, bound=10 ** 6)
    assert d.order == math.factorial(4) * 120 * 120 ** 3
    assert d.explicit_order is None


def test_rank_n_cocycle_condition():
    # diagonal cocycle: coset of a product is the product of cosets, any order
    rng = random.Random(41)
    for K in (build_group("dicyclic", 3), build_group("T")):
        H = commutator_subgroup(K)
        from quatrefl.refsystems import coset_representatives

        rep = coset_representatives(K, H.members)
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


def test_realize_matrices_bound_error():
    T, L12 = T_system(12)
    G = build_reflection_group(T, L12, normal_of_order(T, 2))
    with pytest.raises(ValueError, match="bound"):
        realize_matrices(G, bound=10)


def test_generate_from_reflections_bound_error():
    T = build_group("T")
    with pytest.raises(ValueError, match="bound"):
        generate_from_reflections(T, [], list(range(T.order)), bound=50)


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
