"""Classification pipeline: index sets, records, scans, isomorphisms."""

import dataclasses

import pytest

from quatrefl.groups import build_group
from quatrefl.numutil import is_square
from quatrefl.classify import (
    IndexQuadruple,
    classify_K,
    cohen_covered_indices,
    cohen_index,
    corollary_pair_search,
    dicyclic_record,
    dicyclic_special_record,
    equal_invariant_cross_pairs,
    find_isomorphisms,
    group_for_record,
    lambda_count_formula,
    lambda_set,
    missing_from_cohen,
    order_scan,
    polyhedral_records,
    the_dicyclic_family_isomorphism,
    the_polyhedral_isomorphism,
)
from quatrefl.refgroups import (
    iso_prescreen,
    verify_isomorphism,
)


# -- index sets --------------------------------------------------------------


def test_lambda_sets():
    assert [q.as_list() for q in lambda_set(2)] == [[2, 1, 1, 2], [2, 1, 1, 4], [2, 1, 2, 1]]
    l6 = lambda_set(6)
    assert len(l6) == 7
    assert sum(1 for q in l6 if q.is_higher) == 2
    for q in l6:
        if not q.is_higher:
            assert q.a * q.b * q.r == q.n


def test_lambda_count_formula():
    for n in range(2, 201):
        assert len(lambda_set(n)) == lambda_count_formula(n)


def test_index_quadruple_validation():
    IndexQuadruple(6, 1, 3, 4)
    with pytest.raises(ValueError):
        IndexQuadruple(6, 1, 3, 5)
    with pytest.raises(ValueError):
        IndexQuadruple(6, 1, 2, 6)  # higher with even ab
    with pytest.raises(ValueError):
        IndexQuadruple(6, 2, 4, 1)  # gcd != 1


def test_index_formulas():
    idx = IndexQuadruple(6, 1, 3, 4)
    assert idx.order == 192 and idx.reflections == 22 and idx.L_size == 16


# -- per-K classification ------------------------------------------------------


def test_classify_tetrahedral_block():
    recs = classify_K(build_group("T"))
    got = [(r.L_size, r.H_name, r.order, r.reflections, r.orbit_types) for r in recs]
    assert got == [
        (12, "1", 48, 12, "12C2"),
        (12, "C2", 96, 14, "2C2,12C2"),
        (24, "Q8", 384, 38, "2Q8,24C2"),
        (24, "T", 1152, 70, "2T,24C2"),
    ]
    assert all(r.canonical for r in recs)


def test_classify_octahedral_block():
    recs = classify_K(build_group("O"))
    assert len(recs) == 6
    higher = [r for r in recs if r.order == 4608]
    assert len(higher) == 1 and higher[0].H_name == "O" and higher[0].reflections == 142


def test_classify_icosahedral_block():
    recs = classify_K(build_group("I"))
    got = [(r.L_size, r.H_name, r.order, r.reflections) for r in recs]
    assert got == [
        (20, "1", 240, 20),
        (30, "1", 240, 30),
        (20, "C2", 480, 22),
        (32, "C2", 480, 34),
        (120, "I", 28800, 358),
    ]


def test_classify_q8_block():
    recs = classify_K(build_group("dicyclic", 2))
    got = sorted((r.L_size, r.H_name, r.order, r.reflections) for r in recs)
    assert got == [(6, "1", 16, 6), (8, "C2", 32, 10), (8, "C4", 64, 14), (8, "Q8", 128, 22)]


def test_classify_matches_formula_records():
    # the honest per-K classification agrees with the formula-based records
    for n in range(2, 9):
        recs = classify_K(build_group("dicyclic", n))
        plain = {r.label: r for r in recs if r.family == "dicyclic"}
        assert set(plain) == {tuple(idx.as_list()) for idx in lambda_set(n)}
        for idx in lambda_set(n):
            formula = dicyclic_record(idx)
            honest = plain[tuple(idx.as_list())]
            assert honest.order == formula.order
            assert honest.reflections == formula.reflections
            assert honest.orbit_multiset() == formula.orbit_multiset()
            assert honest.canonical and formula.canonical
        specials = [r for r in recs if r.family == "dicyclic-special"]
        expected_specials = 1 + (1 if n % 2 == 0 and n > 2 else 0)
        assert len(specials) == expected_specials


def test_special_rows_orders_and_counts():
    for n in range(3, 13):
        recs = classify_K(build_group("dicyclic", n))
        full = next(r for r in recs if r.order == 32 * n * n)
        assert r"D%d" % n == full.H_name and full.reflections == 12 * n - 2
        if n % 2 == 0:
            half = next(r for r in recs if r.order == 16 * n * n
                        and r.family == "dicyclic-special")
            assert half.reflections == 8 * n - 2


def test_base_group_uniqueness_within_k():
    groups = [build_group(t) for t in ("T", "O", "I")]
    groups += [build_group("dicyclic", n) for n in range(2, 13)]
    for K in groups:
        recs = classify_K(K)
        bases = {}
        for r in recs:
            if r.family == "dicyclic":
                n, a, b, rr = r.label
                if a * b * rr != n:
                    continue
            # polyhedral and special rows: keep only base groups via H = H_L,
            # detected as the smallest H for the given |L|
            key = (r.order, r.reflections)
            same_L = [x for x in recs if x.L_size == r.L_size]
            if r.H_name != min(same_L, key=lambda x: x.order).H_name:
                continue
            assert key not in bases or bases[key] == r.label, (K.name, key)
            bases[key] = r.label


def test_evolution_chain_for_full_system():
    for n in (4, 6):
        base = group_for_record(dicyclic_record(IndexQuadruple(n, 1, 1, n)))
        higher = group_for_record(dicyclic_record(IndexQuadruple(n, 1, 1, 2 * n)))
        special_full = group_for_record(dicyclic_special_record(n, half=False))
        special_half = group_for_record(dicyclic_special_record(n, half=True))
        assert base.elements < higher.elements < special_full.elements
        assert base.elements < special_half.elements < special_full.elements


def test_group_for_record_builds_every_family():
    recs = {}
    for K in (build_group("cyclic", 6), build_group("dicyclic", 4), build_group("T")):
        for rec in classify_K(K):
            recs.setdefault(rec.family, rec)
    assert set(recs) == {"cyclic", "dicyclic", "dicyclic-special", "polyhedral"}
    for rec in recs.values():
        G = group_for_record(rec)
        assert (G.order, G.reflection_count()) == (rec.order, rec.reflections), rec.label_str()
    # a record that classify_K never produced is built the same way
    cyclic = dataclasses.replace(recs["cyclic"], iso_partner="x")
    G = group_for_record(cyclic)
    assert (G.order, G.reflection_count()) == (cyclic.order, cyclic.reflections)


# -- order scans ---------------------------------------------------------------


def test_order_scan_16():
    recs = order_scan(16)
    assert [r.label_str() for r in recs] == ["[2,1,2,1]"]
    assert recs[0].reflections == 6


def test_order_scan_192():
    recs = order_scan(192)
    assert len(recs) == 6
    by_label = {r.label_str(): r for r in recs}
    assert by_label["[6,1,3,4]"].reflections == 22
    assert by_label["[6,1,3,4]"].H_name == "C4"
    with22 = [r for r in recs if r.reflections == 22]
    assert len(with22) == 4


def test_order_scan_480():
    recs = order_scan(480)
    by_label = {r.label_str(): r for r in recs}
    assert by_label["[30,1,15,2]"].reflections == 66
    assert by_label["G_I(L32,C2)"].reflections == 34
    assert by_label["G_I(L20,C2)"].reflections == 22
    assert len(recs) == 8


def test_order_192_four_groups_pairwise_distinct():
    recs = [r for r in order_scan(192) if r.reflections == 22]
    assert len(recs) == 4
    groups = [group_for_record(r) for r in recs]
    for i in range(4):
        for j in range(i + 1, 4):
            verdict, reasons = iso_prescreen(groups[i], groups[j])
            assert verdict == "distinct", (recs[i].label_str(), recs[j].label_str())


def test_no_cross_family_isomorphism_at_shared_orders():
    for order in (48, 96, 192, 384, 480, 768):
        recs = order_scan(order)
        poly = [r for r in recs if r.family == "polyhedral"]
        dic = [r for r in recs if r.family != "polyhedral"]
        for rp in poly:
            for rd in dic:
                Gp, Gd = group_for_record(rp), group_for_record(rd)
                verdict, _ = iso_prescreen(Gp, Gd)
                assert verdict == "distinct", (rp.label_str(), rd.label_str())


# -- isomorphisms ----------------------------------------------------------------


def test_find_isomorphisms_complete_list():
    records = list(polyhedral_records())
    for n in range(2, 19):
        records.extend(classify_K(build_group("dicyclic", n)))
    results = find_isomorphisms(records)
    got = sorted((r.label1, r.label2) for r in results)
    assert got == sorted([
        ("[3,1,3,2]", "[6,2,3,1]"),
        ("[5,1,5,2]", "[10,2,5,1]"),
        ("[7,1,7,2]", "[14,2,7,1]"),
        ("[9,1,9,2]", "[18,2,9,1]"),
        ("G_T(L12,C2)", "G_O(L14,1)"),
    ])


def test_no_other_polyhedral_isomorphism():
    results = find_isomorphisms(list(polyhedral_records()))
    assert [(r.label1, r.label2) for r in results] == [("G_T(L12,C2)", "G_O(L14,1)")]


def test_explicit_maps_verify():
    G_O, G_T, pairs = the_polyhedral_isomorphism()
    assert verify_isomorphism(G_O, G_T, pairs)
    for n in (3, 5, 7, 9):
        G1, G2, pairs = the_dicyclic_family_isomorphism(n)
        assert verify_isomorphism(G1, G2, pairs)


def test_family_indices_invalid_for_even_n():
    for n in (2, 4, 6, 8):
        with pytest.raises(ValueError):
            IndexQuadruple(n, 1, n, 2)


# -- corollary search ---------------------------------------------------------------


def test_corollary_type_i_first_eight():
    pairs = corollary_pair_search(1885, "i")
    got = [(p.idx1.as_list(), p.idx2.as_list(), p.c) for p in pairs]
    assert got == [
        ([273, 7, 39, 2], [546, 21, 26, 1], 5),
        ([315, 7, 45, 2], [630, 18, 35, 1], 17),
        ([357, 7, 51, 2], [714, 17, 42, 1], 25),
        ([975, 13, 75, 2], [1950, 39, 50, 1], 11),
        ([1001, 11, 91, 2], [2002, 26, 77, 1], 51),
        ([1105, 13, 85, 2], [2210, 34, 65, 1], 31),
        ([1365, 15, 91, 2], [2730, 42, 65, 1], 23),
        ([1885, 13, 145, 2], [3770, 29, 130, 1], 101),
    ]
    for p in pairs:
        assert p.c % 2 == 1
        assert p.idx1.order == p.idx2.order
        assert p.idx1.reflections == p.idx2.reflections
        assert p.certificate != "invariant-equal, isomorphism search skipped"


def test_corollary_type_i_empty_below_273():
    assert corollary_pair_search(100, "i") == []
    assert corollary_pair_search(272, "i") == []


def test_corollary_type_ii_family():
    pairs = corollary_pair_search(24, "ii")
    got = [(p.idx1.as_list(), p.idx2.as_list(), p.c) for p in pairs]
    assert got == [
        ([2, 1, 1, 2], [4, 1, 4, 1], 3),
        ([12, 2, 3, 2], [24, 3, 8, 1], 5),
    ]
    m2 = pairs[1]
    assert m2.idx1.order == 192 and m2.idx1.reflections == 22


def test_corollary_type_ii_matches_family_formula():
    # [2m(2m-1), m, 2m-1, 2] with partner [4m(2m-1), 2m-1, 4m, 1]
    pairs = {tuple(p.idx1.as_list()): p for p in corollary_pair_search(120, "ii")}
    for m in (1, 2, 3, 4):
        n = 2 * m * (2 * m - 1)
        key = (n, min(m, 2 * m - 1), max(m, 2 * m - 1), 2)
        assert key in pairs
        partner = pairs[key].idx2.as_list()
        assert partner == [2 * n, min(2 * m - 1, 4 * m), max(2 * m - 1, 4 * m), 1]
    # the family is not all of type (ii): a non-family hit exists at n = 60
    assert (60, 5, 6, 2) in pairs


def test_minus_16_discriminant_validated_by_oracle():
    # the m = 2 family pair has discriminant 11^2 - 16*6 = 25 = 5^2 while the
    # (a+b)-statement variant 11^2 - 8*6 = 73 is not a square; the oracle of
    # equal-invariant pairs must therefore contain the pair the -16 form finds
    a, b = 2, 3
    assert (2 * (a + b) + 1) ** 2 - 16 * a * b == 25
    assert not is_square((2 * (a + b) + 1) ** 2 - 8 * a * b)
    oracle = set()
    for i1, i2 in equal_invariant_cross_pairs(60):
        oracle.add((tuple(i1.as_list()), tuple(i2.as_list())))
    assert ((12, 2, 3, 2), (24, 3, 8, 1)) in oracle
    # oracle pairs are exactly: the odd-n isomorphic family (a = 1) plus the
    # type-(ii) search output over the same range
    typed = {(tuple(p.idx1.as_list()), tuple(p.idx2.as_list()))
             for p in corollary_pair_search(60, "ii")}
    family = {((n, 1, n, 2), (2 * n, 2, n, 1)) for n in range(3, 61, 2)}
    assert oracle == typed | family


# -- missing indices and the classical coverage ---------------------------------


def test_missing_small_cases():
    assert missing_from_cohen(5) == []
    got = missing_from_cohen(33)
    for idx in got:
        assert idx.is_higher
        assert (idx.a, idx.b) != (1, 1)
        assert idx.r != 2 and idx.n % idx.r != 0 and (2 * idx.n) % idx.r == 0


def test_missing_equals_uncovered():
    # the stated criteria agree with direct coverage of the five-line table
    for n in range(2, 25):
        lam = set(lambda_set(n))
        covered = cohen_covered_indices(n)
        assert covered <= lam
        uncovered = sorted(lam - covered, key=lambda q: q.as_list())
        assert uncovered == [q for q in missing_from_cohen(n) if q.n == n]


def test_cohen_index_examples():
    assert cohen_index(1, 5).as_list() == [5, 1, 1, 10]
    assert cohen_index(2, 1, 3, 1).as_list() == [6, 1, 3, 2]
    assert cohen_index(5, 6, r=1).as_list() == [6, 1, 6, 1]


def test_cohen_index_constraint_errors():
    with pytest.raises(ValueError):
        cohen_index(1, 1)
    with pytest.raises(ValueError):
        cohen_index(2, 2, 4, 2)  # even r
    with pytest.raises(ValueError):
        cohen_index(2, 2, 6, 3)  # l != gcd * gcd: gcd(6,1)*gcd(6,2) = 2 != 6
    with pytest.raises(ValueError):
        cohen_index(6, 2)


def test_cohen_index_lands_in_lambda():
    for n in range(2, 16):
        for idx in cohen_covered_indices(n):
            assert idx in set(lambda_set(n))


# -- record JSON -----------------------------------------------------------------


def test_record_json_round_trip_fields():
    rec = dicyclic_record(IndexQuadruple(6, 1, 3, 4))
    data = rec.to_json()
    assert data["label"] == "[6,1,3,4]"
    assert data["order"] == 192 and data["reflections"] == 22
    assert data["canonical"] is True


def test_classify_cyclic_family():
    # over C_n the records are the classical rank-2 monomial complex groups:
    # for each divisor-order subgroup H = C_{n/p}, order 2 n^2 / p
    recs = classify_K(build_group("cyclic", 6))
    got = [(r.H_name, r.order, r.reflections) for r in recs]
    assert got == [("1", 12, 6), ("C2", 24, 8), ("C3", 36, 10), ("C6", 72, 16)]
    assert all(r.family == "cyclic" and r.canonical for r in recs)
