"""Acceptance criteria, one test per stated clause.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line
per criterion.  Two clauses expect values that differ from a published
list or a naive formula:

  * criterion 7: the computed missing-index list up to n = 33 equals the 24
    published indices plus [14,1,7,4].  That index is in Lambda_14
    (1*7*4 = 2*14 with ab odd), meets every stated criterion, is produced by
    no line of the five-line table, and is the p = 7 member of the family
    [2p,1,p,4] whose other members with 2p <= 33 are all published; the
    published list omits it.
  * criterion 11: the rank-3 reflection count is the classical
    n(|H|-1) + C(n,2)|K| of the imprimitive groups G(m,p,n) (Shephard-Todd),
    that is 3(|H|-1) + 3|K| at rank 3: the signed-permutation group of rank 3
    has 9 reflections and S_3 has 3.
"""

import itertools
import math
import time
from fractions import Fraction

from quatrefl.exactarith import Quaternion
from quatrefl.groups import (
    Subgroup,
    build_group,
    commutator_subgroup,
    normal_subgroups,
)
from quatrefl.indices import (
    DicyclicIndex,
    lambda_count_formula,
    missing_from_cohen,
    omega_count_formula,
    omega_set,
)
from quatrefl.refsystems import (
    close_system,
    close_under_circ,
    copy_count,
    dicyclic_element,
    dicyclic_system,
    enumerate_systems,
    subgroup_copy_count,
    system_orbit,
    systems_equivalent,
)
from quatrefl.refgroups import (
    build_reflection_group,
    induced_quotient_involution,
    rank_n_group,
    verify_isomorphism,
)
from quatrefl.classify import (
    IndexQuadruple,
    classify_K,
    corollary_pair_search,
    group_for_record,
    lambda_set,
    order_scan,
    polyhedral_records,
    the_dicyclic_family_isomorphism,
    the_polyhedral_isomorphism,
)
from quatrefl.refgroups import iso_prescreen
from quatrefl.golden import appendix_elements, load_fixture
from test_classify import equal_invariant_cross_pairs


def report(num, desc, ok):
    print(f"\nACCEPTANCE {num:>2} {desc}: {'PASS' if ok else 'FAIL'}")
    return ok


def _is_reflection_triple(K, t):
    """diag(x, y) with exactly one of x, y not 1, or diag(x, x^-1) * swap."""
    x, y, s = t
    if s == 0:
        return (x == 0) != (y == 0)
    return y == K.inv[x]


# -- criterion 1: constructors and the fixed element lists -------------------


def test_criterion_01_constructors_and_element_lists():
    t0 = time.monotonic()
    ok = build_group("T").order == 24
    ok &= build_group("O").order == 48
    ok &= build_group("I").order == 120
    for n in range(2, 13):
        ok &= build_group("dicyclic", n).order == 4 * n
    for tag in ("T", "O", "I"):
        ok &= set(build_group(tag).elements) == appendix_elements(tag)
    elapsed = time.monotonic() - t0
    ok &= elapsed < 5.0
    assert report(1, f"group constructors + element lists ({elapsed:.2f}s)", ok)


# -- criterion 2: reflection-system enumeration -------------------------------


def test_criterion_02_system_enumeration():
    t0 = time.monotonic()
    sys_T = enumerate_systems(build_group("T"))
    sys_O = enumerate_systems(build_group("O"))
    sys_I = enumerate_systems(build_group("I"))
    sys_Q8 = enumerate_systems(build_group("dicyclic", 2))
    ok = [L.size for L in sys_T] == [12, 24]
    ok &= [L.size for L in sys_O] == [14, 18, 20, 32, 48]
    ok &= [L.size for L in sys_I] == [20, 30, 32, 120]
    ok &= [L.size for L in sys_Q8] == [6, 8]
    # the 12-element tetrahedral system has 12 two-sided translate copies
    # (the count of its occurrences inside the all-of-T group; it has 6
    # identity-containing equivalent systems)
    L12 = sys_T[0]
    ok &= subgroup_copy_count(L12) == 12
    ok &= copy_count(L12) == 6
    ok &= [copy_count(L) for L in sys_O] == [7, 9, 10, 4, 1]
    ok &= [copy_count(L) for L in sys_I] == [10, 15, 16, 1]
    elapsed = time.monotonic() - t0
    ok &= elapsed < 60.0
    assert report(2, f"system enumeration sizes + copy counts ({elapsed:.1f}s)", ok)


# -- criterion 3: the polyhedral classification table -------------------------


def test_criterion_03_polyhedral_table():
    t0 = time.monotonic()
    rows = load_fixture("table1")["rows"]
    recs = {(r.K_name, r.L_size, r.H_name): r for r in polyhedral_records()}
    ok = len(recs) == 15
    for row in rows:
        rec = recs.get((row["K"], row["L"], row["H"]))
        ok &= rec is not None and rec.order == row["order"] \
            and rec.reflections == row["refs"] and rec.orbit_types == row["orbits"]
    G_O, G_T, pairs = the_polyhedral_isomorphism()
    ok &= verify_isomorphism(G_O, G_T, pairs)
    elapsed = time.monotonic() - t0
    ok &= elapsed < 120.0
    assert report(3, f"15 table rows + the explicit isomorphism ({elapsed:.1f}s)", ok)


# -- criterion 4: dicyclic formulas vs explicit counting -----------------------


def test_criterion_04_dicyclic_formulas_explicit():
    ok = True
    for n in range(2, 13):
        K = build_group("dicyclic", n)
        for rec in classify_K(K):
            G = group_for_record(rec)
            explicit_order = len(G.elements)
            explicit_refl = sum(1 for t in G.elements if _is_reflection_triple(K, t))
            ok &= explicit_order == rec.order and explicit_refl == rec.reflections
            if rec.family == "dicyclic":
                nn, a, b, r = rec.label
                ok &= explicit_order == 8 * nn * r
                ok &= explicit_refl == 2 * r + 2 * nn // a + 2 * nn // b - 2
            elif rec.order == 32 * n * n:
                ok &= explicit_refl == 12 * n - 2
            else:
                ok &= rec.order == 16 * n * n and explicit_refl == 8 * n - 2
    assert report(4, "dicyclic orders 8nr / 16n^2 / 32n^2 vs explicit counting", ok)


# -- criteria 5, 6: index-set counting formulas --------------------------------


def test_criterion_05_omega_sets():
    ok = all(len(omega_set(n)) == omega_count_formula(n) for n in range(2, 201))
    ok &= [(i.a, i.b) for i in omega_set(6)] == [(1, 1), (1, 2), (1, 3), (1, 6), (2, 3)]
    assert report(5, "omega sets match the closed formula up to n = 200", ok)


def test_criterion_06_lambda_sets():
    ok = all(len(lambda_set(n)) == lambda_count_formula(n) for n in range(2, 201))
    l6 = lambda_set(6)
    ok &= len(l6) == 7 and sum(1 for q in l6 if q.is_higher) == 2
    assert report(6, "lambda sets match tau(2n^2)/2 + 1 up to n = 200", ok)


# -- criterion 7: the missing-index list ---------------------------------------


def test_criterion_07_missing_index_prefix():
    # The published list omits [14,1,7,4], the p = 7 member of the family
    # [2p,1,p,4] (p odd): it is in Lambda_14, meets every stated criterion
    # ((a,b) != (1,1), r != 2, r does not divide n, r divides 2n) and no line
    # of the five-line table produces it.  The fixture stays as published.
    published = [IndexQuadruple(*row) for row in load_fixture("missing")]
    expected = sorted(published + [IndexQuadruple(14, 1, 7, 4)],
                      key=lambda q: q.as_list())
    got = missing_from_cohen(33)
    ok = got == expected
    report(7, "missing list is the 24 published indices plus [14,1,7,4]", ok)
    assert ok, (
        "computed list differs from the published indices plus [14,1,7,4]: "
        f"{[q.as_list() for q in got]}"
    )


# -- criterion 8: the isomorphic family ----------------------------------------


def test_criterion_08_isomorphic_family():
    ok = True
    for n in (3, 5, 7, 9):
        G1, G2, pairs = the_dicyclic_family_isomorphism(n)
        ok &= verify_isomorphism(G1, G2, pairs)
    for n in (2, 4, 6, 8):
        try:
            IndexQuadruple(n, 1, n, 2)
            ok = False
        except ValueError:
            pass
    assert report(8, "family maps verify for odd n <= 9; none exist for even n", ok)


# -- criterion 9: order scans ----------------------------------------------------


def test_criterion_09_order_scans():
    ok = True
    fixtures = load_fixture("orders")
    for order_str, rows in fixtures.items():
        scan = order_scan(int(order_str))
        got = sorted((r.label_str(), r.reflections, r.L_size, r.H_name) for r in scan)
        want = []
        for row in rows:
            label = row["label"]
            if isinstance(label[0], int):
                label_str = "[" + ",".join(str(v) for v in label) + "]"
            else:
                label_str = f"G_{label[0]}(L{label[1]},{label[2]})"
            want.append((label_str, row["refs"], row["L"], row["H"]))
        ok &= got == sorted(want)
    four = [r for r in order_scan(192) if r.reflections == 22]
    ok &= len(four) == 4
    for r1, r2 in itertools.combinations(four, 2):
        verdict, _ = iso_prescreen(group_for_record(r1), group_for_record(r2))
        ok &= verdict == "distinct"
    assert report(9, "order 48/96/192/384/480 tables + four-192 non-isomorphism", ok)


# -- criterion 10: the corollary search ------------------------------------------


def test_criterion_10_corollary_search():
    pairs_i = corollary_pair_search(1885, "i")
    expected_first = [273, 315, 357, 975, 1001, 1105, 1365, 1885]
    ok = [p.idx1.n for p in pairs_i] == expected_first
    ok &= all(p.c % 2 == 1 for p in pairs_i)
    fixture = load_fixture("type_i_pairs")["pairs"]
    ok &= [[p.idx1.as_list(), p.idx2.as_list()] for p in pairs_i] == fixture
    pairs_ii = corollary_pair_search(12, "ii")
    m2 = next(p for p in pairs_ii if p.idx1.as_list() == [12, 2, 3, 2])
    ok &= m2.idx2.as_list() == [24, 3, 8, 1] and m2.c == 5
    ok &= m2.idx1.order == 192 and m2.idx1.reflections == 22
    ok &= m2.certificate in ("orbit-type multisets differ",
                             "exhausted generator-map search")
    # -16ab discriminant cross-validated against the brute-force oracle
    oracle = {(tuple(a.as_list()), tuple(b.as_list()))
              for a, b in equal_invariant_cross_pairs(60)}
    typed = {(tuple(p.idx1.as_list()), tuple(p.idx2.as_list()))
             for p in corollary_pair_search(60, "ii")}
    family = {((n, 1, n, 2), (2 * n, 2, n, 1)) for n in range(3, 61, 2)}
    ok &= oracle == typed | family
    assert report(10, "corollary pairs: 8 of type (i); type (ii) at m = 2; oracle", ok)


# -- criterion 11: rank-3 groups ---------------------------------------------------


def _rank3_cases():
    cases = []
    for n in range(1, 25):
        cases.append(build_group("cyclic", n))
    for n in range(2, 7):
        cases.append(build_group("dicyclic", n))
    cases.append(build_group("T"))
    return cases


def test_criterion_11_rank3_orders():
    ok = True
    for K in _rank3_cases():
        for H in dict.fromkeys((commutator_subgroup(K),
                                Subgroup(K, tuple(range(K.order))))):
            d = rank_n_group(3, K, H)
            ok &= d.explicit_order == math.factorial(3) * H.order * K.order ** 2
    assert report(11, "rank-3 explicit order equals n!|H||K|^(n-1)", ok)


def test_criterion_11_rank3_reflection_counts():
    # n(|H|-1) diagonal reflections plus C(n,2)|K| transposition-shaped ones
    mismatches = []
    for K in _rank3_cases():
        for H in dict.fromkeys((commutator_subgroup(K),
                                Subgroup(K, tuple(range(K.order))))):
            d = rank_n_group(3, K, H)
            formula = 3 * (H.order - 1) + 3 * K.order
            if d.explicit_reflection_count != formula:
                mismatches.append(
                    (K.name, H.order, d.explicit_reflection_count, formula))
    ok = not mismatches
    report(11, "rank-3 explicit reflection count equals n(|H|-1)+C(n,2)|K|", ok)
    assert ok, (
        "explicit enumeration disagrees with n(|H|-1) + C(n,2)|K|; first "
        f"mismatches (K, |H|, explicit, formula): {mismatches[:4]}"
    )


# -- criterion 12: exact property suites ---------------------------------------------


def test_criterion_12_property_suites():
    ok = True
    # closure idempotence + inverse/square closure
    for tag, n in (("T", None), ("O", None), ("dicyclic", 6)):
        K = build_group(tag, n) if n else build_group(tag)
        for L in enumerate_systems(K):
            members = frozenset(L.members)
            ok &= close_under_circ(K, members) == members
            ok &= all(K.inv[x] in members and K.cayley[x][x] in members
                      for x in L.members)
    # translation equivalence
    T = build_group("T")
    i_T = T.index[Quaternion.unit(4, "i")]
    zeta_T = T.index[Quaternion.from_rationals(4, (Fraction(1, 2),) * 4)]
    A = (i_T, zeta_T)
    L = close_system(T, (0,) + A)
    for x in list(L.members)[:4]:
        seed = {0, x} | {T.cayley[x][a] for a in A}
        xL = close_system(T, tuple(seed))
        ok &= xL.member_set() == {T.cayley[x][y] for y in L.members}
        ok &= systems_equivalent(L, xL)[0]
    # gamma involution + order/count law on a cross-section of groups
    cross = [("T", None, 12, 2), ("T", None, 24, 8), ("O", None, 20, 2),
             ("dicyclic", 6, 16, 2)]
    for tag, n, L_size, H_order in cross:
        K = build_group(tag, n) if n else build_group(tag)
        L = next(S for S in enumerate_systems(K) if S.size == L_size)
        H = next(S for S in normal_subgroups(K)
                 if S.order == H_order and set(S.members) <= L.member_set())
        gamma = induced_quotient_involution(K, L.members, H)
        ok &= all(gamma[gamma[c]] == c for c in H.cosets)
        G = build_reflection_group(K, L, H)
        ok &= G.order == 2 * H.order * K.order
        ok &= G.reflection_count() == 2 * H.order + L.size - 2
    # orbit-size formulas for the dicyclic systems, n <= 12
    for n in range(2, 13):
        D = build_group("dicyclic", n)
        for idx in omega_set(n):
            L = dicyclic_system(DicyclicIndex(n, idx.a, idx.b))
            for side, seed in ((idx.a, dicyclic_element(D, idx.a, 0)),
                               (idx.b, dicyclic_element(D, idx.b, 1))):
                size = len(system_orbit(L, seed))
                expected = 2 * n // side if (n // side) % 2 else n // side
                ok &= size == expected
    assert report(12, "exact property suites (closure/translation/gamma/orbits)", ok)
