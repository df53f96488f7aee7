"""Classification pipeline: index sets, records, scans, isomorphisms."""

import hashlib
import itertools
import json
import math
import re

import pytest

from quatrefl.groups import automorphism_group, build_group
from quatrefl.golden import load_fixture, suite_isos
from quatrefl.numutil import is_square
from quatrefl.classify import (
    IndexQuadruple,
    _dedup_subgroups,
    _paired_images,
    classify_K,
    corollary_pair_search,
    dicyclic_record,
    dicyclic_special_record,
    find_isomorphisms,
    group_for_record,
    lambda_set,
    order_scan,
    polyhedral_records,
    the_dicyclic_family_isomorphism,
    the_polyhedral_isomorphism,
)
from quatrefl.indices import (
    DicyclicIndex,
    cohen_covered_indices,
    cohen_index,
    lambda_count_formula,
    missing_from_cohen,
    omega_set,
)
from quatrefl.refsystems import copy_count, enumerate_systems, subgroup_copy_count
from quatrefl.refgroups import (
    diagonal_subgroups,
    iso_prescreen,
    model_mul,
    verify_isomorphism,
)
from test_refgroups import model_inv, walked_census


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


def _lambda_set_oracle(n):
    """Lambda_n through the Omega_n pairs, sorted afterwards."""
    out = []
    for idx in omega_set(n):
        a, b = idx.a, idx.b
        out.append(IndexQuadruple(n, a, b, n // (a * b)))
        if (a * b) % 2 == 1:
            out.append(IndexQuadruple(n, a, b, 2 * n // (a * b)))
    out.sort(key=lambda q: (q.n, q.a, q.b, q.r))
    return out


def test_lambda_set_matches_the_omega_oracle():
    for n in range(2, 2001):
        assert lambda_set(n) == _lambda_set_oracle(n)
    for n in (0, 1, -3):
        with pytest.raises(ValueError, match=f"lambda_set needs n >= 2, got {n}"):
            lambda_set(n)


def test_lambda_set_entries_pass_the_validated_construction():
    # lambda_set skips the check; each entry is what the checked
    # constructor builds from the same fields, and that does not raise
    for n in range(2, 301):
        for q in lambda_set(n):
            checked = IndexQuadruple(q.n, q.a, q.b, q.r)
            assert type(q) is IndexQuadruple and tuple(q) == tuple(checked)
            assert q == checked and hash(q) == hash(checked)


def test_omega_set_entries_pass_the_validated_construction():
    # omega_set skips the check too, and lists (a, b) ascending with no sort
    for n in range(2, 301):
        entries = omega_set(n)
        assert entries == sorted(entries, key=lambda idx: (idx.a, idx.b))
        for idx in entries:
            checked = DicyclicIndex(idx.n, idx.a, idx.b)
            assert type(idx) is DicyclicIndex and tuple(idx) == tuple(checked) == (n, idx.a, idx.b)
            assert idx == checked and hash(idx) == hash(checked)


@pytest.mark.parametrize("make, fields, text", [
    (IndexQuadruple, (6, 1, 3, 4), "IndexQuadruple(n=6, a=1, b=3, r=4)"),
    (DicyclicIndex, (6, 1, 3), "DicyclicIndex(n=6, a=1, b=3)"),
])
def test_index_types_are_immutable_tuples(make, fields, text):
    import copy
    import pickle

    idx = make(*fields)
    assert repr(idx) == text and tuple(idx) == fields
    # the frozen dataclass hashed its field tuple, so no set order moves
    assert hash(idx) == hash(fields)
    with pytest.raises(AttributeError):
        idx.a = 2
    with pytest.raises(AttributeError):
        idx.extra = 0
    for twin in (copy.copy(idx), copy.deepcopy(idx), pickle.loads(pickle.dumps(idx))):
        assert type(twin) is make and twin == idx


@pytest.mark.parametrize("make, fields, change", [
    (IndexQuadruple, (6, 1, 3, 4), {"r": 5}),
    (DicyclicIndex, (6, 1, 3), {"b": 4}),
])
def test_index_types_check_make_and_replace(make, fields, change):
    # namedtuple's _replace builds through _make, so both run the check
    idx = make(*fields)
    made = make._make(fields)
    assert type(made) is make and made == idx and hash(made) == hash(idx)
    assert idx._replace() == idx
    with pytest.raises(ValueError):
        idx._replace(**change)
    with pytest.raises(ValueError):
        make._make((idx._asdict() | change).values())


def test_value_types_hash_their_fields_and_refuse_assignment():
    # Subgroup and ReflectionSystem are slotted classes, the other four tuples;
    # each hashes as its field tuple did as a frozen dataclass, so no set or
    # dict order moves
    from quatrefl.groups import normal_subgroups
    from quatrefl.refgroups import generate_from_reflections, reflection_orbit_types

    K = build_group("dicyclic", 3)
    L = enumerate_systems(K)[1]
    H = normal_subgroups(K)[1]
    rec = classify_K(K)[0]
    values = [(H, (K, H.members), "members"), (L, (K, L.generators), "generators")]
    for value, name in [(rec, "order"), (reflection_orbit_types(group_for_record(rec)), "entries"),
                        (corollary_pair_search(100, "ii")[0], "c"),
                        (generate_from_reflections(K, [], L.generators), "elements")]:
        values.append((value, tuple(getattr(value, f) for f in value._fields), name))
    for value, fields, name in values:
        assert hash(value) == hash(fields)
        assert not hasattr(value, "__dict__")
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name))
        with pytest.raises(AttributeError):
            value.extra = 0
    # a twin from the same fields is equal; the coset table and the members
    # are formed from the fields, and are not fields themselves
    twin = type(L)(K, L.generators)
    assert twin == L and hash(twin) == hash(L) and twin.members == L.members
    assert type(H)(K, H.members) == H != L
    moved = rec._replace(iso_partner="x")
    assert type(moved) is type(rec) and moved.iso_partner == "x" and rec.iso_partner is None
    assert moved._replace(iso_partner=None) == rec


def test_lambda_set_entries_are_no_larger_than_checked_ones():
    # an entry whose fields went into a materialised __dict__ would take
    # about twice the memory of one the dataclass __init__ builds
    import tracemalloc

    fields = [[q.as_list() for q in lambda_set(n)] for n in range(2, 301)]

    def traced(build):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            kept = build()
            return tracemalloc.get_traced_memory()[0] - base, kept
        finally:
            tracemalloc.stop()

    unchecked = traced(lambda: [lambda_set(n) for n in range(2, 301)])[0]
    checked = traced(lambda: [[IndexQuadruple(*f) for f in row] for row in fields])[0]
    assert unchecked <= 1.5 * checked, (unchecked, checked)


def _pair_error(n, a, b):
    if not (1 <= a <= b <= n and n % a == 0 and n % b == 0 and math.gcd(a, b) == 1):
        return f"({a},{b}) is not a valid index pair for n={n}"
    return None


def _quadruple_error(n, a, b, r):
    """The message IndexQuadruple(n, a, b, r) raises, or None if it is valid."""
    pair = _pair_error(n, a, b)
    if pair is not None:
        return pair
    prod = a * b * r
    if prod == n or (prod == 2 * n and (a * b) % 2 == 1):
        return None
    return f"[{n},{a},{b},{r}] is not a valid index"


def _raised(make, *args):
    try:
        make(*args)
    except ValueError as exc:
        return str(exc)
    return None


def test_index_validation_matches_the_stated_rules():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    small = st.integers(-2, 40)

    @hypothesis.settings(derandomize=True, deadline=None, max_examples=150)
    @hypothesis.given(small, small, small, small)
    def check(n, a, b, r):
        assert _raised(DicyclicIndex, n, a, b) == _pair_error(n, a, b)
        assert _raised(IndexQuadruple, n, a, b, r) == _quadruple_error(n, a, b, r)

    check()
    # and exhaustively on a small box that holds every valid index with n <= 12
    for n, a, b, r in itertools.product(range(13), range(13), range(13), range(25)):
        assert _raised(IndexQuadruple, n, a, b, r) == _quadruple_error(n, a, b, r)


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


def test_classify_k_builds_fewer_circ_rows_than_elements():
    """classify_K reads the circ rows of seeds and generators only, never all of them."""
    K = build_group.__wrapped__("dicyclic", 30)  # a fresh group, so that its row cache starts empty
    assert len(classify_K(K)) == len(classify_K(build_group("dicyclic", 30)))
    assert 0 < len(K._circ) < K.order


@pytest.mark.parametrize("tag,n", [("O", None), ("dicyclic", 12)])
def test_classify_k_walks_no_quotient_involution(monkeypatch, tag, n):
    """Each record's group comes from the (H, gamma) that enumeration kept."""
    import quatrefl.classify
    import quatrefl.refgroups

    expected = [rec.to_json() for rec in classify_K(build_group(tag, n) if n else build_group(tag))]

    def refuse(*args, **kwargs):
        raise AssertionError("quotient involution walked again")

    for name in ("build_reflection_group", "diagonal_subgroups", "induced_quotient_involution"):
        monkeypatch.setattr(quatrefl.refgroups, name, refuse)
        monkeypatch.setattr(quatrefl.classify, name, refuse, raising=False)
    K = build_group.__wrapped__(tag, n)  # uncached, so nothing is reused
    assert [rec.to_json() for rec in classify_K(K)] == expected


def test_classify_k_caches_its_records_on_k_and_returns_fresh_lists(monkeypatch):
    import quatrefl.classify

    K = build_group.__wrapped__("dicyclic", 6)
    first = classify_K(K)
    expected = list(first)
    first.clear()

    def refuse(*args, **kwargs):
        raise AssertionError("classify_K enumerated again")

    monkeypatch.setattr(quatrefl.classify, "enumerate_systems", refuse)
    second = classify_K(K)
    assert second == expected and second is not classify_K(K)


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


def _group(name):
    if name in ("T", "O", "I"):
        return build_group(name)
    return build_group({"C": "cyclic", "D": "dicyclic"}[name[0]], int(name[1:]))


# sha256 of every system's members, generators and both copy counts, and of
# the classify_K records, as the enumeration over all of Aut(K) produced them
ENUMERATION_DIGESTS = {
    "T": "b7dd702f64047ba0961574b118cc99b5873345a990e12a09610960094dc69724",
    "O": "d6ef4a98c12c37bdd601e8b4659be28ccbb91cf58ce1cdaeb7bfa36ee7f3583e",
    "I": "4b24a95a020f17cd48f786d0c5c3554bff99a66bae6d48016c4a07a6e8f3fcbd",
    "D2": "fab085b6b5f69676de59b2af8a8ee6fce108226b98215d35b3d7d7c626741249",
    "D3": "7e08521c61b04a30a34fd8245f755fc058bbc77bb7cce9fea48e1dd843ef39d6",
    "D4": "b958d24afa76dc7446d6f415c04166b3e1a5a3f4b01768d74b53a76e87352ba4",
    "D5": "1068c8c23d9942b1dfacac82a11bcb9f6bcd00bec1b9b78bd86c9263f18a58c8",
    "D6": "a4e4b183aac78b5badc8464ee1581a0a6fb3d9609567d82a03878697ff45002d",
    "D7": "9843b24bad0689517e9079a4a4d3f4467977e326bc4244eca0ee1c6e32a867a4",
    "D8": "f6471c21a128efc65f36abb495d4a467b0aedaa3327ca677991574010d766b45",
    "D9": "a9bfc55ccdb1e0521631f96aaca8729378ca0965f9176b0d3eb82890d9bb03f2",
    "D10": "e4528a22a485841aa8faba9a88bf582c0f068f19170806f0b3f95f8bdb5891fc",
    "D11": "e58cee34f02bb5e745afa2619565b0fa402f3909d6ef67f8fa0fcc5da779fbda",
    "D12": "dcac065c62e4cb04d2463ac229a5950cbdff38a645683d55de339c9f7c95ffcc",
    "D13": "dbebc378d7a6e394ec35bd050e2be46f91220c1e6eb7af78c24694f7b5a257c3",
    "D14": "bb5e12139a49f2cffe58c5903236f69d958da8f650e4ad9a3af452ece7786d65",
    "D15": "d61a4c1074f7716682ddf19a7aa4a2c023247a8f4f22b05e12bc78847ef68bea",
    "D16": "271a838dca57d171f45d2cd75a6ec1d44bd090f7036af08afe688b67c78e4f55",
    "D17": "7833aee182e135823097c7b1152c4fadfc80b75949fe2e3bc266dd9b1b988786",
    "D18": "3dfa27de93868e22d5e7205b8fd8d8ccc7fb845512cd477b35025cf87237b28f",
    "D19": "e18b1aaddce17a878b2176df1006d9e95e2635ca03b1a6b4b018b0273ac6e275",
    "D20": "a260ead49ff79323c10ab38b98672e97445a033e03ea9fa854d56bffb36aef3c",
    "D21": "cff3b2ec808be2bf79582c2a794c87651361b3b8fd43eae7f1c710a399832deb",
    "D22": "bc40daae9a61cb29064ac69d22d30111385227a341c35a8a0261d6185e129dc9",
    "D23": "3f47431437b2d03977a4f1ca0be858f6224e5d68e67b0b16ec88b35eebdab930",
    "D24": "5de02b37659213e31cd725492e025a56a16cb9b321a00121790eb07e14a3ec6d",
    "D25": "3cc4cb16e87972582f746275c41a8e76b062e3157c06282dcbc482bd01ff7e16",
    "D26": "10434964f71a93efeed6455c59d307a9b3671dd52313edc574ca861ea6229775",
    "D27": "88d4451bce6c9c5f93d6285dcdb0746c1a8a943a346c5934b6964e4323c601e6",
    "D28": "9ab3d6fb0a9f42fd5841584b5f9aee90c74cc581e372140750b6db1655f852bb",
    "D29": "bb96bba6c491b8398dcbf81023589c986a99cff920a62b61f5180d2bbe2dd493",
    "D30": "7ce720f3fbd3912c0cdd7d010c155f3e1b78fca10ff9abd86bb68fa88e00fdee",
    "C1": "8fb7ba1bfbafe80aadcc47aa27274916a0012196fa9ab8f55eb5fae1601f566b",
    "C2": "24e0f3b924b65baf5edb5f7606ae0657c1217af4620819c71b53e0160fe3b0c6",
    "C3": "833c8a52173f847ae11c496b84142b52f744f83f5ebe00710812e7f012a7412d",
    "C4": "c475293782c2b94c11947949a0b5fa6e85a2b9e61b60febe8fe33e954accb566",
    "C5": "6386cc1f721efba6ccbf1367fe4511e6d1fab510d0980d8224c8cd8ab71ed6a3",
    "C6": "ba80bece024a2564779eba8f36b4de652951156770407297f026b91ddad04064",
    "C7": "3313c0795b872efeab312fc775523016ae50bd86e1034d5cfec2fa936974eb4e",
    "C8": "4fc7b93774a9471403c8f7709feac3b7c6a40e34fa7c36f457fda7e992596a0f",
    "C9": "d1ace5c0f03d2a4c38851eeb0f7dcf4aaa880e68b4aaeff37d6296a2a3c56078",
    "C10": "0d0bfb4dc5f9884c1091d657fb528bd91a6e233401919b4501d4ca619c289481",
    "C11": "570cdc499ccd84cec85aa97fc41c89f69eae5f8a7f23390e07ec915103798a1e",
    "C12": "5f288405be7448ecfae340e02cb22f2f70ee11814eee5c3ba6300ecd11205593",
    "C13": "02375ec941648358b759a346d03fecdaf979b02c2942fb2c83972438105a98cc",
    "C14": "76439cea9c575b1930e0b4d1f687ae7b1a12b2105b4ea63af70230124c8502bc",
    "C15": "4cc4bef000438435528733616d5aeb9928e9e8241b6479d0d8219aa87a0e932c",
    "C16": "a5b73f2c37482c18c54720c80f728aed4d4334162eb698b4e4e6c0f3473a44c3",
    "C17": "d33020c8ff95f0d25509cc1a3543b8cb8d324601a36281b3b040cf021e7de4ca",
    "C18": "3a458df27b9a362dc51e61e1f8ed7e7a79ced2b2d5641e92ed9baff310697d32",
    "C19": "b48cf3ecbe42bff53ebcb3745221dff5c57f93ad9c407ed09e61ea84677dc457",
    "C20": "db2c543eb6cf5acc25cfda94202489396a403e46482b9cf50f1965d350936c00",
    "C21": "513822b2f7f03562851baf95b9eed7fee406e1a0c57079e0014c34d2d7842a10",
    "C22": "9641cadf7573ce73181c4a8ae481a425af822ac30784d40f778134137eb65560",
    "C23": "12c77196b281bbc454d9402598ffdf7dabba041dfa7baf93377b969c0e929c25",
    "C24": "3b88014e01211f39b64aecd761b8a7f33e1afe89d62dbdd63a4740cca8a6a202",
}


@pytest.mark.parametrize("name", ENUMERATION_DIGESTS)
def test_enumeration_and_records_pinned(name):
    K = _group(name)
    payload = {
        "systems": [[list(L.members), list(L.generators), copy_count(L), subgroup_copy_count(L)]
                    for L in enumerate_systems(K)],
        "records": [rec.to_json() for rec in classify_K(K)],
    }
    blob = json.dumps(payload, separators=(",", ":"))
    assert hashlib.sha256(blob.encode()).hexdigest() == ENUMERATION_DIGESTS[name]


def _stabilizer(L):
    """The automorphisms that carry L to a member translate of L, listed
    from all of Aut(K)."""
    K = L.parent
    translates = {frozenset(K.cayley[x][y] for y in L.members) for x in L.members}
    return [phi for phi in automorphism_group(K)
            if L.size == K.order or frozenset(phi[t] for t in L.members) in translates]


@pytest.mark.parametrize("name", ENUMERATION_DIGESTS)
def test_subgroup_dedup_matches_the_stabilizer_oracle(name):
    K = _group(name)
    for L in enumerate_systems(K):
        subgroups = diagonal_subgroups(K, L)
        stab = _stabilizer(L)
        seen, kept = set(), []
        for H in subgroups:
            images = {frozenset(phi[h] for h in H.members) for phi in stab}
            assert _paired_images(L, H) == images
            if H.member_set() not in seen:
                kept.append(H)
                seen |= images
        assert _dedup_subgroups(L, subgroups) == kept


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
    cyclic = recs["cyclic"]._replace(iso_partner="x")
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


def test_order_scan_dicyclic_records_match_the_linear_walk():
    # a record [n,a,b,r] has order 8nr, so only n dividing order/8 can reach it
    for order in range(1, 4001):
        linear = []
        n = 2
        while 8 * n <= order:
            if order % (8 * n) == 0:
                r = order // (8 * n)
                linear.extend(dicyclic_record(idx) for idx in lambda_set(n) if idx.r == r)
            n += 1
        scanned = [rec for rec in order_scan(order) if rec.family == "dicyclic"]
        assert scanned == sorted(linear, key=lambda rec: rec.label_str())


def test_order_192_four_groups_pairwise_distinct():
    recs = [r for r in order_scan(192) if r.reflections == 22]
    assert len(recs) == 4
    groups = [group_for_record(r) for r in recs]
    for i in range(4):
        for j in range(i + 1, 4):
            verdict, reasons = iso_prescreen(groups[i], groups[j])
            assert verdict == "distinct", (recs[i].label_str(), recs[j].label_str())


def _conjugacy_class_count(G):
    K, elements = G.K, sorted(G.elements)
    seen, count = set(), 0
    for x in elements:
        if x not in seen:
            count += 1
            seen.update(model_mul(K, model_mul(K, g, x), model_inv(K, g)) for g in elements)
    return count


def test_order_192_four_groups_are_distinct_abstract_groups():
    # class counts and element-order censuses are invariants of the abstract
    # group; the censuses are walked here, apart from the closed form that
    # iso_prescreen counts
    recs = [r for r in order_scan(192) if r.reflections == 22]
    groups = {r.label_str(): group_for_record(r) for r in recs}
    counts = {label: _conjugacy_class_count(G) for label, G in groups.items()}
    assert counts == {"[12,2,3,2]": 36, "[24,3,8,1]": 33, "[6,1,3,4]": 30, "G_O(L20,C2)": 23}
    censuses = {tuple(walked_census(G).items()) for G in groups.values()}
    assert len(censuses) == 4


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


def test_isomorphisms_fixture_polyhedral_pair_is_the_one_found():
    labels = {rec.label_str(): rec.label for rec in polyhedral_records()}
    results = find_isomorphisms(list(polyhedral_records()))
    assert len(results) == 1
    found = {labels[results[0].label1], labels[results[0].label2]}
    assert found == {tuple(label) for label in load_fixture("isomorphisms")["polyhedral_pair"]}


def test_isomorphisms_fixture_family_bound_is_the_one_verified():
    bound = load_fixture("isomorphisms")["dicyclic_family"]["default_bound"]
    checked = [int(m.group(1)) for _, label in suite_isos().lines
               for m in [re.fullmatch(r"G\((\d+),1,\1,2\) ~ .* verified", label)] if m]
    assert checked == list(range(3, bound + 1, 2)) == [3, 5, 7, 9]


def test_explicit_maps_verify():
    G_O, G_T, pairs = the_polyhedral_isomorphism()
    assert verify_isomorphism(G_O, G_T, pairs)
    for n in (3, 5, 7, 9):
        G1, G2, pairs = the_dicyclic_family_isomorphism(n)
        assert verify_isomorphism(G1, G2, pairs)


def test_a_pair_without_a_known_map_is_settled_by_search(monkeypatch):
    # with the known patterns withheld, the order-96 pair goes to the search,
    # and the map the search finds is an isomorphism
    import quatrefl.classify

    search, found = quatrefl.classify.isomorphism_search, []

    def recording(G1, G2):
        found.append((G1, G2, search(G1, G2)))
        return found[-1][2]

    monkeypatch.setattr(quatrefl.classify, "_known_pair", lambda r1, r2: None)
    monkeypatch.setattr(quatrefl.classify, "isomorphism_search", recording)
    results = find_isomorphisms(order_scan(96))
    assert [(r.label1, r.label2, r.map_summary) for r in results] == [
        ("G_O(L14,1)", "G_T(L12,C2)", "search found map on 3 generators")]
    [(G1, G2, pairs)] = [f for f in found if f[2] is not None]
    assert len(pairs) == 3 and verify_isomorphism(G1, G2, pairs)


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


def equal_invariant_cross_pairs(max_n):
    """Brute-force oracle: all index pairs at (n, 2n) with only order-2
    reflections sharing order and reflection count."""
    out = []
    for n in range(2, max_n + 1):
        small = [idx for idx in lambda_set(n) if idx.r == 2]
        large = [idx for idx in lambda_set(2 * n) if idx.r == 1]
        for i1 in small:
            for i2 in large:
                if i1.order == i2.order and i1.reflections == i2.reflections:
                    out.append((i1, i2))
    return out


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
