"""Finite quaternion groups: constructors, subgroups, automorphisms."""

import hashlib
import itertools
import json
import math
import operator
import random

import pytest

import quatrefl.groups
from quatrefl.exactarith import Quaternion, embedded_circle_element
from quatrefl.groups import (
    POLYHEDRAL_ORDER,
    _close_generators,
    _closure,
    _enlarge,
    _extend_map,
    _generate,
    _orbits,
    _quotient_search,
    _reduced_walk,
    automorphism_group,
    build_group,
    commutator_subgroup,
    element_order_census,
    is_normal,
    normal_subgroups,
    polyhedral_generators,
    quotient_automorphisms,
)
from quatrefl.numutil import prime_factorization, prime_root_of_unity
from quatrefl.refsystems import dicyclic_element, enumerate_systems


def euler_phi(n: int) -> int:
    result = n
    for p in prime_factorization(n):
        result = result // p * (p - 1)
    return result


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
    for tag, n in TABLE_GROUPS + [("I", None)] + [("dicyclic", n) for n in (37, 60, 200)]:
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


def _dense_sort_order(values, orders):
    """The dense-key sort that ``groups._sort_order``'s sparse keys replaced:
    one slot per (component, power) column in use, over the common denominator."""
    scalars = [(q.a, q.b, q.c, q.d) for q in values]
    den = math.lcm(*(s.den for qs in scalars for s in qs))
    cols = sorted({(c, p) for qs in scalars for c, s in enumerate(qs) for p, _ in s.terms})
    col = {cp: i for i, cp in enumerate(cols)}
    keys = []
    for qs in scalars:
        key = [0] * len(cols)
        for c, s in enumerate(qs):
            for p, v in s.terms:
                key[col[c, p]] = v * (den // s.den)
        keys.append(key)
    return sorted(range(len(values)), key=lambda i: (orders[i], keys[i]))


@pytest.mark.parametrize("tag, ns", [
    ("T", [None]), ("O", [None]), ("I", [None]),
    ("cyclic", [*range(1, 121), 200, 273]),
    ("dicyclic", [*range(2, 121), 200, 250, 273, 546]),
])
def test_sparse_sort_keys_order_as_the_dense_keys(tag, ns):
    rng = random.Random(7)
    for n in ns:
        # uncached, so that these builds do not evict the shared cache
        K = build_group.__wrapped__(tag, n) if n else build_group(tag)
        perm = list(range(K.order))
        rng.shuffle(perm)
        values = [K.elements[i] for i in perm]
        # with the true orders, and with all orders equal so that the
        # coefficients alone decide
        for orders in ([K.element_orders[i] for i in perm], [1] * K.order):
            assert quatrefl.groups._sort_order(values, orders) == _dense_sort_order(values, orders), (
                K.name)


# SHA-256 of json.dumps({"group": K.to_json(), "inv": K.inv}, separators=(",", ":")),
# recorded with the dense-vector scalars that the sparse terms replaced: the
# elements, their order, the Cayley table and the inverses are unchanged
GROUP_DIGESTS = {
    "T": "2c02d3f9df36ee022ce70db44bfd80b2eceb01b62fdcb832f6a3b7ec15e61a0a",
    "O": "6695fdc801e5ff664c732048f668f5ab8fecc08658adc80fcd603a9f266769fc",
    "I": "5570d9388e19ccd266e32a4e79ee5829059ff302ae1d869e49f0fa16b3d45b66",
    "C1": "6bef5cd74be3fa998ce5564976efe02d78d29f9cf51da2f41975ee49e5de6146",
    "C2": "6ad52b6430045df6e313f0cd4b090c22f3791bbe0d3769310fc1114626ff7505",
    "C3": "9187d80f1bdbee8983324c7faa7102c1879b1d6ce2f96bd1f05b5a9a749769c1",
    "C4": "83ad1af4b118f930d865b18bcde523a1ab06564361ee447da103712771089351",
    "C5": "5c1c4f0017bdb36ba6a740b3ae96ddf937270f2d275eab664a3a40cdb0b133bb",
    "C6": "9c16992581f69790a8c21e9aa679f2bbb724a3ae53f17b42567c39a9a0d61c76",
    "C7": "51538e41f9a4aa45600dfd6a5d89018952cb3c221cfc4b88ab71eff1ca7fae1e",
    "C8": "45cad60d9f8323cd0933f7e1b0ae372607fa2aa90fb37f0fbcaa44737a15fbc7",
    "C9": "0030d4a7d7a03e5bd2148a434f4de31448743244caf19ce6b5ab5ee4cd2f3ae3",
    "C10": "3bec0b1ad68cdb1130a853df8bc680d245b69aec2b9bad12ca1f615326bbe35e",
    "C11": "d31f19d7551f55e552345b1b833bc73774d27dc7698dfbf23335e2c4a3784d54",
    "C12": "10684c4bc4a1114fb8f85fd31e52f67270777cabc03d6aa51c02d831731ac3a4",
    "D2": "4f46ebf6c66cb4952d6afd0fa786e0b220ed2711cb1a15dc759601e22f8b1811",
    "D3": "d7e7a4b0edcb6581eb12df8a316de4e3b38dbcbde4fc6c229dba6d7c85ac13ab",
    "D4": "35f02fa64acf03674e7dd65ad9079448e0a3caa84a21b1532a7ca792ce2d7492",
    "D5": "3d959155cf56e45fe47ffa92be5c53a9622a3a57fa55afc02dc275861db42b89",
    "D6": "2b6e85ea2ac8de03e47e3ae2c77af665984b1eaeb368ed8b67fedc95e3ea35c5",
    "D7": "56adb70fd71f1f0bde74a16ca02d6f1e288ab2352d152f4ca74051a158001b78",
    "D8": "45c22db107e0603a07c358383f034e7f5126c516a85871114ac1bbe0db55e644",
    "D9": "9b9e42867e003492ccf2c50cc4ce21806a6c3ea481ce924c294a4b98b7ed2db1",
    "D10": "e05feb44f18ae9f7a30283cb00100786867eb5375e8aafcd64b0348252cb37fa",
    "D11": "37595e4872cfa8e38abe968b0badc890cbd27c6ff67234e1496dfff0279d7b00",
    "D12": "8a4e43610c59b2761fff2b072df8d8ad3f411e4ad88d74c7609e281ebe51ff57",
    "D13": "c9e22355217fa88db5d7fec80d86fd7bfdd0d58340c071e0a5811f0f1022f780",
    "D14": "4a6bef0ec949d5405e8ca3f06624f32fc0b04735b6c5120464a05e1b46ed66f6",
    "D15": "79b8bf1abfcb375b353806d2e7ac88181a56f95f0e60c2074bb9da508dfd2dc4",
    "D16": "2193be3df039c1de7ee5741d3f7b0ce6c9e9a8e0a06d94f356bad809b046fcc3",
    "D17": "7b97720ea43a684012f45a34a2c480297d99f715bbd189d0e6099e0e4d645079",
    "D18": "6687c4664d31fc53fa37c0e7fd03ac5d5fe808f6cc4d47ba43a89f293ef913e6",
    "D19": "1e0c78f1cd1ca2e630efd2a28d5b44fe64a7825774975e6f8360bcd29dbdeb1b",
    "D20": "b02f6674c75be521abcf666cb08e7e79d01041a6bf9ba01b22616f4449cddb31",
    "D21": "43e96d7698f14671f5692dd3cad0c63ab6711fa71db6ca5e2c89b7f98bd0180c",
    "D22": "ce5bd0b05fda5032e58a4e78caad3cc6db912115d2765d8b51d321069d29752e",
    "D23": "cc7e4ea554666947e1ff34a5bb0cff37731ddecf7af1634644477afd05f7b4e9",
    "D24": "1a467a16a338c158547ed61f8b4315cf4ce5af94c309231eaf4f06e1a5a706fe",
    "D25": "ffb3839f187d30379f61f9fe10f4a16e70e7a54aa12a97965f849763c38b4038",
    "D26": "d4c778682b7dc25cbf21f62ca4092c7ab491f97d239c95c62dd658f979b1f954",
    "D27": "8f511f8b0d18db822288f728116a4facc9635952a77ef12bb1072bc5478830ad",
    "D28": "575857141e78c46f08c8ae802428e77a987deccf0b62861d5be3fb1fa8e11d0b",
    "D29": "fea480e40f369e503bf8c458c2ffed3019cee33e9cc9f94760af26dcd6512d58",
    "D30": "97c69375bfa23cd1fb0d07da7c0ccb5a944806ac0eff1f5ba6fb0700e4ebc29e",
    "D37": "7750c07b3c68d87335c51b7e4b0eb695138e66e65e889203073199512126b7e7",
    "D105": "955938006470ae7445194a7df7661a757dfd4a385057fa989493a45e72e39f70",
    "D127": "47e35c32375710e58fdb9fa346105c74194f04804b165715c16947ca02cf20aa",
    "D200": "b399aee4faa3e452b1c9e9989ca5105ca3c68e95a15bd04d81dd18d111dea943",
    "D273": "9db573d788118a9312d100cb152b14039b625b17f66e343cd79228080866f6d8",
}


@pytest.mark.parametrize("name", GROUP_DIGESTS)
def test_group_construction_pinned(name):
    tag, n = (name, None) if name in ("T", "O", "I") else (
        {"C": "cyclic", "D": "dicyclic"}[name[0]], int(name[1:]))
    K = build_group(tag, n) if n else build_group(tag)
    blob = json.dumps({"group": K.to_json(), "inv": K.inv}, separators=(",", ":"))
    assert hashlib.sha256(blob.encode()).hexdigest() == GROUP_DIGESTS[name]


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



def test_subgroup_closure_matches_the_all_generators_walk():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(derandomize=True, deadline=None, max_examples=60)
    @hypothesis.given(st.data())
    def matches(data):
        K = build_group(*data.draw(st.sampled_from([("T",), ("O",), ("dicyclic", 6)])))
        seed = data.draw(st.lists(st.integers(0, K.order - 1), max_size=8))
        full = _generate(0, seed, lambda x, g: K.cayley[x][g])[0]
        assert K.subgroup_closure(seed) == tuple(sorted(full))
        calls = []

        def mul(x, g):
            calls.append(None)
            return K.cayley[x][g]

        members, admitted, counts = {0}, [], []
        for g in seed:
            before = len(calls)
            _enlarge(members, admitted, g, mul)
            if len(admitted) > len(counts):
                counts.append(len(calls) - before)
            else:
                assert len(calls) == before
        assert members == set(full)
        assert (members, admitted) == _closure(0, seed, lambda x, g: K.cayley[x][g], len(full))
        if len(full) > 1:  # the bound is on the whole closure
            with pytest.raises(ValueError, match="exceeded bound"):
                _closure(0, seed, lambda x, g: K.cayley[x][g], len(full) - 1)
        # each (member, admitted generator) product is formed at most once
        assert len(calls) <= len(members) * len(admitted)
        # the i-th admission grows H_{i-1} to H_i a right coset of H_{i-1} at a
        # time: |H_{i-1}| products for the first coset, then one per (coset,
        # admitted generator) and |H_{i-1}| - 1 more for each later new coset
        sizes = [len(_generate(0, admitted[:i], lambda x, g: K.cayley[x][g])[0])
                 for i in range(len(admitted) + 1)]
        for i, count in enumerate(counts, 1):
            index = sizes[i] // sizes[i - 1]
            assert count == sizes[i] - sizes[i - 1] + (index - 1) * (i - 1) + 1

    matches()

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
        H = _close_generators("H", tag, n, [K.elements[x] for x in idx], len(members))
        assert set(H.elements) == {K.elements[x] for x in members}
        for a, qa in enumerate(H.elements):
            for b, qb in enumerate(H.elements):
                assert H.elements[H.cayley[a][b]] == qa * qb

    closes()


# polyhedral elements are formed along their words, one product each; cyclic
# and dicyclic ones are read off in closed form, with no product
@pytest.mark.parametrize("tag,n,products", [
    ("T", None, 23), ("O", None, 47), ("I", None, 119), ("dicyclic", 5, 0), ("cyclic", 12, 0)])
def test_build_takes_one_product_per_element_but_the_identity(monkeypatch, tag, n, products):
    calls = []
    mul = Quaternion.__mul__

    def counting(self, other):
        calls.append(None)
        return mul(self, other)

    monkeypatch.setattr(Quaternion, "__mul__", counting)
    build_group.__wrapped__(tag, n)  # uncached, without emptying the shared cache
    assert len(calls) == products


def test_build_group_cache_is_bounded_above_a_session():
    # a library session builds 36 distinct groups, so a bound of 128 evicts
    # none that it reuses; reading the bound builds nothing
    info = build_group.cache_info()
    assert info.maxsize == 128
    assert build_group.cache_info().misses == info.misses


def _build_generators(tag, n):
    """The generators and order that ``build_group`` closes."""
    if tag == "cyclic":
        return [embedded_circle_element(math.lcm(4, n), n, 1)], n
    if tag == "dicyclic":
        return [embedded_circle_element(4 * n, 2 * n, 1), Quaternion.unit(4 * n, "j")], 4 * n
    return polyhedral_generators(tag), POLYHEDRAL_ORDER[tag]


@pytest.mark.parametrize("tag,ns", [
    ("cyclic", range(1, 49)), ("dicyclic", range(2, 61)), ("T", [None]), ("O", [None]), ("I", [None])],
    ids=["C1-C48", "D2-D60", "T", "O", "I"])
def test_reduced_walk_matches_the_exact_walk(tag, ns):
    for n in ns:
        gens, order = _build_generators(tag, n)
        elements, right, word = _generate(Quaternion.one(gens[0].conductor), gens, operator.mul)
        assert _reduced_walk(gens, order) == (right, word), (tag, n)
        assert _word_products(gens, word) == elements, (tag, n)


def _word_products(gens, word):
    """Each element formed once along the word that first reached it, with
    exact products (the build's path for polyhedral groups)."""
    values = [Quaternion.one(gens[0].conductor)]
    for parent, k in word[1:]:
        values.append(values[parent] * gens[k])
    return values


@pytest.mark.parametrize("tag,ns", [
    ("cyclic", range(1, 61)), ("dicyclic", range(2, 61)), ("dicyclic", range(61, 121)), ("dicyclic", [273])],
    ids=["C1-C60", "D2-D60", "D61-D120", "D273"])
def test_closed_form_values_match_the_word_products(tag, ns):
    # the group built from its labels equals, field by field, the walk over
    # the same generators that forms each element as an exact word product
    for n in ns:
        K = build_group.__wrapped__(tag, n)
        W = _close_generators(K.name, tag, n, *_build_generators(tag, n))
        for field in ("name", "tag", "n", "conductor", "elements", "index", "cayley", "inv",
                      "element_orders", "build_gens"):
            assert getattr(K, field) == getattr(W, field), (tag, n, field)


@pytest.mark.parametrize("tag,n", [("cyclic", 12), ("dicyclic", 7)])
def test_label_build_takes_no_walk(monkeypatch, tag, n):
    def walk(*args):
        raise AssertionError("walked")

    monkeypatch.setattr(quatrefl.groups, "_reduced_walk", walk)
    monkeypatch.setattr(quatrefl.groups, "_close_generators", walk)
    assert build_group.__wrapped__(tag, n).order == (n if tag == "cyclic" else 4 * n)


def test_label_build_forms_the_table_once():
    # the traced peak of an uncached D200 build (its field already set up)
    # stays within twice what the built group keeps
    import tracemalloc

    build_group.__wrapped__("dicyclic", 200)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        K = build_group.__wrapped__("dicyclic", 200)
        retained, peak = (v - base for v in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert K.order == 800
    assert peak <= 2 * retained, (peak, retained)


@pytest.mark.parametrize("tag,n", [("cyclic", 6), ("dicyclic", 5), ("T", None), ("I", None)])
def test_reduced_walk_of_the_wrong_order_raises(tag, n):
    gens, order = _build_generators(tag, n)
    for wrong in (order - 1, order + 1, 2 * order):
        with pytest.raises(ArithmeticError):
            _reduced_walk(gens, wrong)


def test_prime_root_of_unity():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(derandomize=True, deadline=None, max_examples=300)
    @hypothesis.given(st.integers(1, 2000))
    def primitive(m):
        p, r = prime_root_of_unity(m)
        assert p > 2 and prime_factorization(p) == {p: 1} and p % m == 1 % m
        assert all(prime_factorization(q) != {q: 1} for q in range(m + 1, p, m) if q % 2)
        assert pow(r, m, p) == 1
        assert all(pow(r, m // q, p) != 1 for q in prime_factorization(m))

    primitive()
    assert prime_root_of_unity(1) == (3, 1) and prime_root_of_unity(4) == (5, 2)


def test_dicyclic_element_matches_the_exact_lookup():
    for n in range(2, 31):
        K = build_group("dicyclic", n)
        j = Quaternion.unit(4 * n, "j")
        for e in range(-2 * n, 4 * n):
            w_e = embedded_circle_element(4 * n, 2 * n, e)
            assert dicyclic_element(K, e, 0) == K.index[w_e], (n, e)
            assert dicyclic_element(K, e, 1) == K.index[w_e * j], (n, e)


def test_element_order_census():
    assert element_order_census(build_group("T")) == {1: 1, 2: 1, 3: 8, 4: 6, 6: 8}
    censO = element_order_census(build_group("O"))
    assert sum(censO.values()) == 48 and censO[8] == 12
    assert element_order_census(build_group("cyclic", 1)) == {1: 1}


def group_contains(outer, inner):
    """True if inner's element set lies in outer's, after lifting conductors."""
    m = math.lcm(outer.conductor, inner.conductor)
    outer_set = {q.lift(m) for q in outer.elements}
    return all(q.lift(m) in outer_set for q in inner.elements)


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


COSET_GROUPS = ([("T", None), ("O", None), ("I", None)]
                + [("cyclic", n) for n in range(1, 13)] + [("dicyclic", n) for n in range(2, 13)])


@pytest.mark.parametrize("tag,n", COSET_GROUPS)
def test_subgroup_owns_its_coset_table(tag, n):
    K = build_group(tag, n) if n else build_group(tag)
    for H in normal_subgroups(K):
        rep, cosets = H.coset_rep, H.cosets
        assert rep == tuple(min(K.cayley[x][h] for h in H.members) for x in range(K.order))
        assert list(cosets) == sorted(set(rep))  # keyed by rep, ascending
        for c, coset in cosets.items():
            assert coset == tuple(sorted(K.cayley[c][h] for h in H.members))
            assert all(rep[x] == c for x in coset)
        assert sum(map(len, cosets.values())) == K.order
        # formed once per subgroup
        assert H.coset_rep is rep and H.cosets is cosets


@pytest.mark.parametrize("tag,n,members", [
    ("cyclic", 4, (0, 2)),            # closes to all of C4
    ("T", None, (0, *range(10, 16))),  # 1 and the six elements of order 4 close to T
    ("dicyclic", 3, (1, 0)),          # {1, -1}, but not ascending
    ("dicyclic", 3, (1,)),            # the identity missing
    ("dicyclic", 3, ()),
    ("dicyclic", 3, (0, 0)),
])
def test_subgroup_refuses_members_that_are_not_an_ascending_subgroup(tag, n, members):
    K = build_group(tag, n)
    with pytest.raises(ValueError, match=f"not an ascending subgroup of {K.name}"):
        quatrefl.groups.Subgroup(K, members)


def test_normality_direct_check():
    for K in (build_group("T"), build_group("dicyclic", 6)):
        for s in normal_subgroups(K):
            members = set(s.members)
            for g in range(K.order):
                assert {K.conj(g, x) for x in members} == members


def _conjugacy_classes_oracle(K):
    """Each class conjugated by every element of K, from its least member."""
    seen = [False] * K.order
    classes = []
    for x in range(K.order):
        if seen[x]:
            continue
        cls = sorted({K.conj(g, x) for g in range(K.order)})
        for y in cls:
            seen[y] = True
        classes.append(tuple(cls))
    return classes


CONJUGACY_GROUPS = ([("T", None), ("O", None), ("I", None)]
                    + [("dicyclic", n) for n in range(2, 31)]
                    + [("cyclic", n) for n in range(1, 25)])


@pytest.mark.parametrize("tag,n", CONJUGACY_GROUPS)
def test_conjugacy_classes_match_the_all_elements_oracle(tag, n):
    # the orbits under conjugation by K.generating_sequence() against the
    # |K|^2 walk they replace
    K = build_group(tag, n) if n else build_group(tag)
    assert K.conjugacy_classes() == _conjugacy_classes_oracle(K)


def _commutator_subgroup_oracle(K):
    """The closure of all |K|^2 commutators a b a^-1 b^-1."""
    cay, inv = K.cayley, K.inv
    return K.subgroup_closure({cay[cay[a][b]][cay[inv[a]][inv[b]]]
                               for a in range(K.order) for b in range(K.order)})


@pytest.mark.parametrize("tag,n", CONJUGACY_GROUPS)
def test_commutator_subgroup_matches_the_all_pairs_oracle(tag, n):
    # the normal closure of the generators' commutators against the closure
    # of every commutator, which it replaces; the conjugation maps are formed once
    K = build_group(tag, n) if n else build_group(tag)
    assert commutator_subgroup(K).members == _commutator_subgroup_oracle(K)
    assert K.conjugation_maps() is K.conjugation_maps()
    assert K.conjugation_maps() == [tuple(K.conj(g, x) for x in range(K.order))
                                    for g in K.generating_sequence()]


def _orbits_oracle(points, maps):
    """Each orbit as the fixpoint of adding every map's images, from each point."""
    orbits = set()
    for p in points:
        orbit = {p}
        while (grown := orbit | {f[x] for f in maps for x in orbit}) != orbit:
            orbit = grown
        orbits.add(tuple(sorted(orbit)))
    return sorted(orbits)


def test_orbits_match_the_fixpoint_oracle():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(derandomize=True, deadline=None, max_examples=200)
    @hypothesis.given(st.data())
    def matches(data):
        n = data.draw(st.integers(1, 12))
        maps = data.draw(st.lists(st.permutations(range(n)), max_size=4))
        if data.draw(st.booleans()):
            maps.insert(data.draw(st.integers(0, len(maps))), list(range(n)))
        points = data.draw(st.lists(st.integers(0, n - 1), max_size=n + 2))
        assert _orbits(points, maps) == _orbits_oracle(points, maps)

    matches()
    assert _orbits(range(3), []) == [(0,), (1,), (2,)]
    assert _orbits([2, 0], [[0, 1, 2]]) == [(0,), (2,)]
    assert _orbits([], [[1, 0]]) == []


CIRC_GROUPS = [("cyclic", 1), ("cyclic", 2), ("T", None), ("O", None), ("I", None)] + [
    ("dicyclic", n) for n in range(2, 31)]


@pytest.mark.parametrize("tag,n", CIRC_GROUPS)
def test_circ_table_matches_the_cayley_oracle(tag, n):
    """Every row of a o b = a b^-1 a that ``circ_row`` gives, and its cache."""
    K = build_group.__wrapped__(tag, n)  # a fresh group, so that its row cache starts empty
    cay, inv = K.cayley, K.inv
    for a in range(K.order):
        assert list(K.circ_row(a)) == [cay[cay[a][inv[b]]][a] for b in range(K.order)], a
        assert K.circ_row(a) is K.circ_row(a)
    assert len(K._circ) == K.order


def _is_normal_oracle(K, members):
    """Conjugation by every element of K keeps the set."""
    S = set(members)
    return all(K.conj(g, x) in S for g in range(K.order) for x in S)


NORMALITY_GROUPS = ([("T", None), ("O", None), ("I", None)]
                    + [("dicyclic", n) for n in range(2, 13)]
                    + [("cyclic", n) for n in range(1, 13)])


@pytest.mark.parametrize("tag,n", NORMALITY_GROUPS)
def test_is_normal_matches_the_all_elements_oracle(tag, n):
    K = build_group(tag, n) if n else build_group(tag)
    cyclic = {K.subgroup_closure([x]) for x in range(K.order)}
    subgroups = cyclic | {K.subgroup_closure(c1 + c2) for c1, c2 in itertools.combinations(cyclic, 2)}
    for members in subgroups:
        assert is_normal(K, members) == _is_normal_oracle(K, members)
    # sets that are not subgroups: conjugacy classes, a class with one member
    # dropped, pairs {1, x} and a subgroup with one coset member added
    rng = random.Random(13)
    sets = list(K.conjugacy_classes())
    sets += [cls[1:] for cls in K.conjugacy_classes() if len(cls) > 1]
    sets += [(0, x) for x in rng.sample(range(K.order), min(K.order, 8))]
    sets += [members + (K.cayley[x][members[-1]],)
             for members in rng.sample(sorted(subgroups), min(len(subgroups), 8))
             for x in rng.sample(range(K.order), 1)]
    for members in sets:
        assert is_normal(K, members) == _is_normal_oracle(K, members)
    # both verdicts occur wherever K is not abelian
    verdicts = {_is_normal_oracle(K, members) for members in sets + sorted(subgroups)}
    assert verdicts == ({True} if tag == "cyclic" else {True, False})


@pytest.mark.parametrize("n", range(3, 13))
def test_j_axis_is_not_normal_in_dicyclic_groups(n):
    K = build_group("dicyclic", n)
    j_axis = K.subgroup_closure([dicyclic_element(K, 0, 1)])
    assert len(j_axis) == 4
    assert not is_normal(K, j_axis) and not _is_normal_oracle(K, j_axis)


def test_generating_sequence_is_a_fresh_list():
    for K in (build_group("T"), build_group("dicyclic", 6), build_group("cyclic", 1)):
        first, second = K.generating_sequence(), K.generating_sequence()
        assert first == second and first is not second
        first.append(0)
        assert K.generating_sequence() == second
        assert len(K.subgroup_closure(second)) == K.order


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


def _quotient_automorphisms_oracle(K, rep):
    """Every same-order choice of generator images that extends to a
    bijective homomorphism of K/H, each candidate extended on its own: the
    reference for the search that extends only involutions and new
    generators."""
    cay = K.cayley
    cosets = sorted(set(rep))

    def mul(c1, c2):
        return rep[cay[c1][c2]]

    orders = {}
    for c in cosets:
        k, y = 1, c
        while y != 0:
            y = mul(y, c)
            k += 1
        orders[c] = k
    gens = [c for c in dict.fromkeys(rep[g] for g in K.generating_sequence()) if c != 0]
    elements, right, _ = _generate(0, gens, mul)
    images = []
    for targets in itertools.product(*([c for c in cosets if orders[c] == orders[g]]
                                       for g in gens)):
        image = _extend_map(right, targets, mul, 0)
        if image is not None and len(set(image)) == len(cosets):
            on_cosets = dict(zip(elements, image))
            images.append(tuple(on_cosets[c] for c in rep))
    return sorted(images)


def _automorphism_count(K):
    """|Aut(K)|, as test_automorphism_counts states it."""
    if K.tag == "cyclic":
        return euler_phi(K.n)
    if K.tag == "dicyclic":
        return 24 if K.n == 2 else 2 * K.n * euler_phi(2 * K.n)
    return {"T": 24, "O": 48, "I": 120}[K.tag]


SEARCH_GROUPS = ([("T", None), ("O", None), ("I", None)]
                 + [("cyclic", n) for n in range(1, 13)]
                 + [("dicyclic", n) for n in range(2, 31)])


@pytest.mark.parametrize("tag,n", SEARCH_GROUPS)
def test_quotient_search_matches_the_extend_every_candidate_oracle(tag, n):
    K = build_group(tag, n) if n else build_group(tag)
    for H in normal_subgroups(K):
        rep = H.coset_rep
        oracle = _quotient_automorphisms_oracle(K, rep)
        assert quotient_automorphisms(H) == oracle
        involutions, generators = _quotient_search(H)
        assert involutions == [g for g in oracle if all(g[g[c]] == c for c in rep)]
        closed = _generate(tuple(rep), generators, lambda phi, g: tuple(g[c] for c in phi))[0]
        assert len(closed) == len(oracle)
        if H.order == 1:
            assert len(closed) == _automorphism_count(K)


def _quotient_search_reference(K, rep):
    """The search that walks every key it does not already know, and every
    involution it knows, by ``_extend_map``: the reference for the search
    that screens unknown keys by the orders of generator products and takes
    the images of known ones along the walk's words."""
    cay = K.cayley
    cosets = sorted(set(rep))

    def mul(c1, c2):
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
    words = {0: ()}
    for c, w in zip(elements[1:], word[1:]):
        words[c] = words[elements[w[0]]] + (w[1],)

    def involutive(key):
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


@pytest.mark.parametrize("tag,n", [("T", None), ("O", None), ("I", None)]
                         + [("dicyclic", n) for n in range(2, 17)]
                         + [("cyclic", n) for n in range(1, 13)])
def test_quotient_search_matches_the_unscreened_reference(tag, n):
    K = build_group(tag, n) if n else build_group(tag)
    for H in normal_subgroups(K):
        assert _quotient_search(H) == _quotient_search_reference(K, H.coset_rep)


def test_quotient_search_walks_only_screened_unknown_keys(monkeypatch):
    # I/C2 = A5 from two generators of order 5: 576 same-order keys, of which
    # 120 are automorphisms (Aut(A5) = S5) and 26 involutions; the unscreened
    # search walks 485 keys
    K = build_group("I")
    H = next(H for H in normal_subgroups(K) if H.order == 2)
    walks = []
    extend = quatrefl.groups._extend_map

    def counting(*args):
        walks.append(None)
        return extend(*args)

    expected = _quotient_search_reference(K, H.coset_rep)
    monkeypatch.setattr(quatrefl.groups, "_extend_map", counting)
    assert _quotient_search(H) == expected
    assert len(walks) == 75


@pytest.mark.parametrize("n", [24, 30])
def test_classification_never_lists_the_automorphism_group(monkeypatch, n):
    from quatrefl.classify import classify_K
    from quatrefl.refsystems import copy_count, subgroup_copy_count, systems_equivalent

    def answers(K):
        systems = enumerate_systems(K)
        return ([rec.to_json() for rec in classify_K(K)],
                [(copy_count(L), subgroup_copy_count(L)) for L in systems],
                [systems_equivalent(L1, L2)[0] for L1 in systems for L2 in systems])

    expected = answers(build_group("dicyclic", n))

    def refuse(*args, **kwargs):
        raise AssertionError("automorphism_group called")

    monkeypatch.setattr(quatrefl.groups, "automorphism_group", refuse)
    K = build_group.__wrapped__("dicyclic", n)  # uncached, so nothing is reused
    assert answers(K) == expected
    assert K._automorphisms is None


def _quotient_automorphisms(K, H_name):
    H = next(H for H in normal_subgroups(K) if H.name == H_name)
    return quotient_automorphisms(H)


@pytest.mark.parametrize("tag,n", [("T", None), ("O", None), ("I", None)]
                         + [("dicyclic", n) for n in range(2, 13)]
                         + [("cyclic", n) for n in range(1, 13)])
def test_quotient_search_with_trivial_h_is_automorphism_group(tag, n):
    K = build_group(tag, n) if n else build_group(tag)
    assert _quotient_automorphisms(K, "1") == automorphism_group(K)


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
        assert tuple(range(K.order)) in set(autos)
        for a in autos:
            assert a[0] == 0
            for x in range(K.order):
                for y in range(K.order):
                    assert a[K.cayley[x][y]] == K.cayley[a[x]][a[y]]
                assert K.element_orders[a[x]] == K.element_orders[x]


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
        assert image in set(automorphism_group(D))
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
    K = build_group("dicyclic", 31)  # order 124
    with pytest.raises(ValueError, match=r"bound 120 exceeded by \|K\| = 124"):
        automorphism_group(K)
