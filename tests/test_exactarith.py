"""Exact field and quaternion arithmetic."""

import json
import random
from fractions import Fraction

import pytest

from quatrefl.exactarith import (
    FieldScalar,
    Quaternion,
    cyclotomic_polynomial,
    embedded_circle_element,
)
from quatrefl.numutil import divisors


def is_unit(q: Quaternion) -> bool:
    return q.norm() == FieldScalar.one(q.conductor)


def rat(m, v):
    return FieldScalar.from_rational(m, v)


def scalar_from_json(data: dict) -> FieldScalar:
    """The scalar that ``FieldScalar.to_json`` wrote."""
    coeffs = [Fraction(n, d) for n, d in data["coeffs"]]
    return FieldScalar.from_fractions(data["conductor"], coeffs)


def quaternion_from_json(data: dict) -> Quaternion:
    """The quaternion that ``Quaternion.to_json`` wrote."""
    m = data["conductor"]
    scalars = [
        FieldScalar.from_fractions(m, [Fraction(n, d) for n, d in comp])
        for comp in data["coeffs"]
    ]
    return Quaternion(*scalars)


def test_root_of_unity_defining_properties():
    z4 = FieldScalar.root_of_unity(4, 1)
    assert z4 * z4 == rat(4, -1)
    s = FieldScalar.root_of_unity(8, 1) + FieldScalar.root_of_unity(8, -1)
    assert s * s == rat(8, 2)
    assert FieldScalar.root_of_unity(1, 0) == rat(1, 1)


@pytest.mark.parametrize("m", range(1, 25))
def test_cyclotomic_polynomial_kills_zeta(m):
    z = FieldScalar.root_of_unity(m, 1)
    acc = FieldScalar.zero(m)
    power = FieldScalar.one(m)
    for c in cyclotomic_polynomial(m):
        acc = acc + power * rat(m, c)
        power = power * z
    assert acc.is_zero()


def _divide(num, den):
    """The quotient of an exact long division by the monic ``den``, over its nonzero terms."""
    num, deg = list(num), len(den) - 1
    terms = [(k, c) for k, c in enumerate(den) if c]
    out = [0] * (len(num) - deg)
    for i in range(len(num) - 1, deg - 1, -1):
        c = out[i - deg] = num[i]
        if c:
            for k, dc in terms:
                num[i - deg + k] -= c * dc
    assert not any(num[:deg]), "non-exact division"
    return out


def _cyclotomic_by_every_divisor(m, memo):
    """Phi_m as x^m - 1 divided by Phi_d for every proper divisor d of m, the
    largest first (so that the dividend shrinks fastest)."""
    if m not in memo:
        poly = [-1] + [0] * (m - 1) + [1]
        for d in divisors(m)[-2::-1]:
            poly = _divide(poly, _cyclotomic_by_every_divisor(d, memo))
        memo[m] = tuple(poly)
    return memo[m]


def test_cyclotomic_polynomial_matches_the_divisor_oracle():
    memo = {}
    for m in range(1, 1201):
        assert cyclotomic_polynomial(m) == _cyclotomic_by_every_divisor(m, memo), m
    with pytest.raises(ValueError):
        cyclotomic_polynomial(0)


def test_cyclotomic_polynomials_of_the_divisors_multiply_to_x_m_minus_1():
    for m in range(1, 401):
        prod = [1]
        for d in divisors(m):
            poly = cyclotomic_polynomial(d)
            out = [0] * (len(prod) + len(poly) - 1)
            for i, a in enumerate(prod):
                if a:
                    for j, b in enumerate(poly):
                        out[i + j] += a * b
            prod = out
        assert prod == [-1] + [0] * (m - 1) + [1], m


def _circle_by_products(m, order, k):
    """cos + sin*i formed with field products: (z + z^-1)/2 and (z - z^-1)(-i)/2."""
    z = FieldScalar.root_of_unity(m, k * (m // order))
    zbar = FieldScalar.root_of_unity(m, -k * (m // order))
    half = rat(m, Fraction(1, 2))
    re = (z + zbar) * half
    im = (z - zbar) * (-FieldScalar.root_of_unity(m, m // 4)) * half
    return Quaternion(re, im, rat(m, 0), rat(m, 0))


def test_embedded_circle_element_matches_the_product_formula():
    for m in range(4, 121, 4):
        for order in divisors(m):
            for k in range(-1, order + 1):
                assert embedded_circle_element(m, order, k) == _circle_by_products(m, order, k), (m, order, k)
    with pytest.raises(ValueError):
        embedded_circle_element(6, 3, 1)
    with pytest.raises(ValueError):
        embedded_circle_element(8, 3, 1)


def test_sqrt5_square():
    f = FieldScalar.sqrt5(20)
    assert f * f == rat(20, 5)


def test_add_mul_cancellation_random():
    rng = random.Random(20240)
    for m in (4, 8, 12, 20):
        phi = len(FieldScalar.zero(m).nums)
        for _ in range(25):
            x = FieldScalar.from_fractions(
                m, [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(phi)])
            y = FieldScalar.from_fractions(
                m, [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(phi)])
            assert (x + y) - y == x


def test_conductor_mismatch_rejected():
    with pytest.raises(ValueError):
        rat(4, 1) + rat(8, 1)
    with pytest.raises(ValueError):
        Quaternion.one(4) * Quaternion.one(8)


def test_quaternion_units():
    m = 4
    i, j, k = (Quaternion.unit(m, a) for a in "ijk")
    assert i * j == k
    assert j * k == i
    assert k * i == j
    assert i * i == -Quaternion.one(m)
    assert i * j * k == -Quaternion.one(m)


def test_half_integer_element_powers():
    zeta = Quaternion.from_rationals(4, (Fraction(1, 2),) * 4)
    assert zeta * zeta == Quaternion.from_rationals(
        4, (Fraction(-1, 2), Fraction(1, 2), Fraction(1, 2), Fraction(1, 2)))
    assert zeta ** 3 == -Quaternion.one(4)
    assert zeta ** 6 == Quaternion.one(4)


def test_sqrt2_rotation_squares_to_i():
    h = FieldScalar.sqrt2(8) * rat(8, Fraction(1, 2))
    q = Quaternion(h, h, FieldScalar.zero(8), FieldScalar.zero(8))
    assert q * q == Quaternion.unit(8, "i")


def test_no_division_and_no_negative_powers():
    # a unit's inverse is its conjugate; the arithmetic offers ring operations only
    zeta = Quaternion.from_rationals(4, (Fraction(1, 2),) * 4)
    assert zeta * zeta.conjugate() == Quaternion.one(4)
    assert zeta ** 0 == Quaternion.one(4)
    for exp in (-1, -6):
        with pytest.raises(ValueError, match="negative exponent"):
            zeta ** exp
    with pytest.raises(TypeError):
        rat(4, 1) / rat(4, 2)
    with pytest.raises(TypeError):
        rat(4, 2) ** 2


def test_is_unit():
    h = FieldScalar.sqrt2(8) * rat(8, Fraction(1, 2))
    q = Quaternion(h, h, FieldScalar.zero(8), FieldScalar.zero(8))
    assert is_unit(q)
    assert not is_unit(Quaternion.from_rationals(4, (1, 1, 0, 0)))
    assert not is_unit(Quaternion.zero(4))


def test_norm_multiplicative_on_unit_group():
    # random walk through the order-120 unit group
    from quatrefl.groups import build_group

    I = build_group("I")
    rng = random.Random(7)
    for _ in range(100):
        p = I.elements[rng.randrange(I.order)]
        q = I.elements[rng.randrange(I.order)]
        assert (p * q).norm() == p.norm() * q.norm()


def test_conjugation_antihomomorphism():
    rng = random.Random(11)
    for _ in range(50):
        p = Quaternion.from_rationals(4, [Fraction(rng.randint(-3, 3), 2) for _ in range(4)])
        q = Quaternion.from_rationals(4, [Fraction(rng.randint(-3, 3), 2) for _ in range(4)])
        assert (p * q).conjugate() == q.conjugate() * p.conjugate()


def test_embedded_circle_element_order():
    w = embedded_circle_element(24, 12, 1)
    assert w ** 12 == Quaternion.one(24)
    assert w ** 6 == -Quaternion.one(24)
    assert is_unit(w)


def test_lift_preserves_arithmetic():
    zeta = Quaternion.from_rationals(4, (Fraction(1, 2),) * 4)
    lifted = zeta.lift(8)
    assert lifted * lifted == (zeta * zeta).lift(8)


def test_json_round_trip():
    h = FieldScalar.sqrt2(8) * rat(8, Fraction(1, 2))
    q = Quaternion(h, -h, FieldScalar.zero(8), rat(8, Fraction(2, 3)))
    blob = json.dumps(q.to_json())
    assert quaternion_from_json(json.loads(blob)) == q


def test_rendering_named_radicals():
    assert FieldScalar.sqrt5(20).render() == "√5"
    tau = (FieldScalar.one(20) + FieldScalar.sqrt5(20)) * rat(20, Fraction(1, 2))
    assert "√5" in tau.render()
    zeta = Quaternion.from_rationals(4, (Fraction(1, 2),) * 4)
    assert zeta.render() == "1/2 + 1/2*i + 1/2*j + 1/2*k"
    assert Quaternion.zero(4).render() == "0"


# conductors with phi(m) <= 16; each lifts into the larger conductor beside it
SMALL_CONDUCTORS = [(1, 3), (3, 12), (4, 8), (5, 20), (8, 24), (12, 24), (20, 40), (24, 48)]


def _scalar(st, m):
    # any integer combination of zeta_m^0 .. zeta_m^(m-1), so reduction is exercised
    nums = st.lists(st.integers(-6, 6), min_size=1, max_size=m)
    return st.builds(lambda ns, d: FieldScalar(m, ns, d), nums, st.integers(1, 6))


def test_field_scalar_laws_in_small_conductors():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(derandomize=True, deadline=None, max_examples=80)
    @hypothesis.given(st.data())
    def laws(data):
        m, big_m = data.draw(st.sampled_from(SMALL_CONDUCTORS))
        a, b, c = (data.draw(_scalar(st, m)) for _ in range(3))
        assert (a + b) + c == a + (b + c) and (a * b) * c == a * (b * c)
        assert a + b == b + a and a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert (a + b).lift(big_m) == a.lift(big_m) + b.lift(big_m)
        assert (a * b).lift(big_m) == a.lift(big_m) * b.lift(big_m)

    laws()


def test_field_scalar_sparse_products_in_conductor_800():
    # D200's field: phi(800) = 320, elements with a few roots of unity
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    m = 800
    coeffs = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
    terms = st.lists(st.tuples(coeffs, st.integers(0, m - 1)), min_size=1, max_size=3)

    def sparse(pairs):
        total = FieldScalar.zero(m)
        for coeff, k in pairs:
            total = total + FieldScalar.from_rational(m, coeff) * FieldScalar.root_of_unity(m, k)
        return total

    @hypothesis.settings(derandomize=True, deadline=None, max_examples=30)
    @hypothesis.given(terms, terms, terms)
    def products(ta, tb, tc):
        a, b, c = sparse(ta), sparse(tb), sparse(tc)
        left, right = (a * b) * c, a * (b * c)
        assert left == right and hash(left) == hash(right)
        assert a * b == b * a and hash(a * b) == hash(b * a)
        again = sparse(ta[::-1])
        assert again == a and hash(again) == hash(a)

    products()


# sparse Phi_m (20, 800) and dense Phi_m (148 = 4*37, 236 = 4*59, and the
# 33 terms of Phi_420 = Phi_(4*105)); each lifts into 3m, where
# zeta_m^i = zeta_3m^(3i) needs reducing mod Phi_3m
ORACLE_CONDUCTORS = [(20, 60), (800, 2400), (148, 444), (236, 708), (420, 1260)]


def _dense_reduce(m, coeffs):
    """Schoolbook reduction of a dense coefficient list by long division by Phi_m."""
    poly = cyclotomic_polynomial(m)
    phi = len(poly) - 1
    nonzero = [(k, c) for k, c in enumerate(poly) if c]
    coeffs = list(coeffs)
    for i in range(len(coeffs) - 1, phi - 1, -1):
        top = coeffs[i]
        if top:
            for k, c in nonzero:
                coeffs[i - phi + k] -= top * c
    return (coeffs + [0] * phi)[:phi]


def _dense_fractions(m, coeffs, den):
    return [Fraction(v, den) for v in _dense_reduce(m, coeffs)]


def _sparse_scalar(st, m):
    # a few roots of unity with small coefficients, as the groups' elements are
    terms = st.lists(st.tuples(st.integers(0, m - 1), st.integers(-6, 6)), max_size=5)
    dens = st.integers(-6, 6).filter(bool)
    return st.tuples(st.just(m), terms, dens)


def _raw(m, terms):
    raw = [0] * m
    for p, v in terms:
        raw[p] += v
    return raw


def test_sparse_arithmetic_matches_dense_oracle():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(derandomize=True, deadline=None, max_examples=80)
    @hypothesis.given(st.data())
    def agrees(data):
        m, big_m = data.draw(st.sampled_from(ORACLE_CONDUCTORS))
        (_, ta, da), (_, tb, db) = (data.draw(_sparse_scalar(st, m)) for _ in range(2))
        a, b = FieldScalar(m, _raw(m, ta), da), FieldScalar(m, _raw(m, tb), db)
        # the constructor reduces any dense input as long division does
        assert list(a.coeffs()) == _dense_fractions(m, _raw(m, ta), da)
        # the product: schoolbook convolution of the dense forms, then reduction
        conv = [0] * (2 * len(a.nums) - 1)
        for i, x in enumerate(a.nums):
            for j, y in enumerate(b.nums):
                conv[i + j] += x * y
        assert list((a * b).coeffs()) == _dense_fractions(m, conv, a.den * b.den)
        # the lift: zeta_m^i = zeta_M^(i*M/m), then reduction mod Phi_M
        step = big_m // m
        spread = [0] * ((len(a.nums) - 1) * step + 1)
        for i, x in enumerate(a.nums):
            spread[i * step] = x
        assert list(a.lift(big_m).coeffs()) == _dense_fractions(big_m, spread, a.den)
        # the dense form and JSON round-trip to the same scalar and hash
        again = FieldScalar(m, a.nums, a.den)
        assert again == a and hash(again) == hash(a)
        back = scalar_from_json(json.loads(json.dumps(a.to_json())))
        assert back == a and hash(back) == hash(a)

    agrees()


def _hamilton(p, q):
    """The Hamilton product as 16 scalar products and 12 sums, one operation at a time."""
    a1, b1, c1, d1 = p.a, p.b, p.c, p.d
    a2, b2, c2, d2 = q.a, q.b, q.c, q.d
    return Quaternion(
        a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
        a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
        a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
        a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2,
    )


# sparse Phi_m (4, 8, 20, 800) and dense Phi_m (116 = 4*29, 420 = 4*105)
PRODUCT_CONDUCTORS = [4, 8, 20, 800, 116, 420]


def _sparse_quaternion(data, st, m):
    # each component has its own denominator, and an empty term list is zero
    parts = [data.draw(_sparse_scalar(st, m)) for _ in range(4)]
    return Quaternion(*(FieldScalar(m, _raw(m, terms), den) for _, terms, den in parts))


def test_quaternion_product_matches_hamilton_oracle():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(derandomize=True, deadline=None, max_examples=120)
    @hypothesis.given(st.data())
    def agrees(data):
        m = data.draw(st.sampled_from(PRODUCT_CONDUCTORS))
        p, q = _sparse_quaternion(data, st, m), _sparse_quaternion(data, st, m)
        for x, y in ((p, q), (q, p), (p, p), (p, Quaternion.zero(m))):
            fused, oracle = x * y, _hamilton(x, y)
            assert fused == oracle and hash(fused) == hash(oracle)
        norm = p.a * p.a + p.b * p.b + p.c * p.c + p.d * p.d
        assert p.norm() == norm and hash(p.norm()) == hash(norm)
        other = p.lift(2 * m)
        with pytest.raises(ValueError):
            p * other
        with pytest.raises(ValueError):
            other * p
        with pytest.raises(ValueError):
            p.a * other.a

    agrees()
