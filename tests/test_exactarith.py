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


def rat(m, v):
    return FieldScalar.from_rational(m, v)


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
            if not y.is_zero():
                assert (x * y) / y == x


def test_field_inverse_round_trip():
    x = FieldScalar.sqrt2(8) + rat(8, Fraction(1, 3))
    assert x * x.inverse() == FieldScalar.one(8)
    with pytest.raises(ZeroDivisionError):
        FieldScalar.zero(8).inverse()


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


def test_inverse_examples():
    m = 4
    i = Quaternion.unit(m, "i")
    assert i.inverse() == -i
    zeta = Quaternion.from_rationals(m, (Fraction(1, 2),) * 4)
    inv = zeta.inverse()
    assert zeta * inv == Quaternion.one(m)
    assert inv == zeta.conjugate()
    assert Quaternion.one(m).inverse() == Quaternion.one(m)
    with pytest.raises(ZeroDivisionError):
        Quaternion.zero(m).inverse()


def test_is_unit():
    h = FieldScalar.sqrt2(8) * rat(8, Fraction(1, 2))
    q = Quaternion(h, h, FieldScalar.zero(8), FieldScalar.zero(8))
    assert q.is_unit()
    assert not Quaternion.from_rationals(4, (1, 1, 0, 0)).is_unit()
    assert not Quaternion.zero(4).is_unit()


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
    assert w.is_unit()


def test_lift_preserves_arithmetic():
    zeta = Quaternion.from_rationals(4, (Fraction(1, 2),) * 4)
    lifted = zeta.lift(8)
    assert lifted * lifted == (zeta * zeta).lift(8)


def test_json_round_trip():
    h = FieldScalar.sqrt2(8) * rat(8, Fraction(1, 2))
    q = Quaternion(h, -h, FieldScalar.zero(8), rat(8, Fraction(2, 3)))
    blob = json.dumps(q.to_json())
    assert Quaternion.from_json(json.loads(blob)) == q


def test_rendering_named_radicals():
    assert FieldScalar.sqrt5(20).render() == "√5"
    tau = (FieldScalar.one(20) + FieldScalar.sqrt5(20)) * rat(20, Fraction(1, 2))
    assert "√5" in tau.render()
    zeta = Quaternion.from_rationals(4, (Fraction(1, 2),) * 4)
    assert zeta.render() == "1/2 + 1/2*i + 1/2*j + 1/2*k"
    assert Quaternion.zero(4).render() == "0"
