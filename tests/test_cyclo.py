"""Exact cyclotomic arithmetic and character sums."""

import cmath
import random

import pytest

from rscwe import (
    CharacteristicTwoError,
    CyclotomicInt,
    DegenerateQuadraticError,
    InvalidPrimeError,
    MixedCyclotomicOrderError,
    additive_char_sum,
    build_field,
    complex_embedding,
    gauss_sum,
    quadratic_sum,
    root_power,
)


def random_element(rng, p):
    return CyclotomicInt(p, [rng.randint(-9, 9) for _ in range(p - 1)])


def test_constructor_validation():
    with pytest.raises(InvalidPrimeError):
        CyclotomicInt(4, (0, 0, 0))
    with pytest.raises(ValueError):
        CyclotomicInt(3, (1,))


@pytest.mark.parametrize("coeffs", [(1.7, 2), (1, "2"), (True, 0), (1, None)])
def test_constructor_takes_integer_coordinates_only(coeffs):
    # no rounding ever happens: a coordinate is never converted
    with pytest.raises(TypeError):
        CyclotomicInt(3, coeffs)


def test_zero_one_from_int():
    assert CyclotomicInt.zero(5).coeffs == (0, 0, 0, 0)
    assert CyclotomicInt.one(5).coeffs == (1, 0, 0, 0)
    assert CyclotomicInt.from_int(3, -7).coeffs == (-7, 0)


def test_reduction_relation():
    # zeta^(p-1) = -(1 + zeta + ... + zeta^(p-2))
    for p in (2, 3, 5, 7, 11):
        assert root_power(p, p - 1).coeffs == (-1,) * (p - 1)
        total = CyclotomicInt.zero(p)
        for t in range(p):
            total = total + root_power(p, t)
        assert total.is_zero()


def test_root_power_frozen():
    assert root_power(3, 2).coeffs == (-1, -1)
    assert root_power(5, 7) == root_power(5, 2)
    assert root_power(5, 7).coeffs == (0, 0, 1, 0)
    assert root_power(7, 0) == CyclotomicInt.one(7)


def test_root_powers_multiply():
    for p in (2, 3, 5, 7):
        for a in range(p):
            for b in range(p):
                assert root_power(p, a) * root_power(p, b) == root_power(p, a + b)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 13])
def test_ring_axioms_sampled(p):
    rng = random.Random(p)
    for _ in range(300):
        a = random_element(rng, p)
        b = random_element(rng, p)
        c = random_element(rng, p)
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a - b == a + (-b)
        assert (a - a).is_zero()
        assert a * CyclotomicInt.one(p) == a
        assert (a * CyclotomicInt.zero(p)).is_zero()


@pytest.mark.parametrize("p", [3, 5, 7])
def test_conjugation(p):
    rng = random.Random(100 + p)
    for t in range(p):
        assert root_power(p, t).conj() == root_power(p, p - t)
    for _ in range(200):
        a = random_element(rng, p)
        b = random_element(rng, p)
        assert a.conj().conj() == a
        assert (a * b).conj() == a.conj() * b.conj()
        assert (a + b).conj() == a.conj() + b.conj()


def test_int_coercion():
    g = root_power(3, 1)
    assert g * 2 == CyclotomicInt(3, (0, 2))
    assert 1 + g == CyclotomicInt(3, (1, 1))
    assert g - 1 == CyclotomicInt(3, (-1, 1))
    assert 1 - g == CyclotomicInt(3, (1, -1))
    assert g != 1
    assert CyclotomicInt.from_int(3, 4) == 4


def test_pow():
    z = root_power(5, 1)
    assert z**0 == CyclotomicInt.one(5)
    assert z**7 == root_power(5, 2)
    x = CyclotomicInt(3, (1, 2))
    assert x**3 == x * x * x


@pytest.mark.parametrize("e", [True, False, 2.0, -1])
def test_pow_takes_integer_exponents_only(e):
    # a bool is no more an exponent than it is an operand of +
    z = root_power(3, 1)
    with pytest.raises(TypeError):
        z**e


def test_mixed_order_rejected():
    a = root_power(3, 1)
    b = root_power(5, 1)
    with pytest.raises(MixedCyclotomicOrderError):
        a + b
    with pytest.raises(MixedCyclotomicOrderError):
        a * b


def test_complex_embedding_values():
    re, im = complex_embedding(root_power(3, 1))
    assert abs(re + 0.5) < 1e-12
    assert abs(im - (3**0.5) / 2) < 1e-12
    re, im = complex_embedding(CyclotomicInt.from_int(7, 42))
    assert abs(re - 42) < 1e-12 and abs(im) < 1e-12


@pytest.mark.parametrize("p", [3, 5, 11])
def test_complex_embedding_is_multiplicative(p):
    rng = random.Random(p + 1)
    for _ in range(100):
        a = random_element(rng, p)
        b = random_element(rng, p)
        za = complex(*complex_embedding(a))
        zb = complex(*complex_embedding(b))
        zab = complex(*complex_embedding(a * b))
        assert abs(zab - za * zb) < 1e-7 * max(1.0, abs(za) * abs(zb))


FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (2, 4), (5, 2), (3, 3)]

# every prime power q <= 64, for the exact orthogonality sweep
ALL_FIELDS_Q64 = [
    (2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1), (13, 1),
    (2, 4), (17, 1), (19, 1), (23, 1), (5, 2), (3, 3), (29, 1), (31, 1),
    (2, 5), (37, 1), (41, 1), (43, 1), (47, 1), (7, 2), (53, 1), (59, 1),
    (61, 1), (2, 6),
]


@pytest.mark.parametrize("p,m", ALL_FIELDS_Q64)
def test_additive_char_orthogonality(p, m):
    ctx = build_field(p, m)
    q = ctx.q
    assert additive_char_sum(ctx, 0, ctx.elements()) == q
    for b in range(1, q):
        assert additive_char_sum(ctx, b, ctx.elements()).is_zero()
        # dropping x=0 shifts the full-field sum by exactly one
        assert additive_char_sum(ctx, b, range(1, q)) == -1


def test_gauss_sum_gf3_frozen():
    g = gauss_sum(build_field(3, 1))
    # zeta - zeta^2 = 1 + 2*zeta on the power basis
    assert g.coeffs == (1, 2)
    assert g == root_power(3, 1) - root_power(3, 2)
    assert g * g == -3


def test_gauss_sum_gf5():
    g = gauss_sum(build_field(5, 1))
    assert g * g == 5


def test_gauss_sum_embedding_gf3():
    re, im = complex_embedding(gauss_sum(build_field(3, 1)))
    assert abs(re) < 1e-12
    assert abs(im - 3**0.5) < 1e-12


@pytest.mark.parametrize("p,m", [(3, 1), (5, 1), (7, 1), (3, 2), (5, 2), (11, 1), (3, 3), (7, 2)])
def test_gauss_sum_modulus(p, m):
    ctx = build_field(p, m)
    g = gauss_sum(ctx)
    assert g * g.conj() == ctx.q
    eta_minus_one = ctx.quadratic_character(ctx.neg(1))
    assert g * g == eta_minus_one * ctx.q


def test_gauss_sum_char_two():
    with pytest.raises(CharacteristicTwoError):
        gauss_sum(build_field(2, 2))


def test_quadratic_sum_gf3_frozen():
    ctx = build_field(3, 1)
    # sum over c of zeta^(c^2 + 1) = zeta * (zeta - zeta^2) = -2 - zeta
    assert quadratic_sum(ctx, 1, 0, 1).coeffs == (-2, -1)
    assert quadratic_sum(ctx, 1, 0, 1) == root_power(3, 1) * gauss_sum(ctx)


def test_quadratic_sum_validation():
    ctx = build_field(3, 1)
    with pytest.raises(DegenerateQuadraticError):
        quadratic_sum(ctx, 0, 1, 1)
    with pytest.raises(CharacteristicTwoError):
        quadratic_sum(build_field(2, 2), 1, 1, 1)


@pytest.mark.parametrize("p,m", [(3, 1), (5, 1), (3, 2), (7, 1), (11, 1), (5, 2)])
def test_quadratic_sum_identity(p, m):
    # quadratic_sum = G * eta(a2) * zeta^Tr(a0 - a1^2 (4 a2)^(-1))
    ctx = build_field(p, m)
    g = gauss_sum(ctx)
    four = 4 % p
    rng = random.Random(13 * p + m)
    for _ in range(60):
        a2 = rng.randrange(1, ctx.q)
        a1 = rng.randrange(ctx.q)
        a0 = rng.randrange(ctx.q)
        shift = ctx.sub(a0, ctx.mul(ctx.mul(a1, a1), ctx.inv(ctx.mul(four, a2))))
        expected = ctx.quadratic_character(a2) * g * root_power(p, ctx.trace(shift))
        assert quadratic_sum(ctx, a2, a1, a0) == expected


def test_str_and_repr():
    g = CyclotomicInt(5, (1, -1, 0, 3))
    assert str(g) == "1 - z5 + 3*z5^3"
    assert "CyclotomicInt(5" in repr(g)
    assert str(CyclotomicInt.zero(3)) == "0"
