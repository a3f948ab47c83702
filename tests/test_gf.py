"""Field construction and arithmetic."""

import hashlib
import operator
import random
import time

import pytest

from rscwe import (
    DEFAULT_MAX_Q,
    CharacteristicTwoError,
    FieldContext,
    InvalidPrimeError,
    ParameterOutOfRangeError,
    SizeLimitError,
    build_field,
)
from rscwe.gf import _digits, _ppowmod, _prime_factors, is_prime, min_weight_modulus

# Frozen from an independent scan: monic degree-m polynomials in ascending
# coefficient-code order, first one that sympy's GF(p) irreducibility test
# accepts.
CANONICAL_MODULI = {
    (2, 1): (0, 1),
    (2, 2): (1, 1, 1),
    (2, 3): (1, 1, 0, 1),
    (2, 4): (1, 1, 0, 0, 1),
    (2, 8): (1, 1, 0, 1, 1, 0, 0, 0, 1),
    (3, 1): (0, 1),
    (3, 2): (1, 0, 1),
    (3, 3): (1, 2, 0, 1),
    (3, 7): (2, 0, 1, 0, 0, 0, 0, 1),
    (5, 1): (0, 1),
    (5, 2): (2, 0, 1),
    (5, 4): (2, 0, 0, 0, 1),
    (7, 3): (2, 0, 0, 1),
    (11, 2): (1, 0, 1),
    (13, 3): (2, 0, 0, 1),
}


def naive_is_irreducible(f, p):
    """Trial division by every monic polynomial of degree <= deg(f)/2."""
    m = len(f) - 1

    def poly_rem(a, b):
        a = list(a)
        while len(a) >= len(b):
            c = a[-1]
            if c:
                off = len(a) - len(b)
                for i in range(len(b) - 1):
                    a[off + i] = (a[off + i] - c * b[i]) % p
            a.pop()
        while a and a[-1] == 0:
            a.pop()
        return a

    for d in range(1, m // 2 + 1):
        for code in range(p**d):
            coeffs = []
            v = code
            for _ in range(d):
                coeffs.append(v % p)
                v //= p
            g = coeffs + [1]
            if not poly_rem(f, g):
                return False
    return True


@pytest.mark.parametrize("p,m", sorted(CANONICAL_MODULI))
def test_canonical_modulus_frozen(p, m):
    assert min_weight_modulus(p, m) == CANONICAL_MODULI[(p, m)]


def _all_fields(max_q):
    return [
        (p, m)
        for p in range(2, max_q + 1)
        if is_prime(p)
        for m in range(1, max_q.bit_length())
        if p**m <= max_q
    ]


# SHA-256 of one line "p m c_0 ... c_m" per field with q <= 4096, in (p, m)
# order: every element code, and so every output, depends on the modulus
ALL_MODULI_SHA256 = "9188a8ad48d0dd17150f7ee599f765340d0fcdb08ab3095cc99dc2664d44aa14"


def test_canonical_moduli_digest():
    fields = _all_fields(4096)
    assert len(fields) == 604
    text = "".join(
        f"{p} {m} {' '.join(map(str, min_weight_modulus(p, m)))}\n" for p, m in fields
    )
    assert hashlib.sha256(text.encode()).hexdigest() == ALL_MODULI_SHA256


@pytest.mark.parametrize("p,m", [(2, 4), (3, 3), (5, 2), (7, 2)])
def test_canonical_modulus_is_minimal(p, m):
    # every smaller-coded monic polynomial must be reducible
    chosen = min_weight_modulus(p, m)
    chosen_code = sum(c * p**i for i, c in enumerate(chosen[:m]))
    assert naive_is_irreducible(list(chosen), p)
    for code in range(chosen_code):
        coeffs = []
        v = code
        for _ in range(m):
            coeffs.append(v % p)
            v //= p
        assert not naive_is_irreducible(coeffs + [1], p)


def test_build_field_validation():
    with pytest.raises(InvalidPrimeError):
        build_field(4, 1)
    with pytest.raises(InvalidPrimeError):
        build_field(1, 1)
    with pytest.raises(InvalidPrimeError):
        build_field(-3, 1)
    with pytest.raises(ParameterOutOfRangeError):
        build_field(2, 0)
    with pytest.raises(SizeLimitError) as refused:
        build_field(2, 13)  # 8192 > 4096
    assert refused.value.budget == DEFAULT_MAX_Q
    with pytest.raises(SizeLimitError):
        build_field(67, 2)


def test_basic_attributes():
    ctx = build_field(3, 2)
    assert (ctx.p, ctx.m, ctx.q) == (3, 2, 9)
    assert ctx.modulus_text() == "x^2 + 1"
    assert list(ctx.elements()) == list(range(9))


def test_fields_compare_by_value():
    ctx = build_field(3, 2)
    assert ctx == build_field(3, 2) and hash(ctx) == hash(build_field(3, 2))
    # x^2 + x + 2 is irreducible over F_3 too, but not the canonical modulus
    assert FieldContext(3, 2, (2, 1, 1)) != ctx
    assert ctx != build_field(2, 3) and ctx != (3, 2, (1, 0, 1))


SMALL_FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)]
BIG_FIELDS = [(2, 4), (5, 2), (3, 3), (7, 2), (2, 5)]


@pytest.mark.parametrize("p,m", SMALL_FIELDS)
def test_field_axioms_exhaustive(p, m):
    ctx = build_field(p, m)
    q = ctx.q
    for a in range(q):
        assert ctx.add(a, 0) == a
        assert ctx.mul(a, 1) == a
        assert ctx.mul(a, 0) == 0
        assert ctx.add(a, ctx.neg(a)) == 0
        for b in range(q):
            assert ctx.add(a, b) == ctx.add(b, a)
            assert ctx.mul(a, b) == ctx.mul(b, a)
            assert ctx.sub(a, b) == ctx.add(a, ctx.neg(b))
            for c in range(q):
                assert ctx.add(ctx.add(a, b), c) == ctx.add(a, ctx.add(b, c))
                assert ctx.mul(ctx.mul(a, b), c) == ctx.mul(a, ctx.mul(b, c))
                assert ctx.mul(a, ctx.add(b, c)) == ctx.add(
                    ctx.mul(a, b), ctx.mul(a, c)
                )


@pytest.mark.parametrize("p,m", BIG_FIELDS)
def test_field_axioms_sampled(p, m):
    ctx = build_field(p, m)
    rng = random.Random(1000 * p + m)
    for _ in range(10_000):
        a = rng.randrange(ctx.q)
        b = rng.randrange(ctx.q)
        c = rng.randrange(ctx.q)
        assert ctx.add(a, b) == ctx.add(b, a)
        assert ctx.mul(a, b) == ctx.mul(b, a)
        assert ctx.mul(ctx.mul(a, b), c) == ctx.mul(a, ctx.mul(b, c))
        assert ctx.mul(a, ctx.add(b, c)) == ctx.add(ctx.mul(a, b), ctx.mul(a, c))
        assert ctx.sub(a, b) == ctx.add(a, ctx.neg(b))


@pytest.mark.parametrize("p,m", SMALL_FIELDS + BIG_FIELDS)
def test_inverses(p, m):
    ctx = build_field(p, m)
    for a in range(1, ctx.q):
        inv = ctx.inv(a)
        assert ctx.mul(a, inv) == 1
    with pytest.raises(ZeroDivisionError):
        ctx.inv(0)


def test_char_two_mul_example():
    ctx = build_field(2, 2)
    # the generator (code 2) squares to itself plus one
    assert ctx.mul(2, 2) == 3
    assert ctx.mul(2, 3) == 1


@pytest.mark.parametrize("p,m", SMALL_FIELDS + BIG_FIELDS)
def test_pow(p, m):
    ctx = build_field(p, m)
    rng = random.Random(7 * p + m)
    for _ in range(200):
        a = rng.randrange(ctx.q)
        e = rng.randrange(0, 3 * ctx.q)
        acc = 1
        for _ in range(e):
            acc = ctx.mul(acc, a)
        assert ctx.pow(a, e) == acc
    for a in range(1, ctx.q):
        assert ctx.pow(a, ctx.q - 1) == 1
        assert ctx.pow(a, -1) == ctx.inv(a)
    for a in range(ctx.q):
        assert ctx.pow(a, ctx.q) == a


@pytest.mark.parametrize("p,m", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (5, 2)])
def test_trace(p, m):
    ctx = build_field(p, m)
    q = ctx.q
    for x in range(q):
        assert 0 <= ctx.trace(x) < p
        assert ctx.trace(ctx.pow(x, p)) == ctx.trace(x)
    for x in range(q):
        for y in range(q):
            lhs = ctx.trace(ctx.add(x, y))
            assert lhs == (ctx.trace(x) + ctx.trace(y)) % p
    # trace is balanced: each value of F_p is hit q/p times
    hits = [0] * p
    for x in range(q):
        hits[ctx.trace(x)] += 1
    assert hits == [q // p] * p


def test_trace_gf4_frozen():
    ctx = build_field(2, 2)
    assert [ctx.trace(x) for x in range(4)] == [0, 0, 1, 1]


def test_trace_prime_field_is_identity():
    ctx = build_field(5, 1)
    assert [ctx.trace(x) for x in range(5)] == [0, 1, 2, 3, 4]


def test_quadratic_character_gf5_frozen():
    ctx = build_field(5, 1)
    assert [ctx.quadratic_character(x) for x in range(5)] == [0, 1, -1, -1, 1]


@pytest.mark.parametrize("p,m", [(3, 1), (5, 1), (7, 1), (3, 2), (3, 3), (5, 2), (11, 1)])
def test_quadratic_character(p, m):
    ctx = build_field(p, m)
    q = ctx.q
    eta = ctx.quadratic_character
    assert eta(0) == 0
    squares = {ctx.mul(x, x) for x in range(1, q)}
    assert len(squares) == (q - 1) // 2
    for x in range(1, q):
        assert eta(x) == (1 if x in squares else -1)
        for y in range(1, q):
            assert eta(ctx.mul(x, y)) == eta(x) * eta(y)
    assert sum(eta(x) for x in range(q)) == 0


def test_quadratic_character_char_two():
    ctx = build_field(2, 2)
    with pytest.raises(CharacteristicTwoError):
        ctx.quadratic_character(1)


def _extension_fields(max_q):
    return [(p, m) for p, m in _all_fields(max_q) if m > 1]


def _digitwise(ctx, a, b, op):
    """Reference addition or subtraction on base-p digit vectors."""
    p, out, w = ctx.p, 0, 1
    for _ in range(ctx.m):
        out += op(a % p, b % p) % p * w
        a, b, w = a // p, b // p, w * p
    return out


def _check_pair(ctx, a, b):
    assert ctx.add(a, b) == _digitwise(ctx, a, b, operator.add)
    assert ctx.sub(a, b) == _digitwise(ctx, a, b, operator.sub)
    assert ctx.mul(a, b) == ctx._mul_poly(a, b)


@pytest.mark.parametrize("p,m", _extension_fields(128) + [(p, 1) for p in range(2, 128) if is_prime(p)])
def test_kernel_exhaustive_against_reference(p, m):
    ctx = build_field(p, m)
    q = ctx.q
    for a in range(q):
        for b in range(q):
            _check_pair(ctx, a, b)
        assert ctx.neg(a) == _digitwise(ctx, 0, a, operator.sub)
        if a:
            assert ctx._mul_poly(a, ctx.inv(a)) == 1


@pytest.mark.parametrize("p,m", _extension_fields(4096) + [(61, 1), (127, 1), (4093, 1)])
def test_kernel_sampled_against_reference(p, m):
    ctx = build_field(p, m)
    rng = random.Random(31 * p + m)
    for _ in range(10_000):
        _check_pair(ctx, rng.randrange(ctx.q), rng.randrange(ctx.q))
    for a in (0, 1, ctx.q - 1, *(rng.randrange(ctx.q) for _ in range(100))):
        assert ctx.add(a, ctx.neg(a)) == 0
        assert ctx.neg(a) == _digitwise(ctx, 0, a, operator.sub)


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (61, 1), (4093, 1)] + _extension_fields(4096))
def test_generator_and_exp_log_tables(p, m):
    ctx = build_field(p, m)
    n = ctx.q - 1
    powers = ctx._exp[:n]
    # the generator g = exp[1] has order exactly q - 1
    assert sorted(powers) == list(range(1, ctx.q))
    g = powers[1 % n]
    # g^n = 1 by the reference powering, which reads no table
    assert _ppowmod(_digits(g, p, m), n, ctx.modulus, p) == [1]
    # exp and log are inverse bijections between range(n) and the units
    assert all(ctx._log[powers[i]] == i for i in range(n))
    assert all(powers[ctx._log[x]] == x for x in range(1, ctx.q))
    # powers step by g under the reference product
    for i in range(0, n, max(1, n // 200)):
        assert ctx._mul_poly(powers[i], g) == powers[(i + 1) % n]


@pytest.mark.parametrize("p,m", SMALL_FIELDS + BIG_FIELDS + [(3, 4), (5, 3), (2, 7), (61, 1), (3, 7), (2, 12), (4093, 1)])
def test_rows_agree_with_scalar_ops(p, m):
    ctx = build_field(p, m)
    q = ctx.q
    rng = random.Random(q)
    for x in {0, 1, q - 1, *(rng.randrange(q) for _ in range(8))}:
        add_row, mul_row = ctx.add_row(x), ctx.mul_row(x)
        assert [add_row[a] for a in range(q)] == [ctx.add(a, x) for a in range(q)]
        assert [mul_row[a] for a in range(q)] == [ctx.mul(x, a) for a in range(q)]


def test_build_time_bounded():
    # the largest odd-extension, characteristic-2 and prime-field tables in range
    for p, m in ((61, 2), (3, 7), (5, 5), (2, 12), (4093, 1)):
        start = time.perf_counter()
        build_field(p, m)
        assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize(
    "p,m",
    [(1000000000000000003, 1), (1000000000000000003, 2), (3, 100000000), (2, 10**18)],
)
def test_huge_parameters_refused_before_work(p, m):
    start = time.perf_counter()
    with pytest.raises(SizeLimitError):
        build_field(p, m)
    assert time.perf_counter() - start < 1.0


def test_validate_element():
    ctx = build_field(3, 1)
    ctx.validate_element(2)
    for bad in (-1, 3, "1", 1.0, True):
        with pytest.raises(ParameterOutOfRangeError):
            ctx.validate_element(bad)


def _sieve(limit):
    prime = [False, False] + [True] * (limit - 2)
    for d in range(2, limit):
        if prime[d]:
            prime[d * d::d] = [False] * len(range(d * d, limit, d))
    return prime


def test_is_prime_matches_sieve():
    prime = _sieve(5000)
    assert [is_prime(n) for n in range(-5, 5000)] == [False] * 5 + prime


def test_prime_factors_match_reference():
    # the distinct primes dividing n, ascending, from the sieve
    primes = [d for d, flag in enumerate(_sieve(5000)) if flag]
    for n in range(1, 5000):
        assert _prime_factors(n) == [d for d in primes if n % d == 0], n


def test_is_prime_stops_at_first_divisor():
    # 10**18 + 6 is even: the search ends at 2, not at isqrt(n)
    start = time.perf_counter()
    assert not is_prime(10**18 + 6)
    assert time.perf_counter() - start < 0.1
