"""Finite field arithmetic on integer codes."""

import random

import pytest

from pcg.errors import GuardError
from pcg.gf import Field, _pmod, _pmul, ff_make, field_of_size


def test_gf8_generator_relation():
    # default modulus for GF(8) is x^3 + x + 1
    f = ff_make(2, 3)
    assert f.modulus == (1, 1, 0, 1)
    a = f.x
    assert f.pow(a, 3) == f.add(a, 1)


def test_gf4_structure():
    f = ff_make(2, 2)
    a = f.x
    assert f.mul(a, a) == f.add(a, 1)  # x^2 = x + 1
    assert f.pow(a, 3) == 1
    assert f.inv(a) == f.mul(a, a)


def test_gf9_frobenius_is_automorphism():
    f = ff_make(3, 2)
    assert f.q == 9

    def frob(a):
        return f.pow(a, f.p)

    for a in range(f.q):
        assert frob(frob(a)) == a
        for b in range(f.q):
            assert frob(f.add(a, b)) == f.add(frob(a), frob(b))
            assert frob(f.mul(a, b)) == f.mul(frob(a), frob(b))


def test_field_axioms_seeded():
    rng = random.Random(981231)
    for q in (2, 3, 4, 5, 7, 8, 9, 16, 25, 27):
        f = field_of_size(q)
        for _ in range(40):
            a = rng.randrange(q)
            b = rng.randrange(q)
            c = rng.randrange(q)
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
            assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
            assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
            assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
            assert f.add(a, f.neg(a)) == 0
            assert f.sub(a, b) == f.add(a, f.neg(b))
            if a:
                assert f.mul(a, f.inv(a)) == 1
                assert f.mul(f.mul(b, f.inv(a)), a) == b


def test_pow_matches_repeated_mul():
    f = ff_make(2, 4)
    rng = random.Random(7)
    for _ in range(30):
        a = rng.randrange(1, 16)
        e = rng.randrange(0, 40)
        out = 1
        for _ in range(e):
            out = f.mul(out, a)
        assert f.pow(a, e) == out
    # negative exponents go through the inverse
    assert f.pow(f.x, -1) == f.inv(f.x)


def test_multiplicative_group_order():
    for q in (4, 8, 9, 16, 27):
        f = field_of_size(q)
        for a in range(1, q):
            assert f.pow(a, q - 1) == 1


def test_coeffs_encode_roundtrip():
    f = ff_make(5, 2)
    for a in range(f.q):
        assert f.encode(f.coeffs(a)) == a
    assert f.coeffs(0) == ()
    assert f.encode((3, 4)) == 3 + 4 * 5


def test_inverse_of_zero_raises():
    f = ff_make(3, 1)
    with pytest.raises(ZeroDivisionError):
        f.inv(0)


def test_field_validation():
    with pytest.raises(GuardError):
        Field(4, 1)  # p must be prime
    with pytest.raises(GuardError):
        Field(2, 0)
    with pytest.raises(GuardError):
        Field(2, 9)  # 512 over the size limit of 256


def test_prime_field_has_no_generator():
    f = ff_make(7, 1)
    assert f.q == 7
    with pytest.raises(GuardError):
        f.x


def test_ff_make_caches():
    assert ff_make(2, 3) is ff_make(2, 3)
    assert field_of_size(8) is ff_make(2, 3)


def test_field_of_size_rejects_non_prime_powers():
    for q in (1, 6, 12, 15, 100):
        with pytest.raises(GuardError):
            field_of_size(q)
    assert field_of_size(49).p == 7
    assert field_of_size(49).k == 2


def test_np_tables_match_scalar_ops():
    f = ff_make(2, 3)
    mul, add = f.np_tables()
    assert mul.shape == (8, 8)
    for a in range(f.q):
        for b in range(f.q):
            assert int(mul[a, b]) == f.mul(a, b)
            assert int(add[a, b]) == f.add(a, b)


def _digits(f, a):
    c = f.coeffs(a)
    return c + (0,) * (f.k - len(c))


def _check_against_polynomials(f, a, b):
    p = f.p
    ca, cb = _digits(f, a), _digits(f, b)
    assert f.add(a, b) == f.encode([(x + y) % p for x, y in zip(ca, cb)])
    assert f.sub(a, b) == f.encode([(x - y) % p for x, y in zip(ca, cb)])
    assert f.neg(a) == f.encode([-x % p for x in ca])
    assert f.mul(a, b) == f.encode(_pmod(_pmul(ca, cb, p), f.modulus, p))
    if a:
        assert _pmod(_pmul(ca, f.coeffs(f.inv(a)), p), f.modulus, p) == (1,)


def test_tables_match_polynomial_arithmetic():
    # every pair for every prime power up to 64
    for q in range(2, 65):
        try:
            f = field_of_size(q)
        except GuardError:
            continue
        for a in range(q):
            for b in range(q):
                _check_against_polynomials(f, a, b)


@pytest.mark.parametrize("q", [251, 256])
def test_largest_tables_match_polynomial_arithmetic(q):
    f = field_of_size(q)
    rng = random.Random(q)
    for _ in range(3000):
        _check_against_polynomials(f, rng.randrange(q), rng.randrange(q))
