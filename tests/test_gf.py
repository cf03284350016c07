"""Finite field arithmetic on integer codes."""

import random

import pytest

from pcg.errors import GuardError
from pcg.gf import Field, ff_make, field_of_size


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
    for a in f.elements():
        assert f.frobenius(f.frobenius(a)) == a
        for b in f.elements():
            assert f.frobenius(f.add(a, b)) == f.add(f.frobenius(a), f.frobenius(b))
            assert f.frobenius(f.mul(a, b)) == f.mul(f.frobenius(a), f.frobenius(b))


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
                assert f.div(b, a) == f.mul(b, f.inv(a))


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
    for a in f.elements():
        assert f.encode(f.coeffs(a)) == a
    assert f.coeffs(0) == ()
    assert f.encode((3, 4)) == 3 + 4 * 5


def test_inverse_of_zero_raises():
    f = ff_make(3, 1)
    with pytest.raises(ZeroDivisionError):
        f.inv(0)
    with pytest.raises(ZeroDivisionError):
        f.div(1, 0)


def test_field_validation():
    with pytest.raises(GuardError):
        Field(4, 1)  # p must be prime
    with pytest.raises(GuardError):
        Field(2, 0)
    with pytest.raises(GuardError):
        Field(2, 17)  # 2^17 over the size limit
    with pytest.raises(GuardError):
        Field(2, 2, modulus=(1, 1))  # wrong degree
    with pytest.raises(GuardError):
        Field(2, 2, modulus=(1, 0, 1))  # x^2 + 1 reducible over GF(2)
    with pytest.raises(GuardError):
        Field(2, 1, modulus=(0, 2))  # not monic after reduction mod p


def test_explicit_modulus_changes_arithmetic():
    f1 = Field(3, 2)  # default modulus
    f2 = Field(3, 2, modulus=(2, 2, 1))  # x^2 + 2x + 2, also irreducible
    assert f1 != f2
    assert f1.q == f2.q == 9
    # in f2 the generator satisfies x^2 = -2x - 2 = x + 1
    assert f2.mul(f2.x, f2.x) == f2.add(f2.x, 1)


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
    for a in f.elements():
        for b in f.elements():
            assert int(mul[a, b]) == f.mul(a, b)
            assert int(add[a, b]) == f.add(a, b)


def test_large_field_without_tables():
    # q above the dense-table threshold still multiplies correctly
    f = ff_make(2, 13)
    assert f.q == 8192
    a = f.x
    assert f.mul(a, f.inv(a)) == 1
    assert f.pow(a, f.q - 1) == 1
    with pytest.raises(GuardError):
        f.np_tables()
