"""Tests for GF(256) arithmetic."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.erasure import galois
from repro.erasure.galois import (
    FIELD_SIZE,
    GENERATOR,
    PRIMITIVE_POLYNOMIAL,
    GaloisError,
    PackedGFMatrix,
    gf_inverse,
    gf_mul,
)

from reference.codec import addmul_bytes, mul_bytes

elements = st.integers(min_value=0, max_value=255)
nonzero = st.integers(min_value=1, max_value=255)

#: The one-row operator ``[1 1]``: its product is the sum of two shards.
_SUM = PackedGFMatrix(np.ones((1, 2), dtype=np.uint8))


def gf_add(a: int, b: int) -> int:
    """Field addition as the codec's kernel performs it."""
    return int(_SUM.apply(np.array([[a], [b]], dtype=np.uint8))[0, 0])


def shift_and_add(a: int, b: int) -> int:
    """Carry-less product of ``a`` and ``b`` reduced by the primitive
    polynomial: the definition of multiplication in GF(2^8), no tables."""
    product = 0
    while b:
        if b & 1:
            product ^= a
        b >>= 1
        a <<= 1
        if a & 0x100:
            a ^= PRIMITIVE_POLYNOMIAL
    return product


class TestScalarArithmetic:
    def test_addition_is_xor(self):
        assert gf_add(0b1010, 0b0110) == 0b1100

    def test_addition_equals_subtraction(self):
        # Subtracting b from a + b gives a back by adding b again.
        assert gf_add(gf_add(77, 33), 33) == 77

    def test_add_identity(self):
        assert gf_add(123, 0) == 123

    def test_self_addition_is_zero(self):
        assert gf_add(200, 200) == 0

    def test_multiplication_by_zero(self):
        assert gf_mul(0, 55) == 0
        assert gf_mul(55, 0) == 0

    def test_multiplication_by_one(self):
        assert gf_mul(1, 99) == 99

    def test_known_product(self):
        # 2 * 128 wraps through the primitive polynomial 0x11D.
        assert gf_mul(2, 128) == 0x1D

    def test_inverse_of_zero_raises(self):
        with pytest.raises(GaloisError):
            gf_inverse(0)

    def test_zero_divided(self):
        assert gf_mul(0, gf_inverse(7)) == 0

    def test_exp_log_roundtrip(self):
        for value in range(1, FIELD_SIZE):
            assert galois._EXP_TABLE[galois._LOG_TABLE[value]] == value
        # The generator is primitive: its powers run through every nonzero element.
        assert sorted(galois._EXP_TABLE[:FIELD_SIZE - 1]) == list(range(1, FIELD_SIZE))

    def test_pow_zero_exponent(self):
        assert galois._EXP_TABLE[0] == 1
        # The doubled half repeats the first, so a sum of two logarithms needs no modulo.
        assert np.array_equal(galois._EXP_TABLE[FIELD_SIZE - 1:2 * (FIELD_SIZE - 1)],
                              galois._EXP_TABLE[:FIELD_SIZE - 1])

    def test_pow_matches_repeated_multiplication(self):
        value = 1
        for exponent in range(FIELD_SIZE - 1):
            assert galois._EXP_TABLE[exponent] == value
            value = shift_and_add(value, GENERATOR)
        assert value == 1

    def test_multiplication_table_matches_shift_and_add(self):
        expected = np.array([[shift_and_add(a, b) for b in range(FIELD_SIZE)]
                             for a in range(FIELD_SIZE)], dtype=np.uint8)
        assert np.array_equal(galois._MUL_TABLE, expected)
        assert all(gf_mul(a, b) == expected[a, b]
                   for a in range(0, FIELD_SIZE, 7) for b in range(FIELD_SIZE))


class TestFieldAxioms:
    @given(elements, elements)
    def test_multiplication_commutative(self, a, b):
        assert gf_mul(a, b) == gf_mul(b, a)

    @given(elements, elements, elements)
    def test_multiplication_associative(self, a, b, c):
        assert gf_mul(gf_mul(a, b), c) == gf_mul(a, gf_mul(b, c))

    @given(elements, elements, elements)
    def test_distributivity(self, a, b, c):
        # Addition in GF(2^8) is XOR.
        assert gf_mul(a, b ^ c) == gf_mul(a, b) ^ gf_mul(a, c)

    @given(nonzero)
    def test_inverse_property(self, a):
        assert gf_mul(a, gf_inverse(a)) == 1

    @given(elements, nonzero)
    def test_inverse_undoes_multiplication(self, a, b):
        assert gf_mul(gf_mul(a, b), gf_inverse(b)) == a


class TestVectorisedKernels:
    """``PackedGFMatrix`` and the one-coefficient oracle the kernel tests
    use for spans the scalar loop cannot afford."""

    def test_mul_bytes_by_zero(self):
        data = np.arange(16, dtype=np.uint8)
        assert not mul_bytes(0, data).any()

    def test_mul_bytes_by_one_copies(self):
        data = np.arange(16, dtype=np.uint8)
        result = mul_bytes(1, data)
        assert np.array_equal(result, data)
        assert result is not data

    @given(nonzero, st.lists(elements, min_size=1, max_size=64))
    def test_mul_bytes_matches_scalar(self, coefficient, values):
        data = np.array(values, dtype=np.uint8)
        expected = np.array([gf_mul(coefficient, int(v)) for v in values], dtype=np.uint8)
        assert np.array_equal(mul_bytes(coefficient, data), expected)

    def test_addmul_accumulates(self):
        accumulator = np.zeros(4, dtype=np.uint8)
        data = np.array([1, 2, 3, 4], dtype=np.uint8)
        addmul_bytes(accumulator, 3, data)
        addmul_bytes(accumulator, 3, data)
        # Adding the same term twice cancels in GF(2^8).
        assert not accumulator.any()

    def test_addmul_zero_coefficient_is_noop(self):
        accumulator = np.array([9, 9], dtype=np.uint8)
        addmul_bytes(accumulator, 0, np.array([1, 2], dtype=np.uint8))
        assert np.array_equal(accumulator, np.array([9, 9], dtype=np.uint8))

    def test_matmul_identity(self):
        shards = np.arange(12, dtype=np.uint8).reshape(3, 4)
        identity = np.eye(3, dtype=np.uint8)
        assert np.array_equal(PackedGFMatrix(identity).apply(shards), shards)

    def test_matmul_shape_mismatch(self):
        with pytest.raises(ValueError):
            PackedGFMatrix(np.eye(3, dtype=np.uint8)).apply(np.zeros((4, 2), dtype=np.uint8))

    def test_matmul_requires_2d(self):
        with pytest.raises(ValueError):
            PackedGFMatrix(np.zeros(3, dtype=np.uint8))
