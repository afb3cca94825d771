"""Tests for GF(256) arithmetic."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.erasure.galois import (
    FIELD_SIZE,
    GaloisError,
    gf_add,
    gf_div,
    gf_exp,
    gf_inverse,
    gf_log,
    gf_matmul_bytes,
    gf_mul,
    gf_pow,
    gf_sub,
    is_field_element,
)

from reference.codec import addmul_bytes, mul_bytes

elements = st.integers(min_value=0, max_value=255)
nonzero = st.integers(min_value=1, max_value=255)


class TestScalarArithmetic:
    def test_addition_is_xor(self):
        assert gf_add(0b1010, 0b0110) == 0b1100

    def test_addition_equals_subtraction(self):
        assert gf_add(77, 33) == gf_sub(77, 33)

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

    def test_division_by_zero_raises(self):
        with pytest.raises(GaloisError):
            gf_div(5, 0)

    def test_zero_divided(self):
        assert gf_div(0, 7) == 0

    def test_inverse_of_zero_raises(self):
        with pytest.raises(GaloisError):
            gf_inverse(0)

    def test_log_of_zero_raises(self):
        with pytest.raises(GaloisError):
            gf_log(0)

    def test_exp_log_roundtrip(self):
        for value in range(1, FIELD_SIZE):
            assert gf_exp(gf_log(value)) == value

    def test_pow_zero_exponent(self):
        assert gf_pow(37, 0) == 1

    def test_pow_negative_exponent_of_zero_raises(self):
        with pytest.raises(GaloisError):
            gf_pow(0, -1)

    def test_pow_matches_repeated_multiplication(self):
        value = 1
        for exponent in range(1, 6):
            value = gf_mul(value, 29)
            assert gf_pow(29, exponent) == value

    def test_is_field_element(self):
        assert is_field_element(0)
        assert is_field_element(255)
        assert not is_field_element(256)
        assert not is_field_element(-1)
        assert not is_field_element("3")


class TestFieldAxioms:
    @given(elements, elements)
    def test_multiplication_commutative(self, a, b):
        assert gf_mul(a, b) == gf_mul(b, a)

    @given(elements, elements, elements)
    def test_multiplication_associative(self, a, b, c):
        assert gf_mul(gf_mul(a, b), c) == gf_mul(a, gf_mul(b, c))

    @given(elements, elements, elements)
    def test_distributivity(self, a, b, c):
        assert gf_mul(a, gf_add(b, c)) == gf_add(gf_mul(a, b), gf_mul(a, c))

    @given(nonzero)
    def test_inverse_property(self, a):
        assert gf_mul(a, gf_inverse(a)) == 1

    @given(elements, nonzero)
    def test_division_inverts_multiplication(self, a, b):
        assert gf_div(gf_mul(a, b), b) == a


class TestVectorisedKernels:
    """``gf_matmul_bytes`` and the one-coefficient oracle the kernel tests
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
        assert np.array_equal(gf_matmul_bytes(identity, shards), shards)

    def test_matmul_shape_mismatch(self):
        with pytest.raises(ValueError):
            gf_matmul_bytes(np.eye(3, dtype=np.uint8), np.zeros((4, 2), dtype=np.uint8))

    def test_matmul_requires_2d(self):
        with pytest.raises(ValueError):
            gf_matmul_bytes(np.zeros(3, dtype=np.uint8), np.zeros((3, 2), dtype=np.uint8))
