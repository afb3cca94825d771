"""Tests for GF(256) matrix algebra and coding-matrix constructions."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.erasure.galois import PackedGFMatrix
from repro.erasure.matrix import (
    SingularMatrixError,
    cauchy_matrix,
    decode_matrix,
    identity_matrix,
    matrix_invert,
    submatrix,
    systematic_encoding_matrix,
)

from reference.codec import naive_matmul


class TestBasicOps:
    def test_identity(self):
        identity = identity_matrix(4)
        assert identity.shape == (4, 4)
        assert identity.trace() == 4

    def test_multiply_by_identity(self):
        """The codec's kernel multiplies by the identity on either side."""
        matrix = np.array([[3, 7], [11, 250]], dtype=np.uint8)
        assert np.array_equal(PackedGFMatrix(matrix).apply(identity_matrix(2)), matrix)
        assert np.array_equal(PackedGFMatrix(identity_matrix(2)).apply(matrix), matrix)

    def test_invert_identity(self):
        assert np.array_equal(matrix_invert(identity_matrix(5)), identity_matrix(5))

    def test_invert_roundtrip(self):
        matrix = cauchy_matrix(4, 4)
        inverse = matrix_invert(matrix)
        assert np.array_equal(naive_matmul(matrix, inverse), identity_matrix(4))

    def test_invert_singular_raises(self):
        singular = np.array([[1, 2], [1, 2]], dtype=np.uint8)
        with pytest.raises(SingularMatrixError):
            matrix_invert(singular)

    def test_invert_non_square_raises(self):
        with pytest.raises(ValueError):
            matrix_invert(np.zeros((2, 3), dtype=np.uint8))

    def test_submatrix_selects_rows(self):
        matrix = cauchy_matrix(5, 3)
        selected = submatrix(matrix, [4, 1])
        assert np.array_equal(selected[0], matrix[4])
        assert np.array_equal(selected[1], matrix[1])


class TestConstructions:

    def test_cauchy_validation(self):
        with pytest.raises(ValueError):
            cauchy_matrix(200, 100)
        with pytest.raises(ValueError):
            cauchy_matrix(0, 1)

    @pytest.mark.parametrize("data_shards,parity_shards", [(5, 3), (9, 3), (4, 2)])
    def test_systematic_top_is_identity(self, data_shards, parity_shards):
        matrix = systematic_encoding_matrix(data_shards, parity_shards)
        assert np.array_equal(matrix[:data_shards, :], identity_matrix(data_shards))
        assert matrix.shape == (data_shards + parity_shards, data_shards)

    def test_zero_parity(self):
        matrix = systematic_encoding_matrix(4, 0)
        assert matrix.shape == (4, 4)

    @settings(max_examples=25, deadline=None)
    @given(
        data_shards=st.integers(min_value=2, max_value=8),
        parity_shards=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_any_k_rows_invertible(self, data_shards, parity_shards, seed):
        """The MDS property: every k-row submatrix of the encoding matrix is invertible."""
        matrix = systematic_encoding_matrix(data_shards, parity_shards)
        rng = np.random.default_rng(seed)
        rows = sorted(rng.choice(data_shards + parity_shards, size=data_shards, replace=False).tolist())
        selected = submatrix(matrix, rows)
        inverse = matrix_invert(selected)  # must not raise
        assert np.array_equal(naive_matmul(selected, inverse), identity_matrix(data_shards))


class TestDecodeMatrix:
    def test_requires_enough_rows(self):
        matrix = systematic_encoding_matrix(4, 2)
        with pytest.raises(ValueError):
            decode_matrix(matrix, [0, 1, 2], data_shards=4)

    def test_data_rows_only_yields_identity(self):
        matrix = systematic_encoding_matrix(4, 2)
        decoder = decode_matrix(matrix, [0, 1, 2, 3], data_shards=4)
        assert np.array_equal(decoder, identity_matrix(4))

    def test_mixed_rows(self):
        matrix = systematic_encoding_matrix(4, 2)
        decoder = decode_matrix(matrix, [0, 2, 4, 5], data_shards=4)
        reencoded = naive_matmul(submatrix(matrix, [0, 2, 4, 5]), decoder)
        assert np.array_equal(reencoded, identity_matrix(4))
