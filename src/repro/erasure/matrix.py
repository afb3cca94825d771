"""Matrix algebra over GF(256) used to build Reed-Solomon coding matrices.

The matrices here are small (``(k + m) × k`` with ``k + m`` ≤ a few dozen), so
clarity wins over raw speed; the heavy per-byte work happens in
:mod:`repro.erasure.galois` on whole shards instead.
"""

from __future__ import annotations

import numpy as np

from repro.erasure.galois import FIELD_SIZE, GaloisError, gf_inverse, gf_mul


class SingularMatrixError(GaloisError):
    """Raised when a matrix that must be invertible is singular."""


def identity_matrix(size: int) -> np.ndarray:
    """Return the ``size × size`` identity matrix over GF(256)."""
    return np.eye(size, dtype=np.uint8)


def matrix_invert(matrix: np.ndarray) -> np.ndarray:
    """Invert a square matrix over GF(256) by Gauss-Jordan elimination.

    Raises:
        SingularMatrixError: if the matrix is not invertible.
    """
    matrix = np.asarray(matrix, dtype=np.uint8)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError("only square matrices can be inverted")
    size = matrix.shape[0]
    work = np.concatenate([matrix.copy(), identity_matrix(size)], axis=1).astype(np.int64)

    for col in range(size):
        # Find a pivot row with a non-zero entry in this column.
        pivot_row = None
        for row in range(col, size):
            if work[row, col] != 0:
                pivot_row = row
                break
        if pivot_row is None:
            raise SingularMatrixError("matrix is singular over GF(256)")
        if pivot_row != col:
            work[[col, pivot_row]] = work[[pivot_row, col]]

        # Normalise the pivot row so the pivot becomes 1.
        pivot_inverse = gf_inverse(int(work[col, col]))
        for j in range(2 * size):
            work[col, j] = gf_mul(int(work[col, j]), pivot_inverse)

        # Eliminate the column from every other row.
        for row in range(size):
            if row == col or work[row, col] == 0:
                continue
            factor = int(work[row, col])
            for j in range(2 * size):
                work[row, j] ^= gf_mul(factor, int(work[col, j]))

    return work[:, size:].astype(np.uint8)


def cauchy_matrix(rows: int, cols: int) -> np.ndarray:
    """Build a ``rows × cols`` Cauchy matrix ``C[i, j] = 1 / (x_i + y_j)``.

    The x/y points are chosen as disjoint ranges, which guarantees every
    square submatrix is invertible — the property Reed-Solomon relies on.
    """
    if rows <= 0 or cols <= 0:
        raise ValueError("matrix dimensions must be positive")
    if rows + cols > FIELD_SIZE:
        raise ValueError("rows + cols must not exceed 256 for a GF(256) Cauchy matrix")
    xs = list(range(cols, cols + rows))
    ys = list(range(cols))
    matrix = np.zeros((rows, cols), dtype=np.uint8)
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            matrix[i, j] = gf_inverse(x ^ y)
    return matrix


def systematic_encoding_matrix(data_shards: int, parity_shards: int) -> np.ndarray:
    """Build the ``(k + m) × k`` systematic encoding matrix.

    The top ``k`` rows are the identity (data shards pass through untouched);
    the bottom ``m`` rows are a Cauchy matrix, which keeps the code MDS, and
    produce the parity shards.

    Args:
        data_shards: ``k``, the number of data shards.
        parity_shards: ``m``, the number of parity shards.
    """
    if data_shards <= 0 or parity_shards < 0:
        raise ValueError("data_shards must be positive and parity_shards non-negative")
    parity = cauchy_matrix(parity_shards, data_shards) if parity_shards else np.zeros((0, data_shards), dtype=np.uint8)
    return np.concatenate([identity_matrix(data_shards), parity], axis=0)


def submatrix(matrix: np.ndarray, rows: list[int]) -> np.ndarray:
    """Return the matrix restricted to the given row indices (in order)."""
    matrix = np.asarray(matrix, dtype=np.uint8)
    return matrix[np.asarray(rows, dtype=np.intp), :].copy()


def decode_matrix(encoding_matrix: np.ndarray, available_rows: list[int], data_shards: int) -> np.ndarray:
    """Compute the decoding matrix for a set of surviving shards.

    Args:
        encoding_matrix: the full ``(k + m) × k`` systematic matrix.
        available_rows: indices (shard ids) of the surviving shards; at least
            ``data_shards`` of them are required.
        data_shards: ``k``.

    Returns:
        A ``k × k`` matrix that maps the first ``k`` surviving shards back to
        the original data shards.

    Raises:
        ValueError: if fewer than ``k`` shards are available.
        SingularMatrixError: if the selected rows are not independent (cannot
            happen for MDS constructions, but guarded against anyway).
    """
    if len(available_rows) < data_shards:
        raise ValueError(
            f"need at least {data_shards} shards to decode, got {len(available_rows)}"
        )
    selected = submatrix(encoding_matrix, list(available_rows[:data_shards]))
    return matrix_invert(selected)
