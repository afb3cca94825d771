"""The scalar definition of the GF(256) matrix product the codec runs.

``naive_matmul`` is ``matrix @ shards`` as a double loop of scalar
:func:`~repro.erasure.galois.gf_mul` — far too slow for real payloads, and
obviously right.  ``mul_bytes`` / ``addmul_bytes`` are one coefficient of it
vectorised through a 256-entry row built from ``gf_mul`` alone, for spans the
scalar loop cannot afford.  :class:`~repro.erasure.galois.PackedGFMatrix` is
tested against them; ``check_every_apply`` makes a test's every kernel call
answer to ``naive_matmul``.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.erasure.galois import GF_MATMUL_BLOCK, PackedGFMatrix, gf_mul, shard_matrix


def naive_matmul(matrix, shards) -> np.ndarray:
    """``matrix @ shards`` over GF(256), one scalar ``gf_mul`` per byte.

    ``shards`` is any operand :meth:`PackedGFMatrix.apply` takes: a
    ``(cols, length)`` array or a sequence of ``cols`` equal-length buffers.
    """
    matrix = np.asarray(matrix, dtype=np.uint8)
    if matrix.ndim != 2:
        raise ValueError("matrix must be a 2-D array")
    shards = shard_matrix(shards)
    rows, cols = matrix.shape
    if cols != shards.shape[0]:
        raise ValueError(f"shape mismatch: matrix has {cols} columns but "
                         f"{shards.shape[0]} shards were provided")
    out = np.zeros((rows, shards.shape[1]), dtype=np.uint8)
    for row in range(rows):
        for col in range(cols):
            coefficient = int(matrix[row, col])
            if coefficient == 0:
                continue
            column = shards[col]
            accumulator = out[row]
            for position in range(shards.shape[1]):
                accumulator[position] ^= gf_mul(coefficient, int(column[position]))
    return out


@lru_cache(maxsize=256)
def _products(coefficient: int) -> np.ndarray:
    return np.array([gf_mul(coefficient, value) for value in range(256)], dtype=np.uint8)


def mul_bytes(coefficient: int, data) -> np.ndarray:
    """``coefficient * data`` over GF(256), as a new array."""
    return _products(coefficient)[np.asarray(data, dtype=np.uint8)]


def addmul_bytes(accumulator: np.ndarray, coefficient: int, data) -> None:
    """In place ``accumulator ^= coefficient * data`` (strided views too)."""
    np.bitwise_xor(accumulator, mul_bytes(coefficient, data), out=accumulator)


def check_every_apply(monkeypatch) -> None:
    """Make every ``PackedGFMatrix.apply`` assert it equals ``naive_matmul``
    on the same operator and operand, for the rest of the test."""
    apply = PackedGFMatrix.apply

    def checked(self, shards, block=GF_MATMUL_BLOCK):
        out = apply(self, shards, block)
        assert np.array_equal(out, naive_matmul(self.matrix, shards))
        return out

    monkeypatch.setattr(PackedGFMatrix, "apply", checked)
