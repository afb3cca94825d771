"""Systematic Reed-Solomon encoder/decoder over GF(256).

This is the coding engine underneath :class:`repro.erasure.codec.ErasureCodec`.
It works on *shards*: equally sized ``uint8`` arrays.  The first ``k`` shards
are the original data split column-wise; the remaining ``m`` shards are parity.
Any ``k`` of the ``k + m`` shards reconstruct the data (MDS property), which is
exactly the contract the paper's storage backend relies on (§II-A).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.erasure.galois import PackedGFMatrix, shard_bytes
from repro.erasure.matrix import decode_matrix, systematic_encoding_matrix

#: Maximum number of decode operators kept per codec (one per distinct
#: surviving-shard pattern; tiny tables, bounded to stay O(1) in memory).
_DECODE_CACHE_LIMIT = 256


class DecodingError(ValueError):
    """Raised when reconstruction is impossible (too few shards, bad sizes)."""


class ReedSolomon:
    """Systematic Reed-Solomon code with ``k`` data and ``m`` parity shards.

    Args:
        data_shards: ``k``.
        parity_shards: ``m``.

    Example:
        >>> rs = ReedSolomon(4, 2)
        >>> shards = rs.encode(b"hello erasure world!")
        >>> partial = {i: shards[i] for i in (0, 2, 4, 5)}
        >>> rs.decode_data(partial, original_length=20)
        b'hello erasure world!'
    """

    def __init__(self, data_shards: int, parity_shards: int) -> None:
        if data_shards <= 0:
            raise ValueError("data_shards must be positive")
        if parity_shards < 0:
            raise ValueError("parity_shards must be non-negative")
        if data_shards + parity_shards > 256:
            raise ValueError("k + m must not exceed 256 for GF(256) Reed-Solomon")
        self._data_shards = data_shards
        self._parity_shards = parity_shards
        self._matrix = systematic_encoding_matrix(data_shards, parity_shards)
        # The parity rows never change: compile their operator once.
        self._parity_op = (
            PackedGFMatrix(self._matrix[data_shards:, :]) if parity_shards else None
        )
        # Decode plans per surviving-shard pattern, built on demand.
        self._decode_ops: dict[tuple[int, ...], tuple] = {}

    @property
    def data_shards(self) -> int:
        """Number of data shards ``k``."""
        return self._data_shards

    @property
    def parity_shards(self) -> int:
        """Number of parity shards ``m``."""
        return self._parity_shards

    @property
    def total_shards(self) -> int:
        """Total number of shards ``k + m``."""
        return self._data_shards + self._parity_shards

    @property
    def encoding_matrix(self) -> np.ndarray:
        """Copy of the ``(k + m) × k`` systematic encoding matrix."""
        return self._matrix.copy()

    # ------------------------------------------------------------------ #
    # Encoding
    # ------------------------------------------------------------------ #
    def shard_size(self, data_length: int) -> int:
        """Shard length (bytes) for a blob of ``data_length`` bytes."""
        if data_length < 0:
            raise ValueError("data_length must be non-negative")
        return -(-data_length // self._data_shards) if data_length else 0

    def split(self, data: bytes) -> np.ndarray:
        """Split (and zero-pad) a blob into a ``(k, shard_size)`` array."""
        shard_size = self.shard_size(len(data))
        padded = np.empty(self._data_shards * max(shard_size, 1), dtype=np.uint8)
        if data:
            padded[: len(data)] = np.frombuffer(data, dtype=np.uint8)
        padded[len(data):] = 0
        return padded.reshape(self._data_shards, max(shard_size, 1))

    def encode(self, data: bytes) -> list[np.ndarray]:
        """Encode a blob into ``k + m`` equally sized shards.

        The first ``k`` shards are the original data (zero-padded); the last
        ``m`` shards are parity.
        """
        # The split matrix is freshly allocated and private, so the data
        # shards can be returned as views without an extra copy per shard.
        data_matrix = self.split(data)
        return self._encode_matrix(data_matrix, copy_data=False)

    def encode_shards(self, data_matrix: np.ndarray) -> list[np.ndarray]:
        """Encode a pre-split ``(k, shard_size)`` array into ``k + m`` shards."""
        data_matrix = np.asarray(data_matrix, dtype=np.uint8)
        if data_matrix.shape[0] != self._data_shards:
            raise ValueError(
                f"expected {self._data_shards} data shards, got {data_matrix.shape[0]}"
            )
        return self._encode_matrix(data_matrix, copy_data=True)

    def _encode_matrix(self, data_matrix: np.ndarray, copy_data: bool) -> list[np.ndarray]:
        shards = [
            data_matrix[i].copy() if copy_data else data_matrix[i]
            for i in range(self._data_shards)
        ]
        if self._parity_op is not None:
            parity = self._parity_op.apply(data_matrix)
            shards.extend(parity[i] for i in range(self._parity_shards))
        return shards

    def encode_many(self, data_matrices: np.ndarray) -> np.ndarray:
        """Encode a whole batch of pre-split objects in one operator application.

        Args:
            data_matrices: ``(objects, k, shard_len)`` ``uint8`` array — one
                pre-split object per row (see :meth:`split`).

        Returns:
            ``(objects, k + m, shard_len)`` ``uint8`` array: per object, the
            ``k`` data shards followed by the ``m`` parity shards.

        The batch is folded along the shard axis — ``(k, objects × shard_len)``
        — so the parity operator runs **once** for the whole batch and the
        per-call Python overhead (operator dispatch, index setup, block loop)
        amortises across objects.  Bit-identical to encoding each object
        alone: the kernels are elementwise along the shard axis.
        """
        stacked = np.asarray(data_matrices, dtype=np.uint8)
        if stacked.ndim != 3:
            raise ValueError("data_matrices must be a 3-D (objects, k, shard_len) array")
        objects, rows, shard_len = stacked.shape
        if rows != self._data_shards:
            raise ValueError(
                f"expected {self._data_shards} data shards per object, got {rows}"
            )
        out = np.empty((objects, self.total_shards, shard_len), dtype=np.uint8)
        out[:, : self._data_shards, :] = stacked
        if self._parity_op is not None and objects:
            folded = np.ascontiguousarray(stacked.transpose(1, 0, 2)).reshape(
                self._data_shards, objects * shard_len
            )
            parity = self._parity_op.apply(folded)
            out[:, self._data_shards:, :] = parity.reshape(
                self._parity_shards, objects, shard_len
            ).transpose(1, 0, 2)
        return out

    # ------------------------------------------------------------------ #
    # Decoding
    # ------------------------------------------------------------------ #
    def _survivors(self, available: dict) -> tuple[tuple[int, ...], list, int]:
        """The ``k`` lowest shard indices of ``available``, their payloads in
        that order (measured, not converted) and the common shard length.

        Raises:
            DecodingError: fewer than ``k`` shards, an index outside
                ``0 .. k + m - 1`` or shards of unequal length.
        """
        if len(available) < self._data_shards:
            raise DecodingError(
                f"need {self._data_shards} shards to decode, got {len(available)}"
            )
        indices = tuple(sorted(available)[: self._data_shards])
        total = self.total_shards
        payloads = []
        shard_size = None
        for index in indices:
            if not 0 <= index < total:
                raise DecodingError(f"shard index {index} out of range 0..{total - 1}")
            payload = available[index]
            if shard_size is None:
                shard_size = len(payload)
            elif len(payload) != shard_size:
                raise DecodingError("all shards must have the same length")
            payloads.append(payload)
        return indices, payloads, shard_size

    def _decode_plan(self, survivors: tuple[int, ...]
                     ) -> tuple[list[int], list[int], PackedGFMatrix | None]:
        """What a survivor pattern leaves to compute.

        Returns the data rows present among ``survivors`` (sorted, so they
        lead any stack of them), the data rows missing, and the operator that
        rebuilds exactly the missing rows from the ``k`` survivor shards —
        those rows of the pattern's inverse, ``None`` when nothing is missing.
        The code is systematic: a present data row *is* its survivor and is
        never multiplied.
        """
        cached = self._decode_ops.get(survivors)
        if cached is None:
            if len(self._decode_ops) >= _DECODE_CACHE_LIMIT:
                self._decode_ops.clear()
            present = [row for row in survivors if row < self._data_shards]
            missing = [row for row in range(self._data_shards) if row not in present]
            operator = None
            if missing:
                inverse = decode_matrix(self._matrix, list(survivors), self._data_shards)
                operator = PackedGFMatrix(inverse[missing])
            cached = self._decode_ops[survivors] = (present, missing, operator)
        return cached

    def decode_many(self, shard_stacks: np.ndarray,
                    indices: Sequence[int]) -> np.ndarray:
        """Reconstruct a batch of objects sharing one surviving-shard pattern.

        Args:
            shard_stacks: ``(objects, len(indices), shard_len)`` ``uint8``
                array; ``shard_stacks[o, j]`` is shard ``indices[j]`` of
                object ``o``.
            indices: the shard indices present, identical for every object in
                the batch (at least ``k`` of them).

        Returns:
            ``(objects, k, shard_len)`` ``uint8`` array of data matrices.

        Like :meth:`encode_many`, the batch folds along the shard axis so the
        decode operator for the pattern runs once per call; results are
        bit-identical to per-object :meth:`decode_data` with the same
        survivors.

        The batched path makes no defensive copies: when the survivors are
        exactly the ``k`` data shards in the stack's leading columns, the
        result is a zero-copy **view** of ``shard_stacks`` (callers that
        mutate it should copy first), and reconstructed batches come back as
        a transposed view of the row-major assembly buffer, which is
        non-contiguous.
        """
        stacked = np.asarray(shard_stacks, dtype=np.uint8)
        if stacked.ndim != 3:
            raise ValueError("shard_stacks must be a 3-D (objects, shards, shard_len) array")
        objects, provided, shard_len = stacked.shape
        index_list = [int(index) for index in indices]
        if len(index_list) != provided:
            raise DecodingError(
                f"indices lists {len(index_list)} shards but the stack has {provided}"
            )
        if len(set(index_list)) != len(index_list):
            raise DecodingError("indices must not repeat")
        if provided < self._data_shards:
            raise DecodingError(
                f"need {self._data_shards} shards to decode, got {provided}"
            )
        for index in index_list:
            if not 0 <= index < self.total_shards:
                raise DecodingError(
                    f"shard index {index} out of range 0..{self.total_shards - 1}"
                )
        # Mirror _survivors: survivors sorted ascending, first k used.
        order = sorted(range(provided), key=lambda position: index_list[position])
        order = order[: self._data_shards]
        survivors = tuple(index_list[position] for position in order)
        if order == list(range(self._data_shards)):
            # The chosen survivors are the stack's leading columns already:
            # a basic slice serves them as a view, no gather copy.
            selected = stacked[:, : self._data_shards, :]
        else:
            selected = stacked[:, order, :]

        present, missing, operator = self._decode_plan(survivors)
        if operator is None:
            # Systematic fast path: the data shards themselves survived, so
            # ``selected`` *is* the answer — a zero-copy view whenever the
            # slice above applied.
            return selected

        # (k, objects, shard_len): one row per survivor, batch folded behind it.
        folded = np.ascontiguousarray(selected.transpose(1, 0, 2))
        rebuilt = operator.apply(
            folded.reshape(self._data_shards, objects * shard_len))
        data = np.empty_like(folded)
        data[present] = folded[: len(present)]
        data[missing] = rebuilt.reshape(len(missing), objects, shard_len)
        return data.transpose(1, 0, 2)

    def decode_data(self, available: dict[int, np.ndarray | bytes], original_length: int) -> bytes:
        """Reconstruct the original blob (trimmed to ``original_length`` bytes).

        Surviving data shards are concatenated as they came; only the missing
        ones are rebuilt, by an operator that is handed the survivors'
        payloads as the buffers they are.
        """
        survivors, payloads, shard_size = self._survivors(available)
        decoded_bytes = self._data_shards * shard_size
        if original_length < 0:
            raise DecodingError(f"original_length {original_length} is negative")
        if original_length > decoded_bytes:
            raise DecodingError(
                f"original_length {original_length} exceeds decoded payload of {decoded_bytes} bytes"
            )
        present, missing, operator = self._decode_plan(survivors)
        pieces: list = [None] * self._data_shards
        for row, payload in zip(present, payloads):
            pieces[row] = shard_bytes(payload)
        if operator is not None:
            for row, shard in zip(missing, operator.apply(payloads)):
                pieces[row] = shard
        return b"".join(pieces)[:original_length]
