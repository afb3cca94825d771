"""Arithmetic over the Galois field GF(2^8).

Reed-Solomon codes operate over a finite field.  We use GF(256) with the
conventional primitive polynomial ``x^8 + x^4 + x^3 + x^2 + 1`` (0x11D), the
same field used by Longhair, Jerasure and most storage erasure coders.  All
symbols are bytes, which keeps chunk data as plain ``bytes``/NumPy ``uint8``
arrays.

The module exposes both scalar operations (``gf_mul``, ``gf_inverse``) used by
the matrix routines and the one payload kernel, :class:`PackedGFMatrix`, which
every encode and decode runs through.
"""

from __future__ import annotations

import sys

import numpy as np

#: Order of the field (number of elements).
FIELD_SIZE = 256

#: Primitive polynomial x^8 + x^4 + x^3 + x^2 + 1 used to reduce products.
PRIMITIVE_POLYNOMIAL = 0x11D

#: Generator element used to build the exponentiation/log tables.
GENERATOR = 0x02


def _build_tables() -> tuple[np.ndarray, np.ndarray]:
    """Build exponentiation and logarithm tables for GF(256).

    Returns a pair ``(exp, log)`` where ``exp`` has 512 entries (doubled so
    that ``exp[log[a] + log[b]]`` never needs an explicit modulo) and ``log``
    has 256 entries with ``log[0]`` left as 0 (it is never a valid input).
    """
    exp = np.zeros(2 * FIELD_SIZE, dtype=np.int32)
    log = np.zeros(FIELD_SIZE, dtype=np.int32)
    value = 1
    for power in range(FIELD_SIZE - 1):
        exp[power] = value
        log[value] = power
        value <<= 1
        if value & 0x100:
            value ^= PRIMITIVE_POLYNOMIAL
    # Duplicate the table so exponent sums up to 2*(255) index safely.
    for power in range(FIELD_SIZE - 1, 2 * FIELD_SIZE):
        exp[power] = exp[power - (FIELD_SIZE - 1)]
    return exp, log


_EXP_TABLE, _LOG_TABLE = _build_tables()

#: Full 256x256 multiplication table (64 KiB), from which
#: :class:`PackedGFMatrix` builds its per-column tables.  Built with one
#: vectorised outer sum of logarithms instead of a 65k-iteration Python loop;
#: the zero row/column are patched afterwards (log(0) is undefined).
_MUL_TABLE = _EXP_TABLE[_LOG_TABLE[:, None] + _LOG_TABLE[None, :]].astype(np.uint8)
_MUL_TABLE[0, :] = 0
_MUL_TABLE[:, 0] = 0

#: Byte order of the packed gather kernels below (lanes are unpacked back to
#: bytes through a view).
_LITTLE_ENDIAN = sys.byteorder == "little"

#: Narrowest unsigned lane with one byte per row, for groups of 1 to 8 rows.
_LANES = (np.uint8, np.uint16, np.uint32, np.uint32) + (np.uint64,) * 4


class GaloisError(ArithmeticError):
    """Raised for invalid field operations such as division by zero."""


def gf_mul(a: int, b: int) -> int:
    """Multiply two field elements."""
    if a == 0 or b == 0:
        return 0
    return int(_EXP_TABLE[_LOG_TABLE[a] + _LOG_TABLE[b]])


def gf_inverse(a: int) -> int:
    """Multiplicative inverse of ``a``.

    Raises:
        GaloisError: if ``a`` is zero.
    """
    if a == 0:
        raise GaloisError("zero has no inverse in GF(256)")
    return int(_EXP_TABLE[(FIELD_SIZE - 1) - _LOG_TABLE[a]])


#: Shard bytes a kernel step processes.  A packed-gather step fills one
#: ``(cols, block)`` lane array — 576 KiB for RS(9, 3)'s three parity rows at
#: 16 KiB, inside L2 — while its fixed cost (``cols + 3`` NumPy calls) stays a
#: few percent of its work; a translated row's step holds nine shards'
#: slices, their translations and the join of those (3 × 144 KiB) there as
#: well.  Sweeps in docs/history/issue-16.md ("Cold wire read") and
#: docs/history/issue-20.md ("Cold wire read, second pass").
GF_MATMUL_BLOCK = 1 << 14


def shard_bytes(shard) -> bytes | bytearray:
    """One shard as an object with ``translate``.

    ``bytes`` and ``bytearray`` are returned as they are; anything else — a
    ``memoryview``, an array row of any stride or integer type — is copied
    through ``uint8``.
    """
    if isinstance(shard, (bytes, bytearray)):
        return shard
    array = np.asarray(shard, dtype=np.uint8)
    if array.ndim != 1:
        raise ValueError("a shard must be a 1-D run of bytes")
    return array.tobytes()


def _common_length(shards) -> int:
    lengths = set(map(len, shards))
    if len(lengths) > 1:
        raise ValueError("all shards must have the same length")
    return lengths.pop() if lengths else 0


def shard_matrix(shards) -> np.ndarray:
    """The operand of a :class:`PackedGFMatrix` as one ``(count, length)``
    ``uint8`` array: a 2-D array viewed (or cast), a sequence of equal-length
    shards — each whatever :func:`shard_bytes` takes — joined once.
    """
    if isinstance(shards, np.ndarray):
        if shards.ndim != 2:
            raise ValueError("shards must be a 2-D array")
        return np.asarray(shards, dtype=np.uint8)
    rows = [shard_bytes(shard) for shard in shards]
    return np.frombuffer(b"".join(rows), dtype=np.uint8).reshape(
        len(rows), _common_length(rows))


class PackedGFMatrix:
    """A GF(256) coefficient matrix compiled into lookup tables.

    The product ``matrix @ shards`` is computed row-group by row-group.  Two
    to eight output rows are packed into one unsigned lane — the narrowest
    with a byte per row, ``uint16`` for two rows up to ``uint64`` for five to
    eight — and each input shard contributes via a *single* 256-entry table
    gather whose entries hold the packed products of the shard byte with
    every coefficient of the group's column
    (``_MUL_TABLE[matrix[:, :, None], shards[None, :, :]]`` folded into
    per-column tables).  The per-byte work therefore drops from ``rows``
    gathers to ``ceil(rows / 8)``.  A block's shards are gathered into one
    ``(cols, block)`` lane array — one ``take`` per shard, straight from its
    ``uint8`` bytes — which a single ``bitwise_xor.reduce`` folds over the
    shard axis and a single transposed view unpacks into output rows.

    A dense row that stands alone — a group of exactly one, the rebuilt shard
    of a degraded read — has nothing to pack: a shard times one field
    constant is a byte-to-byte table lookup, which ``bytes.translate`` does in
    C on the shard as it arrived.  Per block: one ``translate`` per shard with
    a coefficient above 1 (1 passes the shard through, 0 skips it) and one
    ``bitwise_xor.reduce`` over the translated parts.

    Rows whose coefficients are all 0/1 never touch the tables: they are pure
    XOR combinations of input shards (or plain copies), the fast path taken by
    systematic decode matrices where surviving data shards pass through.

    Building the tables costs a few microseconds; callers with a fixed matrix
    (the Reed-Solomon encoder, cached decode matrices) reuse the instance.
    """

    __slots__ = ("matrix", "rows", "cols", "_simple_rows", "_groups",
                 "_gathered", "_lone")

    def __init__(self, matrix: np.ndarray) -> None:
        matrix = np.ascontiguousarray(np.asarray(matrix, dtype=np.uint8))
        if matrix.ndim != 2:
            raise ValueError("matrix must be a 2-D array")
        self.matrix = matrix
        self.rows, self.cols = matrix.shape

        # XOR-only rows: every coefficient is 0 or 1.
        simple = (matrix <= 1).all(axis=1) if self.cols else np.ones(self.rows, dtype=bool)
        self._simple_rows = [
            (row, np.flatnonzero(matrix[row]).astype(np.intp))
            for row in np.flatnonzero(simple)
        ]

        # Remaining rows in packed groups of up to 8.
        dense_rows = np.flatnonzero(~simple)
        self._groups = []
        for start in range(0, dense_rows.size, 8):
            rows = dense_rows[start:start + 8]
            group = matrix[rows]  # (g, cols)
            lane = _LANES[rows.size - 1]
            # (g, cols, 256) products, packed into one lane per column entry.
            products = _MUL_TABLE[group].astype(lane)
            shifts = np.arange(rows.size, dtype=lane) * lane(8)
            tables = np.bitwise_or.reduce(
                products << shifts[:, None, None], axis=0
            )  # (cols, 256)
            self._groups.append((rows, group, tables, lane))

        # What ``apply`` runs: the groups of two rows or more are gathered;
        # a trailing group of one is translated, its one-byte-lane table rows
        # being the translation tables (``None`` for coefficient 1).
        self._gathered = [group for group in self._groups if group[0].size > 1]
        self._lone = None
        if len(self._gathered) < len(self._groups):
            (row,), (coefficients,), tables, _ = self._groups[-1]
            self._lone = (int(row), [
                (col, None if coefficient == 1 else tables[col].tobytes())
                for col, coefficient in enumerate(coefficients.tolist()) if coefficient
            ])

    def apply(self, shards, block: int = GF_MATMUL_BLOCK) -> np.ndarray:
        """Compute ``matrix @ shards`` over GF(256).

        Args:
            shards: ``(cols, shard_len)`` ``uint8`` array, one shard per row,
                or a sequence of ``cols`` equal-length shards as the buffers
                they are (``bytes``, ``bytearray``, ``memoryview``, array
                rows); each kernel converts only what it reads.
            block: shard-axis chunk length bounding transient memory.

        Returns:
            ``(rows, shard_len)`` ``uint8`` array of output shards.
        """
        if self._simple_rows or self._gathered or isinstance(shards, np.ndarray):
            # Read by the XOR-only rows and the gathered groups alone.
            stacked = shard_matrix(shards)
            count, length = stacked.shape
        else:
            count, length = len(shards), _common_length(shards)
        if count != self.cols:
            raise ValueError(
                f"shape mismatch: matrix has {self.cols} columns but "
                f"{count} shards were provided"
            )
        # Every row is fully written below (dense groups cover their span,
        # simple rows are copied/reduced/zeroed), so skip the upfront memset.
        out = np.empty((self.rows, length), dtype=np.uint8)

        for row, sources in self._simple_rows:
            if sources.size == 1:
                np.copyto(out[row], stacked[sources[0]])
            elif sources.size > 1:
                np.bitwise_xor.reduce(stacked[sources], axis=0, out=out[row])
            else:
                out[row] = 0

        block = max(min(int(block), length), 1)
        if self._gathered:
            # One lane buffer per group for the whole call: a fresh one per
            # block is large enough for malloc to map and fault in again
            # every time.
            buffers = [np.empty((self.cols, block), dtype=lane)
                       for *_, lane in self._gathered]
            for start in range(0, length, block):
                end = min(start + block, length)
                window = stacked[:, start:end]
                for (rows, _, tables, _), buffer in zip(self._gathered, buffers):
                    gathered = buffer[:, :end - start]
                    # Shard bytes index their 256-entry table as they are:
                    # ``take`` widens them itself, and a uint8 cannot leave
                    # the table.
                    for table, source, target in zip(tables, window, gathered):
                        table.take(source, out=target, mode="clip")
                    packed = np.bitwise_xor.reduce(gathered, axis=0)
                    lanes = packed.view(np.uint8).reshape(end - start, packed.itemsize)
                    if not _LITTLE_ENDIAN:
                        lanes = lanes[:, ::-1]
                    out[rows, start:end] = lanes[:, :rows.size].T

        if self._lone is not None:
            row, terms = self._lone
            target = out[row]
            sources = [(shard_bytes(shards[col]), table) for col, table in terms]
            for start in range(0, length, block):
                end = min(start + block, length)
                parts = [
                    source[start:end] if table is None
                    else source[start:end].translate(table)
                    for source, table in sources
                ]
                np.bitwise_xor.reduce(
                    np.frombuffer(b"".join(parts), dtype=np.uint8).reshape(
                        len(parts), end - start),
                    axis=0, out=target[start:end])
        return out
