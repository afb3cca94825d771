"""Pluggable GF(256) kernel backends for the Reed-Solomon codec.

The coding hot path is one operation: ``matrix @ shards`` over GF(256)
(parity generation on encode, inverse application on decode).  This module
makes the kernel that executes it *pluggable*:

* ``numpy`` — the packed-gather kernels of :mod:`repro.erasure.galois`
  (:class:`~repro.erasure.galois.PackedGFMatrix`).  Always available; the
  default.
* ``numba`` — flat JIT-compiled mul/addmul/matmul loops (``nopython`` +
  ``parallel``).  **Gated**: numba is imported lazily and is never a hard
  dependency — when it is missing (or fails its capability probe) the
  registry falls back to ``numpy`` with a one-time warning.
* ``numba-packed`` — JIT execution of the *same packed layout* the numpy
  backend compiles (:meth:`PackedGFMatrix.packed_groups`): one ``uint64``
  gather per (column, byte) accumulates up to eight output rows, unpacked in
  registers instead of through a lane view.  Gated exactly like ``numba``.
* ``naive`` — scalar ``gf_mul`` double loops.  The executable definition the
  fast backends are tested against; far too slow for real payloads.

Selection order for :func:`get_backend`:

1. an explicit argument (a backend name or instance),
2. the ``REPRO_CODEC_BACKEND`` environment variable,
3. the default, ``numpy``.

Every backend produces **bit-identical** output (asserted in
``tests/erasure/test_backends.py``): they all evaluate the same field
arithmetic from the same multiplication table, so swapping backends can only
change throughput, never results.  Capability probes run once per process
and are cached; see :func:`probe_backend`.
"""

from __future__ import annotations

import os
import warnings
from abc import ABC, abstractmethod
from typing import Callable, Protocol

import numpy as np

from repro.erasure.galois import (
    PackedGFMatrix,
    gf_addmul_bytes,
    gf_mul,
    gf_mul_bytes,
    gf_multiplication_table,
    shard_matrix,
)

#: Environment variable consulted when no explicit backend is requested.
BACKEND_ENV_VAR = "REPRO_CODEC_BACKEND"

#: Backend used when neither an argument nor the environment chooses one.
DEFAULT_BACKEND = "numpy"


class MatrixOperator(Protocol):
    """A coefficient matrix compiled for repeated application by one backend."""

    def apply(self, shards) -> np.ndarray:
        """Compute ``matrix @ shards`` over GF(256).

        ``shards`` is a ``(cols, length)`` array or a sequence of ``cols``
        equal-length buffers (see :func:`repro.erasure.galois.shard_matrix`).
        """
        ...


class CodecBackend(ABC):
    """One implementation of the GF(256) kernel tier.

    Backends expose the three flat kernels (``mul_bytes``, ``addmul_bytes``,
    ``matmul``) plus :meth:`compile_matrix`, which pre-processes a fixed
    coefficient matrix for repeated application — the shape the Reed-Solomon
    codec uses (the parity rows never change; decode matrices are cached per
    survivor pattern).
    """

    #: Registry name of the backend.
    name: str = "abstract"

    @abstractmethod
    def compile_matrix(self, matrix: np.ndarray) -> MatrixOperator:
        """Compile a ``(rows, cols)`` coefficient matrix for repeated use."""

    @abstractmethod
    def mul_bytes(self, coefficient: int, data: np.ndarray) -> np.ndarray:
        """Return ``coefficient * data`` over GF(256) as a new array."""

    @abstractmethod
    def addmul_bytes(self, accumulator: np.ndarray, coefficient: int,
                     data: np.ndarray) -> None:
        """In-place ``accumulator ^= coefficient * data`` over GF(256)."""

    def matmul(self, matrix: np.ndarray, shards: np.ndarray) -> np.ndarray:
        """One-shot ``matrix @ shards`` (compile + apply)."""
        return self.compile_matrix(np.asarray(matrix, dtype=np.uint8)).apply(shards)


def _check_matmul_shapes(matrix: np.ndarray, shards: np.ndarray) -> None:
    if matrix.ndim != 2 or shards.ndim != 2:
        raise ValueError("matrix and shards must both be 2-D arrays")
    if matrix.shape[1] != shards.shape[0]:
        raise ValueError(
            f"shape mismatch: matrix has {matrix.shape[1]} columns but "
            f"{shards.shape[0]} shards were provided"
        )


# ---------------------------------------------------------------------- #
# numpy — the packed-gather kernels (always available, the default)
# ---------------------------------------------------------------------- #
class NumpyBackend(CodecBackend):
    """Packed-gather kernels on NumPy (see :class:`PackedGFMatrix`)."""

    name = "numpy"

    def compile_matrix(self, matrix: np.ndarray) -> MatrixOperator:
        return PackedGFMatrix(matrix)

    def mul_bytes(self, coefficient: int, data: np.ndarray) -> np.ndarray:
        return gf_mul_bytes(coefficient, data)

    def addmul_bytes(self, accumulator: np.ndarray, coefficient: int,
                     data: np.ndarray) -> None:
        gf_addmul_bytes(accumulator, coefficient, data)


# ---------------------------------------------------------------------- #
# naive — scalar reference loops (the executable definition)
# ---------------------------------------------------------------------- #
class _NaiveOperator:
    """A matrix applied by the defining scalar double loop."""

    def __init__(self, matrix: np.ndarray) -> None:
        matrix = np.asarray(matrix, dtype=np.uint8)
        if matrix.ndim != 2:
            raise ValueError("matrix must be a 2-D array")
        self.matrix = matrix

    def apply(self, shards) -> np.ndarray:
        shards = shard_matrix(shards)
        _check_matmul_shapes(self.matrix, shards)
        rows, cols = self.matrix.shape
        out = np.zeros((rows, shards.shape[1]), dtype=np.uint8)
        for row in range(rows):
            for col in range(cols):
                coefficient = int(self.matrix[row, col])
                if coefficient == 0:
                    continue
                column = shards[col]
                accumulator = out[row]
                for position in range(shards.shape[1]):
                    accumulator[position] ^= gf_mul(coefficient, int(column[position]))
        return out


class NaiveBackend(CodecBackend):
    """Scalar ``gf_mul`` loops: slow, obviously correct, always available."""

    name = "naive"

    def compile_matrix(self, matrix: np.ndarray) -> MatrixOperator:
        return _NaiveOperator(matrix)

    def mul_bytes(self, coefficient: int, data: np.ndarray) -> np.ndarray:
        data = np.asarray(data, dtype=np.uint8)
        out = np.zeros_like(data)
        flat_in, flat_out = data.reshape(-1), out.reshape(-1)
        for position in range(flat_in.shape[0]):
            flat_out[position] = gf_mul(coefficient, int(flat_in[position]))
        return out

    def addmul_bytes(self, accumulator: np.ndarray, coefficient: int,
                     data: np.ndarray) -> None:
        # XOR through ufunc out= so non-contiguous accumulators update in
        # place (reshape(-1) on a strided view would copy and drop writes).
        np.bitwise_xor(accumulator, self.mul_bytes(coefficient, data),
                       out=accumulator)


# ---------------------------------------------------------------------- #
# numba — optional JIT tier (lazy import, never a hard dependency)
# ---------------------------------------------------------------------- #
#: Length-axis block (bytes) each parallel worker processes; sized so a
#: block's shard slices and output stay L2-resident per thread.
_NUMBA_BLOCK = 1 << 16


def _compile_numba_kernels():
    """Import numba and compile the flat kernels (raises if numba is absent).

    The kernels take the 256×256 multiplication table as an argument so they
    stay pure ``nopython`` code with no global typed closures.  ``matmul``
    parallelises over length-axis blocks (rows are ≤ k + m ≈ 12, far too few
    lanes to feed ``prange``).
    """
    import numba  # deferred: this module must import fine without numba

    @numba.njit(nogil=True, parallel=True, cache=False)
    def matmul_into(matrix, shards, mul_table, out):  # pragma: no cover - JIT
        rows, cols = matrix.shape
        length = shards.shape[1]
        blocks = (length + _NUMBA_BLOCK - 1) // _NUMBA_BLOCK
        for block_index in numba.prange(blocks):
            start = block_index * _NUMBA_BLOCK
            end = min(start + _NUMBA_BLOCK, length)
            for row in range(rows):
                for position in range(start, end):
                    out[row, position] = 0
                for col in range(cols):
                    coefficient = matrix[row, col]
                    if coefficient == 0:
                        continue
                    if coefficient == 1:
                        for position in range(start, end):
                            out[row, position] ^= shards[col, position]
                    else:
                        table = mul_table[coefficient]
                        for position in range(start, end):
                            out[row, position] ^= table[shards[col, position]]

    @numba.njit(nogil=True, parallel=True, cache=False)
    def mul_into(table, data, out):  # pragma: no cover - JIT
        for position in numba.prange(data.shape[0]):
            out[position] = table[data[position]]

    @numba.njit(nogil=True, parallel=True, cache=False)
    def addmul_into(accumulator, table, data):  # pragma: no cover - JIT
        for position in numba.prange(data.shape[0]):
            accumulator[position] ^= table[data[position]]

    return matmul_into, mul_into, addmul_into


class _NumbaOperator:
    """A matrix bound to the compiled numba matmul kernel."""

    def __init__(self, matrix: np.ndarray, matmul_into, mul_table: np.ndarray) -> None:
        matrix = np.ascontiguousarray(np.asarray(matrix, dtype=np.uint8))
        if matrix.ndim != 2:
            raise ValueError("matrix must be a 2-D array")
        self.matrix = matrix
        self._matmul_into = matmul_into
        self._mul_table = mul_table

    def apply(self, shards) -> np.ndarray:
        shards = np.ascontiguousarray(shard_matrix(shards))
        _check_matmul_shapes(self.matrix, shards)
        out = np.empty((self.matrix.shape[0], shards.shape[1]), dtype=np.uint8)
        self._matmul_into(self.matrix, shards, self._mul_table, out)
        return out


class NumbaBackend(CodecBackend):
    """JIT-compiled flat GF(256) loops (``nopython`` + ``parallel``).

    Construction compiles nothing; the kernels are built on first use so
    merely instantiating the backend stays cheap.  Construction *does* import
    numba, so it raises ``ImportError`` when numba is absent — which is what
    the registry's capability probe catches.
    """

    name = "numba"

    def __init__(self) -> None:
        import numba  # noqa: F401 — availability check only; kernels compile lazily
        self._kernels = None
        self._mul_table = np.ascontiguousarray(gf_multiplication_table())

    def _ensure_kernels(self):
        if self._kernels is None:
            self._kernels = _compile_numba_kernels()
        return self._kernels

    def compile_matrix(self, matrix: np.ndarray) -> MatrixOperator:
        matmul_into, _, _ = self._ensure_kernels()
        return _NumbaOperator(matrix, matmul_into, self._mul_table)

    def mul_bytes(self, coefficient: int, data: np.ndarray) -> np.ndarray:
        data = np.ascontiguousarray(np.asarray(data, dtype=np.uint8))
        if coefficient == 0:
            return np.zeros_like(data)
        if coefficient == 1:
            return data.copy()
        _, mul_into, _ = self._ensure_kernels()
        out = np.empty_like(data)
        mul_into(self._mul_table[coefficient], data.reshape(-1), out.reshape(-1))
        return out

    def addmul_bytes(self, accumulator: np.ndarray, coefficient: int,
                     data: np.ndarray) -> None:
        if coefficient == 0:
            return
        data = np.ascontiguousarray(np.asarray(data, dtype=np.uint8))
        if coefficient == 1:
            np.bitwise_xor(accumulator, data, out=accumulator)
            return
        if not accumulator.flags.c_contiguous:
            # reshape(-1) on a strided view would copy and drop the update.
            np.bitwise_xor(accumulator, self.mul_bytes(coefficient, data),
                           out=accumulator)
            return
        _, _, addmul_into = self._ensure_kernels()
        addmul_into(accumulator.reshape(-1), self._mul_table[coefficient],
                    data.reshape(-1))


def _compile_numba_packed_kernel():
    """Compile the packed-gather matmul kernel (raises if numba is absent).

    One group of up to eight dense output rows per call: each input byte
    costs a single 64-bit table gather (instead of one 8-bit gather per
    row), the XOR reduction over columns runs in a register, and the packed
    lanes are unpacked with shifts — the same arithmetic
    :meth:`PackedGFMatrix.apply` performs through numpy views, so the output
    is bit-identical by construction.
    """
    import numba  # deferred: this module must import fine without numba

    @numba.njit(nogil=True, parallel=True, cache=False)
    def packed_group_into(shards, tables, cols_used, rows_out, out):  # pragma: no cover - JIT
        length = shards.shape[1]
        used = cols_used.shape[0]
        row_count = rows_out.shape[0]
        blocks = (length + _NUMBA_BLOCK - 1) // _NUMBA_BLOCK
        for block_index in numba.prange(blocks):
            start = block_index * _NUMBA_BLOCK
            end = min(start + _NUMBA_BLOCK, length)
            for position in range(start, end):
                accumulator = np.uint64(0)
                for j in range(used):
                    col = cols_used[j]
                    accumulator ^= tables[col, shards[col, position]]
                packed = accumulator
                for r in range(row_count):
                    out[rows_out[r], position] = np.uint8(packed & np.uint64(0xFF))
                    packed = packed >> np.uint64(8)

    return packed_group_into


class _NumbaPackedOperator:
    """A matrix in the numpy backend's packed layout, run by the JIT kernel.

    The packing itself (row classification, group tables) comes straight
    from :class:`PackedGFMatrix` — both executors share one layout, they
    differ only in how the gathered lanes are reduced and unpacked.
    XOR-only rows stay on the numpy fast path (copies and ``bitwise_xor``
    reductions saturate memory bandwidth already).
    """

    def __init__(self, matrix: np.ndarray, packed_group_into) -> None:
        self._packed = PackedGFMatrix(matrix)
        self.matrix = self._packed.matrix
        self._kernel = packed_group_into
        self._groups = [
            (
                rows.astype(np.int64),
                # uint64 uniformly: zero-extending a narrower lane table keeps
                # the packed bits in place and gives the kernel one signature.
                np.ascontiguousarray(tables.astype(np.uint64)),
                np.flatnonzero(group.any(axis=0)).astype(np.int64),
            )
            for rows, group, tables, _lane in self._packed.packed_groups
        ]

    def apply(self, shards) -> np.ndarray:
        shards = np.ascontiguousarray(shard_matrix(shards))
        _check_matmul_shapes(self.matrix, shards)
        out = np.empty((self._packed.rows, shards.shape[1]), dtype=np.uint8)
        for row, sources in self._packed.simple_rows:
            if sources.size == 1:
                np.copyto(out[row], shards[sources[0]])
            elif sources.size > 1:
                np.bitwise_xor.reduce(shards[sources], axis=0, out=out[row])
            else:
                out[row] = 0
        for rows, tables, cols_used in self._groups:
            self._kernel(shards, tables, cols_used, rows, out)
        return out


class NumbaPackedBackend(NumbaBackend):
    """JIT-compiled packed-gather kernels — numba running numpy's layout.

    The flat :class:`NumbaBackend` pays ``rows`` table gathers per input
    byte; this backend compiles matrices through :class:`PackedGFMatrix`
    and pays ``ceil(rows / 8)``, exactly like the numpy backend, while
    keeping the JIT loop's freedom from transient index/accumulator
    buffers.  The flat ``mul_bytes``/``addmul_bytes`` kernels are inherited
    (single-coefficient operations have nothing to pack).  Gated like
    ``numba``: constructing it imports numba, and the registry's probe
    falls back to ``numpy`` when that fails.
    """

    name = "numba-packed"

    def __init__(self) -> None:
        super().__init__()
        self._packed_kernel = None

    def _ensure_packed_kernel(self):
        if self._packed_kernel is None:
            self._packed_kernel = _compile_numba_packed_kernel()
        return self._packed_kernel

    def compile_matrix(self, matrix: np.ndarray) -> MatrixOperator:
        return _NumbaPackedOperator(matrix, self._ensure_packed_kernel())


# ---------------------------------------------------------------------- #
# Registry, capability probing and selection
# ---------------------------------------------------------------------- #
_FACTORIES: dict[str, Callable[[], CodecBackend]] = {
    "numpy": NumpyBackend,
    "naive": NaiveBackend,
    "numba": NumbaBackend,
    "numba-packed": NumbaPackedBackend,
}

#: Singleton backend instances, created on first successful probe.
_INSTANCES: dict[str, CodecBackend] = {}

#: One-time probe outcomes: ``None`` = available, str = failure reason.
_PROBE_RESULTS: dict[str, str | None] = {}

#: Backends we already warned about falling back from (warn once each).
_WARNED: set[str] = set()


def register_backend(name: str, factory: Callable[[], CodecBackend]) -> None:
    """Register (or replace) a backend factory under ``name``.

    Mostly a test seam: the suite registers broken factories to exercise the
    probe/fallback machinery without uninstalling anything.  Names are
    case-insensitive (stored lowercased, matching :func:`get_backend`).
    """
    name = name.strip().lower()
    _FACTORIES[name] = factory
    _PROBE_RESULTS.pop(name, None)
    _INSTANCES.pop(name, None)
    _WARNED.discard(name)


def backend_names() -> tuple[str, ...]:
    """All registered backend names (available or not)."""
    return tuple(_FACTORIES)


def probe_backend(name: str) -> str | None:
    """Probe ``name`` once: construct it and verify a small matmul.

    Returns ``None`` when the backend works, otherwise a human-readable
    failure reason.  Results are cached for the life of the process (the
    probe is what triggers numba's import, so re-probing would be wasted
    work).
    """
    if name in _PROBE_RESULTS:
        return _PROBE_RESULTS[name]
    factory = _FACTORIES.get(name)
    if factory is None:
        reason = f"unknown backend {name!r} (registered: {', '.join(_FACTORIES)})"
        _PROBE_RESULTS[name] = reason
        return reason
    try:
        backend = factory()
        # Tiny correctness check against the table the backends share: a
        # backend that imports but miscompiles must not be selected.
        matrix = np.array([[1, 2], [3, 4]], dtype=np.uint8)
        shards = np.arange(8, dtype=np.uint8).reshape(2, 4)
        expected = NumpyBackend().matmul(matrix, shards)
        if not np.array_equal(backend.matmul(matrix, shards), expected):
            raise RuntimeError("probe matmul produced incorrect output")
    except Exception as error:  # noqa: BLE001 — any failure disables the backend
        reason = f"{type(error).__name__}: {error}"
        _PROBE_RESULTS[name] = reason
        return reason
    _PROBE_RESULTS[name] = None
    _INSTANCES[name] = backend
    return None


def backend_available(name: str) -> bool:
    """True when ``name`` passes (or already passed) its capability probe."""
    return probe_backend(name) is None


def available_backends() -> dict[str, bool]:
    """Probe every registered backend: ``{name: available}``."""
    return {name: backend_available(name) for name in _FACTORIES}


def default_backend_name() -> str:
    """The name selection falls back to: ``$REPRO_CODEC_BACKEND`` or numpy."""
    return os.environ.get(BACKEND_ENV_VAR, "").strip() or DEFAULT_BACKEND


def get_backend(choice: str | CodecBackend | None = None, *,
                fallback: bool = True) -> CodecBackend:
    """Resolve a kernel backend.

    Args:
        choice: a :class:`CodecBackend` instance (returned as-is), a backend
            name, or ``None`` to consult ``$REPRO_CODEC_BACKEND`` and then
            the default.
        fallback: when True (default), an unavailable choice degrades to the
            ``numpy`` backend with a one-time warning; when False it raises.

    Raises:
        ValueError: if the requested backend is unavailable and ``fallback``
            is False.
    """
    if isinstance(choice, CodecBackend):
        return choice
    name = (choice or default_backend_name()).strip().lower()
    reason = probe_backend(name)
    if reason is None:
        return _INSTANCES[name]
    if not fallback:
        raise ValueError(f"codec backend {name!r} is unavailable: {reason}")
    if name not in _WARNED:
        _WARNED.add(name)
        warnings.warn(
            f"codec backend {name!r} is unavailable ({reason}); "
            f"falling back to {DEFAULT_BACKEND!r}",
            RuntimeWarning,
            stacklevel=2,
        )
    probe_backend(DEFAULT_BACKEND)
    return _INSTANCES[DEFAULT_BACKEND]
