"""Chunk and object metadata types shared by the codec, backend and caches.

A stored object is split into ``k`` data chunks and ``m`` redundant chunks
(paper §II-A).  Throughout the system chunks are identified by a
:class:`ChunkId` — the object key plus the chunk index — so the cache, the
backend buckets and the Agar algorithm can all reason about individual chunks
without carrying the payload around.

An encoded object's payloads live in one ``bytes`` block, its ``k + m``
chunks back to back (:func:`block_chunk`); :class:`BlockChunks` is the
read-only ``{index: Chunk}`` view of some of them that the store hands out.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from dataclasses import dataclass, field


@dataclass(frozen=True, slots=True)
class ErasureCodingParams:
    """Erasure-coding parameters ``(k, m)`` plus payload geometry.

    Attributes:
        data_chunks: ``k``, the number of data chunks required to reconstruct.
        parity_chunks: ``m``, the number of redundant chunks.
    """

    data_chunks: int
    parity_chunks: int

    def __post_init__(self) -> None:
        if self.data_chunks <= 0:
            raise ValueError("data_chunks (k) must be positive")
        if self.parity_chunks < 0:
            raise ValueError("parity_chunks (m) must be non-negative")
        if self.data_chunks + self.parity_chunks > 256:
            raise ValueError("k + m must not exceed 256 for a GF(256) code")

    @property
    def total_chunks(self) -> int:
        """Total number of chunks produced per object (``k + m``)."""
        return self.data_chunks + self.parity_chunks

    def chunk_size(self, object_size: int) -> int:
        """Size in bytes of each chunk for an object of ``object_size`` bytes.

        Objects are padded so that every chunk has the same size.
        """
        if object_size < 0:
            raise ValueError("object_size must be non-negative")
        return -(-object_size // self.data_chunks)  # ceiling division


#: The deployment used throughout the paper: RS(k=9, m=3) (§II-C, Fig. 1).
PAPER_PARAMS = ErasureCodingParams(data_chunks=9, parity_chunks=3)


@dataclass(frozen=True, slots=True)
class ChunkId:
    """Globally unique identifier of one erasure-coded chunk.

    Attributes:
        key: the object key the chunk belongs to.
        index: chunk index in ``[0, k + m)``; indices below ``k`` are data
            chunks, the rest are parity chunks.
    """

    key: str
    index: int
    #: Hash cached at construction: chunk ids sit on every cache lookup of the
    #: simulation hot path, and the read strategies' indexed plans reuse one
    #: id object per (key, chunk) — hashing the (key, index) tuple on every
    #: dict probe was a measurable cost.  Same value the generated dataclass
    #: hash would produce.
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ValueError("chunk index must be non-negative")
        object.__setattr__(self, "_hash", hash((self.key, self.index)))

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return f"{self.key}#{self.index}"


@dataclass(slots=True)
class Chunk:
    """One erasure-coded chunk: identifier, payload and bookkeeping.

    The payload may be ``None`` for *virtual* chunks used by the simulator,
    where only sizes and placement matter; the codec always produces real
    payloads.
    """

    chunk_id: ChunkId
    size: int
    payload: bytes | None = None
    is_parity: bool = False
    version: int = 0

    def __post_init__(self) -> None:
        if self.size < 0:
            raise ValueError("chunk size must be non-negative")
        if self.payload is not None and len(self.payload) != self.size:
            raise ValueError(
                f"payload length {len(self.payload)} does not match declared size {self.size}"
            )

    @property
    def key(self) -> str:
        """Object key this chunk belongs to."""
        return self.chunk_id.key

    @property
    def index(self) -> int:
        """Chunk index within the object."""
        return self.chunk_id.index


@dataclass(slots=True)
class ObjectMetadata:
    """Metadata describing a stored object and its chunk layout.

    Attributes:
        key: object key.
        size: original (unpadded) object size in bytes.
        params: erasure-coding parameters used to encode it.
        chunk_size: size of each chunk in bytes.
        version: monotonically increasing version (used by the write extension).
        chunk_locations: mapping from chunk index to the region name storing it.
    """

    key: str
    size: int
    params: ErasureCodingParams
    chunk_size: int
    version: int = 0
    chunk_locations: dict[int, str] = field(default_factory=dict)

    @property
    def data_chunk_indices(self) -> list[int]:
        """Indices of the data chunks (``0 .. k-1``)."""
        return list(range(self.params.data_chunks))

    @property
    def parity_chunk_indices(self) -> list[int]:
        """Indices of the parity chunks (``k .. k+m-1``)."""
        return list(range(self.params.data_chunks, self.params.total_chunks))


def block_chunk(metadata: ObjectMetadata, block: bytes | None, index: int) -> Chunk:
    """Chunk ``index`` of the object ``metadata`` describes, built anew.

    ``block`` is the object's ``k + m`` encoded chunks back to back,
    ``metadata.chunk_size`` bytes each; ``None`` (a virtual object) gives a
    chunk with its id, size and version but no payload.
    """
    size = metadata.chunk_size
    payload = None if block is None else block[index * size:(index + 1) * size]
    return Chunk(ChunkId(metadata.key, index), size, payload,
                 index >= metadata.params.data_chunks, metadata.version)


class BlockChunks(Mapping):
    """Read-only ``{index: Chunk}`` view of some chunks of one stored object.

    Holds the object's metadata, its encoded block (``None`` for a virtual
    object) and the chosen indices in the order asked for.  Looking an index
    up builds its :class:`Chunk` (:func:`block_chunk`) each time; the codec
    takes the payloads straight from the block (:meth:`payloads`), so a
    decode builds no chunk.
    """

    __slots__ = ("metadata", "block", "_indices")

    def __init__(self, metadata: ObjectMetadata, block: bytes | None,
                 indices: dict[int, None]) -> None:
        self.metadata = metadata
        self.block = block
        self._indices = indices

    def __getitem__(self, index: int) -> Chunk:
        if index not in self._indices:
            raise KeyError(index)
        return block_chunk(self.metadata, self.block, index)

    def __iter__(self) -> Iterator[int]:
        return iter(self._indices)

    def __len__(self) -> int:
        return len(self._indices)

    def __contains__(self, index: object) -> bool:
        return index in self._indices

    def payloads(self) -> dict[int, bytes]:
        """The chosen chunks' payloads by index; empty for a virtual object."""
        block = self.block
        if block is None:
            return {}
        size = self.metadata.chunk_size
        return {index: block[index * size:(index + 1) * size] for index in self._indices}
