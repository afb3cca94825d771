"""The geo-distributed erasure-coded object store.

:class:`ErasureCodedStore` ties the codec and a placement policy into the
storage system of Fig. 1: ``put`` encodes an object and places its chunks
round-robin across regions; ``get_chunk`` serves individual chunks; the
metadata catalog records where every chunk lives so that clients (and Agar's
Region Manager) can plan reads without touching payloads.  The paper's
per-region buckets are dumb storage (wide-area latency is charged by the
latency model, not here), so the store keeps one record per object: its
metadata, placement included, and, for an object written with a payload, the
tuple of its ``k + m`` chunks.

Objects can be stored with real payloads (exercising the Reed-Solomon code) or
*virtually* (sizes and placement only), which is what the large-scale
experiments use; see :meth:`ErasureCodedStore.populate`.  A virtual object's
chunks are built only when asked for, and the engine's read path never asks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.backend.placement import PlacementPolicy, RoundRobinPlacement
from repro.erasure.chunk import Chunk, ChunkId, ErasureCodingParams, ObjectMetadata
from repro.erasure.codec import ErasureCodec
from repro.geo.topology import Topology


class ObjectNotFoundError(KeyError):
    """Raised when an object key is not present in the store's catalog."""


class ChunkNotFoundError(KeyError):
    """Raised when an object has no chunk at the requested index."""


@dataclass(frozen=True)
class StoreDescription:
    """Summary of a store's content, used in experiment reports."""

    object_count: int
    total_object_bytes: int
    total_stored_bytes: int
    chunks_per_object: int
    regions: tuple[str, ...]


class ErasureCodedStore:
    """Erasure-coded object store spanning the regions of a topology.

    Args:
        topology: the deployment (regions + latency model).
        params: erasure-coding parameters; defaults to the paper's RS(9, 3).
        placement: chunk placement policy; defaults to round-robin (Fig. 1).
        codec: optionally share a codec instance (e.g. a Vandermonde one).
    """

    def __init__(
        self,
        topology: Topology,
        params: ErasureCodingParams | None = None,
        placement: PlacementPolicy | None = None,
        codec: ErasureCodec | None = None,
    ) -> None:
        self._topology = topology
        self._params = params or ErasureCodingParams(9, 3)
        self._placement = placement or RoundRobinPlacement()
        self._codec = codec or ErasureCodec(self._params)
        self._catalog: dict[str, ObjectMetadata] = {}
        # The k + m chunks of each object written with a payload, by index.
        # A virtual object has no entry: its chunks are built on request.
        self._chunks: dict[str, tuple[Chunk, ...]] = {}
        # Each object's placement shape, kept from its first request until the
        # object is written again or deleted; equal shapes are one object.
        self._placement_shapes: dict[str, tuple[tuple[str, tuple[int, ...]], ...]] = {}
        self._shape_pool: dict[tuple, tuple] = {}

    # ------------------------------------------------------------------ #
    # Properties
    # ------------------------------------------------------------------ #
    @property
    def topology(self) -> Topology:
        """The deployment this store spans."""
        return self._topology

    @property
    def params(self) -> ErasureCodingParams:
        """The erasure-coding parameters in use."""
        return self._params

    @property
    def codec(self) -> ErasureCodec:
        """The codec used to encode and decode objects."""
        return self._codec

    def keys(self) -> list[str]:
        """All object keys currently stored, sorted."""
        return sorted(self._catalog)

    def __contains__(self, key: str) -> bool:
        return key in self._catalog

    def __len__(self) -> int:
        return len(self._catalog)

    # ------------------------------------------------------------------ #
    # Writes
    # ------------------------------------------------------------------ #
    def put(self, key: str, data: bytes, version: int = 0) -> ObjectMetadata:
        """Encode ``data`` and place its chunks across the regions."""
        encoded = self._codec.encode(key, data, version=version)
        return self._store(encoded.metadata, tuple(encoded.chunks))

    def put_many(self, items: Sequence[tuple[str, bytes]],
                 version: int = 0) -> list[ObjectMetadata]:
        """Encode and store a batch of ``(key, data)`` objects.

        The whole batch goes through :meth:`ErasureCodec.encode_many`, which
        applies the parity operator once per group of equally sized objects —
        the fast path for bulk ingest (:meth:`populate` with real payloads
        uses it).  Placement, metadata and chunks are identical to repeated
        :meth:`put` calls.
        """
        return [self._store(encoded.metadata, tuple(encoded.chunks))
                for encoded in self._codec.encode_many(items, version=version)]

    def put_virtual(self, key: str, object_size: int, version: int = 0) -> ObjectMetadata:
        """Store an object without payloads (metadata and placement only).

        The simulator's objects: the caching problem depends only on chunk
        sizes and placement, so no chunk is built until one is asked for.
        """
        params = self._codec.params
        metadata = ObjectMetadata(key=key, size=object_size, params=params,
                                  chunk_size=params.chunk_size(object_size),
                                  version=version)
        return self._store(metadata, None)

    def _store(self, metadata: ObjectMetadata,
               chunks: tuple[Chunk, ...] | None) -> ObjectMetadata:
        """Place the object's chunks and record it (``chunks`` is ``None``
        for a virtual object)."""
        key = metadata.key
        metadata.chunk_locations = dict(self._placement.place(
            key, metadata.params.total_chunks, self._topology.region_names))
        self._catalog[key] = metadata
        if chunks is None:
            self._chunks.pop(key, None)
        else:
            self._chunks[key] = chunks
        self._placement_shapes.pop(key, None)
        return metadata

    def populate(self, object_count: int, object_size: int, key_prefix: str = "object",
                 virtual: bool = True, seed: int = 0) -> list[str]:
        """Create the paper's working set: ``object_count`` objects of ``object_size`` bytes.

        Args:
            object_count: number of objects (the paper uses 300).
            object_size: size of each object in bytes (the paper uses 1 MB).
            key_prefix: keys are ``f"{key_prefix}-{i}"``.
            virtual: if True (default) chunks carry no payload, which keeps
                large experiments fast; if False, random payloads are encoded
                through the Reed-Solomon code.
            seed: seed for payload generation when ``virtual=False``.

        Returns:
            The list of keys created, in insertion order.
        """
        import numpy as np

        keys = [f"{key_prefix}-{index}" for index in range(object_count)]
        if virtual:
            for key in keys:
                self.put_virtual(key, object_size)
            return keys

        rng = np.random.default_rng(seed)
        # Real payloads go through the batched encode path; bounded batches
        # keep transient memory at a few dozen objects regardless of count.
        batch = 32
        for start in range(0, object_count, batch):
            items = [
                (key, rng.integers(0, 256, size=object_size, dtype=np.uint8).tobytes())
                for key in keys[start:start + batch]
            ]
            self.put_many(items)
        return keys

    def delete(self, key: str) -> None:
        """Remove an object and all of its chunks.

        Raises:
            ObjectNotFoundError: if the key is unknown.
        """
        self.metadata(key)
        del self._catalog[key]
        self._chunks.pop(key, None)
        self._placement_shapes.pop(key, None)

    # ------------------------------------------------------------------ #
    # Reads
    # ------------------------------------------------------------------ #
    def metadata(self, key: str) -> ObjectMetadata:
        """Return the metadata of ``key``.

        Raises:
            ObjectNotFoundError: if the key is unknown.
        """
        try:
            return self._catalog[key]
        except KeyError:
            raise ObjectNotFoundError(f"object {key!r} not found") from None

    def get_chunk(self, key: str, index: int) -> Chunk:
        """Fetch chunk ``index`` of ``key`` (payload-less for a virtual object)."""
        metadata = self.metadata(key)
        if index not in metadata.chunk_locations:
            raise ChunkNotFoundError(f"object {key!r} has no chunk {index}")
        stored = self._chunks.get(key)
        return stored[index] if stored is not None else _payloadless(metadata, index)

    def get_chunks(self, key: str, indices: Iterable[int]) -> dict[int, Chunk]:
        """Fetch several chunks of one object with a single catalog lookup.

        The serving tier's per-request fetch: one metadata resolution, then
        an index into the object's stored chunks.  Raises
        :class:`ChunkNotFoundError` on any unknown index.
        """
        metadata = self.metadata(key)
        locations = metadata.chunk_locations
        stored = self._chunks.get(key)
        chunks: dict[int, Chunk] = {}
        for index in indices:
            if index not in locations:
                raise ChunkNotFoundError(f"object {key!r} has no chunk {index}")
            chunks[index] = (stored[index] if stored is not None
                             else _payloadless(metadata, index))
        return chunks

    def chunk_region(self, key: str, index: int) -> str:
        """Return the region storing chunk ``index`` of ``key``."""
        metadata = self.metadata(key)
        try:
            return metadata.chunk_locations[index]
        except KeyError:
            raise ChunkNotFoundError(f"object {key!r} has no chunk {index}") from None

    def chunks_by_region(self, key: str) -> dict[str, list[int]]:
        """Group the chunk indices of ``key`` by hosting region."""
        metadata = self.metadata(key)
        grouped: dict[str, list[int]] = {name: [] for name in self._topology.region_names}
        for index, region in metadata.chunk_locations.items():
            grouped[region].append(index)
        for indices in grouped.values():
            indices.sort()
        return grouped

    def placement_shapes(self, keys: Sequence[str]
                         ) -> list[tuple[tuple[str, tuple[int, ...]], ...] | None]:
        """:meth:`chunks_by_region` of each key as a hashable ``((region, indices), …)`` tuple.

        Objects placed alike have the same shape (one shared tuple), which
        lets a caller share per-placement work between them; a key the store
        does not hold gets ``None``.  A shape is computed once per stored
        version of its object.
        """
        known = self._placement_shapes
        shapes = list(map(known.get, keys))
        if None in shapes:
            pool = self._shape_pool
            for position, key in enumerate(keys):
                if shapes[position] is None and key in self._catalog:
                    shape = tuple((region, tuple(indices))
                                  for region, indices in self.chunks_by_region(key).items())
                    shapes[position] = known[key] = pool.setdefault(shape, shape)
            if len(pool) > len(known):   # it holds shapes no stored object has any more
                self._shape_pool = {shape: shape for shape in known.values()}
        return shapes

    def get_object(self, key: str, prefer_data_chunks: bool = True) -> bytes:
        """Read and decode a full object (only for objects stored with payloads)."""
        metadata = self.metadata(key)
        wanted = metadata.params.data_chunks
        indices = metadata.data_chunk_indices + metadata.parity_chunk_indices
        if not prefer_data_chunks:
            indices = list(reversed(indices))
        collected: dict[int, Chunk] = {}
        for index in indices:
            chunk = self.get_chunk(key, index)
            if chunk.payload is None:
                continue
            collected[index] = chunk
            if len(collected) >= wanted:
                break
        return self._codec.decode(metadata, collected)

    # ------------------------------------------------------------------ #
    # Reporting
    # ------------------------------------------------------------------ #
    def describe(self) -> StoreDescription:
        """Summarise what is stored (object count, bytes, chunk fan-out)."""
        catalog = self._catalog.values()
        total_object_bytes = sum(meta.size for meta in catalog)
        total_stored_bytes = sum(meta.chunk_size * len(meta.chunk_locations)
                                 for meta in catalog)
        return StoreDescription(
            object_count=len(self._catalog),
            total_object_bytes=total_object_bytes,
            total_stored_bytes=total_stored_bytes,
            chunks_per_object=self._params.total_chunks,
            regions=tuple(self._topology.region_names),
        )


def _payloadless(metadata: ObjectMetadata, index: int) -> Chunk:
    """Chunk ``index`` of a virtual object: its id, size and version, no payload."""
    return Chunk(chunk_id=ChunkId(key=metadata.key, index=index),
                 size=metadata.chunk_size, payload=None,
                 is_parity=index >= metadata.params.data_chunks,
                 version=metadata.version)
