"""High-level erasure codec: whole objects in, encoded chunks out.

The codec is the bridge between application-level objects (``bytes`` keyed by a
string) and the chunk-level world the backend, caches and Agar algorithm live
in.  It mirrors the role Longhair plays in the paper's modified YCSB client
(§V-A): encode on write, decode once ``k`` chunks have been gathered on read.
An encoded object is its metadata plus one block of its ``k + m`` chunk
payloads back to back; :class:`Chunk` objects are built from it on request.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.erasure.chunk import (BlockChunks, Chunk, ErasureCodingParams,
                                 ObjectMetadata, block_chunk)
from repro.erasure.reed_solomon import DecodingError, ReedSolomon


@dataclass(frozen=True)
class EncodedObject:
    """Result of encoding one object: its metadata plus its encoded block.

    ``block`` holds the ``k + m`` chunks' payloads back to back,
    ``metadata.chunk_size`` bytes each: the form the store keeps.
    """

    metadata: ObjectMetadata
    block: bytes

    @property
    def chunks(self) -> list[Chunk]:
        """All ``k + m`` chunks, built from the block on each call."""
        return [block_chunk(self.metadata, self.block, index)
                for index in range(self.metadata.params.total_chunks)]

    def data_chunks(self) -> list[Chunk]:
        """The first ``k`` chunks (original data)."""
        return [chunk for chunk in self.chunks if not chunk.is_parity]

    def parity_chunks(self) -> list[Chunk]:
        """The last ``m`` chunks (redundancy)."""
        return [chunk for chunk in self.chunks if chunk.is_parity]


class ErasureCodec:
    """Encode and decode whole objects with a systematic Reed-Solomon code.

    Args:
        params: the ``(k, m)`` parameters; defaults to the paper's RS(9, 3).

    Example:
        >>> from repro.erasure import ErasureCodec, ErasureCodingParams
        >>> codec = ErasureCodec(ErasureCodingParams(4, 2))
        >>> encoded = codec.encode("photo-1", b"x" * 100)
        >>> len(encoded.chunks)
        6
        >>> some = {c.index: c for c in encoded.chunks[2:]}
        >>> codec.decode(encoded.metadata, some) == b"x" * 100
        True
    """

    def __init__(self, params: ErasureCodingParams | None = None) -> None:
        self._params = params or ErasureCodingParams(9, 3)
        self._rs = ReedSolomon(self._params.data_chunks, self._params.parity_chunks)

    @property
    def params(self) -> ErasureCodingParams:
        """The ``(k, m)`` parameters this codec was built with."""
        return self._params

    def _encoded(self, key: str, size: int, chunk_size: int, block: bytes,
                 version: int) -> EncodedObject:
        """Package one object's encoded block as an :class:`EncodedObject`."""
        metadata = ObjectMetadata(key=key, size=size, params=self._params,
                                  chunk_size=chunk_size, version=version)
        return EncodedObject(metadata=metadata, block=block)

    def encode(self, key: str, data: bytes, version: int = 0) -> EncodedObject:
        """Encode an object into ``k + m`` chunks with real payloads."""
        shards = self._rs.encode(data)
        return self._encoded(key, len(data), shards[0].shape[0], b"".join(shards),
                             version)

    def encode_many(self, items: Sequence[tuple[str, bytes]],
                    version: int = 0) -> list[EncodedObject]:
        """Encode a batch of ``(key, data)`` objects with batched kernels.

        Objects of equal size are copied into the zero-padded rows of one
        ``(objects, k · shard)`` array and encoded through
        :meth:`ReedSolomon.encode_many` — one parity-operator application per
        size instead of one per object, which is what lets the per-call
        Python overhead amortise when populating a store or running an
        encode-heavy benchmark.  Each object's block is one row of the
        encoded ``(objects, k + m, shard)`` array.  Output order matches input
        order and every block is bit-identical to what :meth:`encode` would
        produce.
        """
        results: list[EncodedObject | None] = [None] * len(items)
        groups: dict[int, list[int]] = {}
        for position, (key, data) in enumerate(items):
            groups.setdefault(len(data), []).append(position)
        k = self._params.data_chunks
        for size, positions in groups.items():
            shard = max(self._rs.shard_size(size), 1)
            rows = np.zeros((len(positions), k * shard), dtype=np.uint8)
            for row, position in zip(rows, positions):
                row[:size] = np.frombuffer(items[position][1], dtype=np.uint8)
            encoded = self._rs.encode_many(rows.reshape(len(positions), k, shard))
            for row, position in enumerate(positions):
                results[position] = self._encoded(
                    items[position][0], size, shard, encoded[row].tobytes(), version)
        return results  # type: ignore[return-value] — every slot is filled above

    @staticmethod
    def _payloads(metadata: ObjectMetadata, chunks: Mapping[int, Chunk]) -> dict[int, bytes]:
        """Payloads of the payload-bearing chunks by index (virtual chunks are
        skipped), every one of the version ``metadata`` describes.

        A :class:`BlockChunks` view (what the store's ``get_chunks`` returns)
        hands over its payload slices without building a chunk; its chunks
        are all of the version of the record it was fetched from.

        Raises:
            DecodingError: a payload belongs to another version of the
                object — decoding across versions yields bytes of neither.
        """
        version = metadata.version
        if type(chunks) is BlockChunks:
            payloads = chunks.payloads()
            stored = chunks.metadata.version
            if payloads and stored != version:
                raise DecodingError(
                    f"chunk {next(iter(payloads))} of {metadata.key!r} is version "
                    f"{stored} but the object's metadata is version {version}"
                )
            return payloads
        payloads = {}
        for index, chunk in chunks.items():
            payload = chunk.payload
            if payload is None:
                continue
            if chunk.version != version:
                raise DecodingError(
                    f"chunk {index} of {metadata.key!r} is version {chunk.version} "
                    f"but the object's metadata is version {version}"
                )
            payloads[index] = payload
        return payloads

    def decode(self, metadata: ObjectMetadata, chunks: Mapping[int, Chunk]) -> bytes:
        """Reconstruct the original object from any ``k`` chunks.

        Args:
            metadata: the object's metadata (for the original length).
            chunks: mapping from chunk index to :class:`Chunk` (a plain
                ``dict`` or the store's :class:`BlockChunks` view); at least
                ``k`` entries with real payloads are required.

        Raises:
            DecodingError: if fewer than ``k`` payload-bearing chunks are
                given, or one of them is not of ``metadata.version``.
        """
        payloads = self._payloads(metadata, chunks)
        if len(payloads) < self._params.data_chunks:
            raise DecodingError(
                f"need {self._params.data_chunks} chunks with payloads, "
                f"got {len(payloads)}"
            )
        return self._rs.decode_data(payloads, metadata.size)

    def decoding_cost_estimate(self, object_size: int) -> float:
        """Rough decode cost in milliseconds for an object of ``object_size`` bytes.

        Used by the latency model to charge a CPU cost for reconstructing an
        object; calibrated to a few tens of ms per MB, the order of magnitude
        of Cauchy Reed-Solomon decoding on 2017-era hardware.
        """
        megabytes = object_size / (1024 * 1024)
        return 12.0 * megabytes * (1.0 + self._params.parity_chunks / max(self._params.data_chunks, 1))
