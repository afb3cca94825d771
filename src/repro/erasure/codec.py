"""High-level erasure codec: whole objects in, :class:`Chunk` objects out.

The codec is the bridge between application-level objects (``bytes`` keyed by a
string) and the chunk-level world the backend, caches and Agar algorithm live
in.  It mirrors the role Longhair plays in the paper's modified YCSB client
(§V-A): encode on write, decode once ``k`` chunks have been gathered on read.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.erasure.backends import CodecBackend
from repro.erasure.chunk import Chunk, ChunkId, ErasureCodingParams, ObjectMetadata
from repro.erasure.reed_solomon import DecodingError, ReedSolomon


@dataclass(frozen=True)
class EncodedObject:
    """Result of encoding one object: its metadata plus all ``k + m`` chunks."""

    metadata: ObjectMetadata
    chunks: list[Chunk]

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
        construction: Reed-Solomon matrix construction (``"cauchy"`` or
            ``"vandermonde"``).
        backend: GF(256) kernel backend name or instance (see
            :mod:`repro.erasure.backends`); ``None`` consults
            ``$REPRO_CODEC_BACKEND`` and defaults to ``numpy``.

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

    def __init__(self, params: ErasureCodingParams | None = None, construction: str = "cauchy",
                 backend: str | CodecBackend | None = None) -> None:
        self._params = params or ErasureCodingParams(9, 3)
        self._rs = ReedSolomon(self._params.data_chunks, self._params.parity_chunks,
                               construction, backend=backend)

    @property
    def params(self) -> ErasureCodingParams:
        """The ``(k, m)`` parameters this codec was built with."""
        return self._params

    @property
    def backend_name(self) -> str:
        """Name of the GF(256) kernel backend executing this codec."""
        return self._rs.backend.name

    def _wrap_shards(self, key: str, size: int, shards: Sequence[np.ndarray],
                     version: int) -> EncodedObject:
        """Package encoded shard arrays as an :class:`EncodedObject`."""
        chunk_size = shards[0].shape[0] if len(shards) else 0
        metadata = ObjectMetadata(
            key=key,
            size=size,
            params=self._params,
            chunk_size=chunk_size,
            version=version,
        )
        chunks = []
        for index, shard in enumerate(shards):
            chunks.append(
                Chunk(
                    chunk_id=ChunkId(key=key, index=index),
                    size=chunk_size,
                    payload=shard.tobytes(),
                    is_parity=index >= self._params.data_chunks,
                    version=version,
                )
            )
        return EncodedObject(metadata=metadata, chunks=chunks)

    def encode(self, key: str, data: bytes, version: int = 0) -> EncodedObject:
        """Encode an object into ``k + m`` chunks with real payloads."""
        return self._wrap_shards(key, len(data), self._rs.encode(data), version)

    def encode_many(self, items: Sequence[tuple[str, bytes]],
                    version: int = 0) -> list[EncodedObject]:
        """Encode a batch of ``(key, data)`` objects with batched kernels.

        Objects are grouped by shard size (objects of equal size share a
        group) and each group is encoded through
        :meth:`ReedSolomon.encode_many` — one parity-operator application per
        group instead of one per object, which is what lets the per-call
        Python overhead amortise when populating a store or running an
        encode-heavy benchmark.  Output order matches input order and every
        chunk is bit-identical to what :meth:`encode` would produce.
        """
        results: list[EncodedObject | None] = [None] * len(items)
        groups: dict[int, list[int]] = {}
        for position, (key, data) in enumerate(items):
            groups.setdefault(self._rs.shard_size(len(data)), []).append(position)
        for positions in groups.values():
            stack = np.stack([self._rs.split(items[position][1])
                              for position in positions])
            encoded = self._rs.encode_many(stack)
            for row, position in enumerate(positions):
                key, data = items[position]
                shards = encoded[row]
                results[position] = self._wrap_shards(
                    key, len(data), [shards[i] for i in range(shards.shape[0])],
                    version,
                )
        return results  # type: ignore[return-value] — every slot is filled above

    def encode_virtual(self, key: str, object_size: int, version: int = 0) -> EncodedObject:
        """Encode an object *virtually*: correct sizes and ids, no payloads.

        The simulator uses virtual chunks so experiments with hundreds of 1 MB
        objects do not spend their time copying bytes; the caching problem only
        depends on chunk sizes and placement.
        """
        chunk_size = self._params.chunk_size(object_size)
        metadata = ObjectMetadata(
            key=key,
            size=object_size,
            params=self._params,
            chunk_size=chunk_size,
            version=version,
        )
        chunks = [
            Chunk(
                chunk_id=ChunkId(key=key, index=index),
                size=chunk_size,
                payload=None,
                is_parity=index >= self._params.data_chunks,
                version=version,
            )
            for index in range(self._params.total_chunks)
        ]
        return EncodedObject(metadata=metadata, chunks=chunks)

    @staticmethod
    def _payloads(metadata: ObjectMetadata, chunks: dict[int, Chunk]) -> dict[int, bytes]:
        """Payloads of the payload-bearing chunks by index (virtual chunks are
        skipped), every one of the version ``metadata`` describes.

        Raises:
            DecodingError: a payload belongs to another version of the
                object — decoding across versions yields bytes of neither.
        """
        version = metadata.version
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

    def decode(self, metadata: ObjectMetadata, chunks: dict[int, Chunk]) -> bytes:
        """Reconstruct the original object from any ``k`` chunks.

        Args:
            metadata: the object's metadata (for the original length).
            chunks: mapping from chunk index to :class:`Chunk`; at least ``k``
                entries with real payloads are required.

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

    def decode_many(self, objects: Sequence[tuple[ObjectMetadata, dict[int, Chunk]]]
                    ) -> list[bytes]:
        """Decode a batch of objects with batched kernels.

        Objects are grouped by (chunk size, surviving-chunk pattern); each
        group is reconstructed through :meth:`ReedSolomon.decode_many` with
        one decode-operator application, so degraded reads of many same-shape
        objects (the common case after losing a region) amortise their Python
        overhead.  Output order matches input order; every payload is
        bit-identical to per-object :meth:`decode`.
        """
        results: list[bytes | None] = [None] * len(objects)
        groups: dict[tuple[int, tuple[int, ...]], list[int]] = {}
        arrays: list[dict[int, np.ndarray]] = []
        for position, (metadata, chunks) in enumerate(objects):
            with_payload = {
                index: np.frombuffer(payload, dtype=np.uint8)
                for index, payload in self._payloads(metadata, chunks).items()
            }
            if len(with_payload) < self._params.data_chunks:
                raise DecodingError(
                    f"need {self._params.data_chunks} chunks with payloads for "
                    f"{metadata.key!r}, got {len(with_payload)}"
                )
            # decode_shards uses the k lowest survivor indices; group by them.
            survivors = tuple(sorted(with_payload)[: self._params.data_chunks])
            arrays.append({index: with_payload[index] for index in survivors})
            shard_len = arrays[-1][survivors[0]].shape[0] if survivors else 0
            groups.setdefault((shard_len, survivors), []).append(position)
        for (shard_len, survivors), positions in groups.items():
            stack = np.stack([
                np.stack([arrays[position][index] for index in survivors])
                for position in positions
            ])
            decoded = self._rs.decode_many(stack, survivors)
            for row, position in enumerate(positions):
                metadata = objects[position][0]
                flat = decoded[row].reshape(-1)
                if metadata.size < 0:
                    raise DecodingError(
                        f"object {metadata.key!r} claims a negative size, {metadata.size}")
                if metadata.size > flat.shape[0]:
                    raise DecodingError(
                        f"object {metadata.key!r} claims {metadata.size} bytes but "
                        f"only {flat.shape[0]} were decoded"
                    )
                results[position] = flat[: metadata.size].tobytes()
        return results  # type: ignore[return-value] — every slot is filled above

    def reconstruct_chunk(self, metadata: ObjectMetadata, chunks: dict[int, Chunk], target_index: int) -> Chunk:
        """Rebuild a single missing chunk (repair path) from any ``k`` survivors."""
        with_payload = {
            index: np.frombuffer(payload, dtype=np.uint8)
            for index, payload in self._payloads(metadata, chunks).items()
        }
        shard = self._rs.reconstruct_shard(with_payload, target_index)
        return Chunk(
            chunk_id=ChunkId(key=metadata.key, index=target_index),
            size=shard.shape[0],
            payload=shard.tobytes(),
            is_parity=target_index >= self._params.data_chunks,
            version=metadata.version,
        )

    def decoding_cost_estimate(self, object_size: int) -> float:
        """Rough decode cost in milliseconds for an object of ``object_size`` bytes.

        Used by the latency model to charge a CPU cost for reconstructing an
        object; calibrated to a few tens of ms per MB, the order of magnitude
        of Cauchy Reed-Solomon decoding on 2017-era hardware.
        """
        megabytes = object_size / (1024 * 1024)
        return 12.0 * megabytes * (1.0 + self._params.parity_chunks / max(self._params.data_chunks, 1))
