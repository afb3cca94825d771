"""Erasure-coding substrate: GF(256) arithmetic and Reed-Solomon codecs.

This package replaces the Longhair Cauchy Reed-Solomon library used by the
paper's prototype (§V-A) with a pure Python/NumPy implementation that provides
the same contract: split an object into ``k`` data chunks plus ``m`` parity
chunks such that any ``k`` chunks reconstruct the object.
"""

from repro.erasure.chunk import (
    Chunk,
    ChunkId,
    ErasureCodingParams,
    ObjectMetadata,
    PAPER_PARAMS,
)
from repro.erasure.codec import EncodedObject, ErasureCodec
from repro.erasure.galois import GaloisError, PackedGFMatrix
from repro.erasure.matrix import SingularMatrixError
from repro.erasure.reed_solomon import DecodingError, ReedSolomon

__all__ = [
    "Chunk",
    "ChunkId",
    "DecodingError",
    "EncodedObject",
    "ErasureCodec",
    "ErasureCodingParams",
    "GaloisError",
    "PackedGFMatrix",
    "ObjectMetadata",
    "PAPER_PARAMS",
    "ReedSolomon",
    "SingularMatrixError",
]
