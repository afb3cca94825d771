"""Backend substrate: the erasure-coded object store and chunk placement.

Stands in for the Amazon S3 buckets of the paper's deployment (Fig. 1).
"""

from repro.backend.object_store import (
    ChunkNotFoundError,
    ErasureCodedStore,
    ObjectNotFoundError,
    StoreDescription,
)
from repro.backend.placement import (
    ExplicitPlacement,
    PlacementPolicy,
    RoundRobinPlacement,
    SpreadPlacement,
)

__all__ = [
    "ChunkNotFoundError",
    "ErasureCodedStore",
    "ExplicitPlacement",
    "ObjectNotFoundError",
    "PlacementPolicy",
    "RoundRobinPlacement",
    "SpreadPlacement",
    "StoreDescription",
]
