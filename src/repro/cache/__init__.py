"""Cache substrate: a bounded chunk cache with pluggable eviction policies.

Stands in for the per-region memcached instances of the paper's deployment.
"""

from repro.cache.base import CacheEntry, CacheSnapshot, CacheStats, EvictionPolicy
from repro.cache.chunk_cache import ChunkCache
from repro.cache.policies import (
    LFUEvictionPolicy,
    LRUEvictionPolicy,
    PinnedConfigurationPolicy,
)

__all__ = [
    "CacheEntry",
    "CacheSnapshot",
    "CacheStats",
    "ChunkCache",
    "EvictionPolicy",
    "LFUEvictionPolicy",
    "LRUEvictionPolicy",
    "PinnedConfigurationPolicy",
]
