"""Memory guard: what the object store keeps per virtual object.

The paper's working set, 300 × 1 MiB objects under RS(9, 3), is what every
engine run, sweep point and benchmark slice populates.  A virtual object is
metadata and placement only: no :class:`Chunk` exists until one is asked
for, the garbage collector tracks about one object per stored object (its
``ObjectMetadata``; the placement dict holds only ints and strings) and
``tracemalloc`` finds ≈ 850–900 B retained per object.  A store that built
the twelve chunks and their ids per object tracked ≈ 26 objects and retained
≈ 3,400 B per object by the same counts.  A payload object adds one
immutable ``bytes`` block, its ``k + m`` encoded chunks back to back, and
nothing the collector tracks: no :class:`Chunk` exists until one is asked for
either (a tuple of twelve chunks per object tracked ≈ 26 objects).  The guard
counts objects and bytes, not time.
"""

from __future__ import annotations

import gc
import tracemalloc

from repro.backend import ErasureCodedStore
from repro.erasure import Chunk
from repro.geo import default_topology

OBJECTS = 300
MEBIBYTE = 1024 * 1024
MAX_TRACKED_PER_OBJECT = 2
MAX_BYTES_PER_OBJECT = 1200
#: The payload working set: the wire workloads' object size, RS(9, 3).
PAYLOAD_OBJECTS = 256
PAYLOAD_SIZE = 16 * 1024


def _chunks_alive() -> int:
    return sum(1 for thing in gc.get_objects() if type(thing) is Chunk)


def test_a_virtual_working_set_builds_no_chunk_and_few_tracked_objects():
    topology = default_topology(seed=0)
    gc.collect()
    chunks_before = _chunks_alive()
    tracked_before = len(gc.get_objects())
    store = ErasureCodedStore(topology)
    store.populate(OBJECTS, MEBIBYTE)
    gc.collect()
    tracked = len(gc.get_objects()) - tracked_before
    assert len(store) == OBJECTS
    assert _chunks_alive() == chunks_before
    assert tracked / OBJECTS <= MAX_TRACKED_PER_OBJECT, (
        f"{tracked / OBJECTS:.1f} tracked objects per stored object")


def test_a_virtual_working_set_retains_at_most_1200_bytes_per_object():
    topology = default_topology(seed=0)
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.take_snapshot()
        store = ErasureCodedStore(topology)
        store.populate(OBJECTS, MEBIBYTE)
        gc.collect()
        end = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    assert len(store) == OBJECTS
    retained = sum(stat.size_diff for stat in end.compare_to(start, "filename"))
    assert retained / OBJECTS <= MAX_BYTES_PER_OBJECT, (
        f"the store retains {retained / OBJECTS:.0f} B per object")


def test_a_payload_working_set_builds_no_chunk_and_few_tracked_objects():
    topology = default_topology(seed=0)
    gc.collect()
    chunks_before = _chunks_alive()
    tracked_before = len(gc.get_objects())
    store = ErasureCodedStore(topology)
    store.populate(PAYLOAD_OBJECTS, PAYLOAD_SIZE, virtual=False)
    gc.collect()
    tracked = len(gc.get_objects()) - tracked_before
    assert len(store) == PAYLOAD_OBJECTS
    assert _chunks_alive() == chunks_before
    assert tracked / PAYLOAD_OBJECTS <= MAX_TRACKED_PER_OBJECT, (
        f"{tracked / PAYLOAD_OBJECTS:.1f} tracked objects per stored object")


def test_a_payload_working_set_retains_its_encoded_bytes_plus_1200_per_object():
    topology = default_topology(seed=0)
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.take_snapshot()
        store = ErasureCodedStore(topology)
        store.populate(PAYLOAD_OBJECTS, PAYLOAD_SIZE, virtual=False)
        gc.collect()
        end = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    assert len(store) == PAYLOAD_OBJECTS
    params = store.params
    encoded = params.total_chunks * params.chunk_size(PAYLOAD_SIZE)
    retained = sum(stat.size_diff for stat in end.compare_to(start, "filename"))
    assert retained / PAYLOAD_OBJECTS <= encoded + MAX_BYTES_PER_OBJECT, (
        f"the store retains {retained / PAYLOAD_OBJECTS:.0f} B per object, "
        f"{encoded} B of them encoded chunks")
