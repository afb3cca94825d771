"""Tests for the geo-distributed erasure-coded object store."""

import pytest

from repro.backend import (ChunkNotFoundError, ErasureCodedStore, ObjectNotFoundError,
                           SpreadPlacement)
from repro.backend.placement import ExplicitPlacement
from repro.erasure import ErasureCodingParams

MEGABYTE = 1024 * 1024


class TestPopulateAndCatalog:
    def test_populate_virtual(self, store):
        assert len(store) == 20
        assert "object-0" in store
        assert store.keys()[0] == "object-0"
        meta = store.metadata("object-3")
        assert meta.size == MEGABYTE
        assert meta.params.total_chunks == 12

    def test_round_robin_two_chunks_per_region(self, store):
        grouped = store.chunks_by_region("object-0")
        assert set(grouped) == set(store.topology.region_names)
        assert all(len(indices) == 2 for indices in grouped.values())

    def test_unknown_key(self, store):
        with pytest.raises(ObjectNotFoundError):
            store.metadata("nope")
        with pytest.raises(ObjectNotFoundError):
            store.delete("nope")

    def test_describe(self, store):
        description = store.describe()
        assert description.object_count == 20
        assert description.chunks_per_object == 12
        assert description.total_object_bytes == 20 * MEGABYTE
        # Virtual objects still account for the chunks they place.
        assert description.total_stored_bytes == 20 * 12 * store.metadata("object-0").chunk_size

    def test_delete_removes_chunks(self, store):
        assert store.get_chunk("object-0", 0).key == "object-0"
        store.delete("object-0")
        assert "object-0" not in store
        with pytest.raises(ObjectNotFoundError):
            store.get_chunk("object-0", 0)
        with pytest.raises(ObjectNotFoundError):
            store.chunks_by_region("object-0")
        assert store.describe().object_count == 19
        with pytest.raises(ObjectNotFoundError):
            store.delete("object-0")


class TestChunkAccess:
    def test_get_chunk_and_region(self, store):
        chunk = store.get_chunk("object-1", 4)
        assert chunk.index == 4
        region = store.chunk_region("object-1", 4)
        assert region in store.topology.region_names

    def test_missing_chunk_index(self, store):
        with pytest.raises(ChunkNotFoundError):
            store.get_chunk("object-1", 99)
        with pytest.raises(ChunkNotFoundError):
            store.chunk_region("object-1", 99)


class TestObjectRecords:
    """One record per object: its metadata and, with a payload, its chunks."""

    def test_put_then_get_chunk_returns_the_stored_chunk(self, topology):
        store = ErasureCodedStore(topology, params=ErasureCodingParams(4, 2))
        store.put("a", bytes(range(40)))
        chunk = store.get_chunk("a", 5)
        assert chunk == store.get_chunk("a", 5) == store.get_chunks("a", [5])[5]
        assert (chunk.key, chunk.index, chunk.size, chunk.is_parity) == ("a", 5, 10, True)
        assert store.describe().total_stored_bytes == 6 * 10

    def test_a_reput_replaces_the_chunks(self, topology):
        store = ErasureCodedStore(topology, params=ErasureCodingParams(4, 2))
        store.put("a", b"x" * 40)
        store.put("a", b"y" * 80, version=1)
        assert len(store) == 1
        assert {chunk.version for chunk in store.get_chunks("a", range(6)).values()} == {1}
        assert store.get_object("a") == b"y" * 80
        assert store.describe().total_stored_bytes == 6 * 20
        store.put_virtual("a", 80, version=2)
        assert store.get_chunk("a", 0).payload is None
        assert store.describe().total_stored_bytes == 6 * 20

    def test_chunks_by_region_lists_indices_sorted(self, topology):
        assignments = {"a": {index: "tokyo" if index in (5, 1, 9) else "dublin"
                             for index in reversed(range(12))}}
        store = ErasureCodedStore(topology, placement=ExplicitPlacement(assignments))
        store.put_virtual("a", MEGABYTE)
        store.put_virtual("b", MEGABYTE)
        grouped = store.chunks_by_region("a")
        assert grouped["tokyo"] == [1, 5, 9]
        assert grouped["dublin"] == [0, 2, 3, 4, 6, 7, 8, 10, 11]
        assert store.keys() == ["a", "b"]


class TestRealPayloads:
    def test_put_get_roundtrip(self, topology):
        store = ErasureCodedStore(topology, params=ErasureCodingParams(4, 2))
        payload = bytes(range(200)) * 3
        store.put("real", payload)
        assert store.get_object("real") == payload

    def test_get_object_prefers_parity_when_asked(self, topology):
        store = ErasureCodedStore(topology, params=ErasureCodingParams(4, 2))
        payload = b"parity path" * 20
        store.put("real", payload)
        assert store.get_object("real", prefer_data_chunks=False) == payload

    def test_populate_real_payloads(self, topology):
        store = ErasureCodedStore(topology, params=ErasureCodingParams(4, 2))
        keys = store.populate(3, 256, virtual=False, seed=5)
        assert keys == ["object-0", "object-1", "object-2"]
        blob = store.get_object("object-2")
        assert len(blob) == 256


class TestCustomPlacement:
    def test_spread_placement_balances(self, topology):
        store = ErasureCodedStore(topology, placement=SpreadPlacement())
        store.populate(12, MEGABYTE)
        first_regions = {store.chunk_region(key, 0) for key in store.keys()}
        assert len(first_regions) > 1

    def test_version_roundtrip(self, store):
        meta = store.put_virtual("versioned", MEGABYTE, version=4)
        assert meta.version == 4
        assert store.get_chunk("versioned", 0).version == 4


class TestPlacementShapes:
    def test_shape_is_chunks_by_region_and_shared_by_objects_placed_alike(self, store):
        first, second, ghost = store.placement_shapes(["object-0", "object-1", "ghost"])
        assert first == tuple((region, tuple(indices))
                              for region, indices in store.chunks_by_region("object-0").items())
        assert second is first            # round-robin: one shape, one tuple
        assert ghost is None
        assert store.placement_shapes(["object-0"])[0] is first   # kept, not rebuilt

    def test_spread_placement_has_one_shape_per_offset(self, topology):
        store = ErasureCodedStore(topology, placement=SpreadPlacement())
        keys = store.populate(24, MEGABYTE)
        shapes = store.placement_shapes(keys)
        for key, shape in zip(keys, shapes):
            assert dict(shape) == {region: tuple(indices) for region, indices
                                   in store.chunks_by_region(key).items()}
        assert 1 < len({id(shape) for shape in shapes}) == len(set(shapes)) <= 6

    def test_a_rewrite_or_delete_drops_the_kept_shape(self, topology):
        assignments = {"moving": {index: "tokyo" if index < 6 else "sydney"
                                  for index in range(12)}}
        placement = ExplicitPlacement(assignments)
        store = ErasureCodedStore(topology, placement=placement)
        store.put_virtual("moving", MEGABYTE)
        store.put_virtual("other", MEGABYTE)
        before = store.placement_shapes(["moving"])[0]
        assert dict(before)["tokyo"] == (0, 1, 2, 3, 4, 5)

        placement._assignments["moving"] = {index: "dublin" for index in range(12)}
        store.put_virtual("moving", MEGABYTE, version=1)
        after = store.placement_shapes(["moving"])[0]
        assert dict(after)["dublin"] == tuple(range(12)) and dict(after)["tokyo"] == ()

        store.delete("moving")
        assert store.placement_shapes(["moving", "other"])[0] is None
        # The pool of shared tuples does not outgrow the objects that use it.
        assert len(store._shape_pool) <= len(store._placement_shapes) == 1
