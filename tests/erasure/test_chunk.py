"""Tests for chunk and object-metadata value types."""

import pytest

from repro.erasure.chunk import (
    BlockChunks,
    Chunk,
    ChunkId,
    ErasureCodingParams,
    ObjectMetadata,
    PAPER_PARAMS,
    block_chunk,
)


class TestErasureCodingParams:
    def test_paper_params(self):
        assert PAPER_PARAMS.data_chunks == 9
        assert PAPER_PARAMS.parity_chunks == 3
        assert PAPER_PARAMS.total_chunks == 12

    def test_chunk_size_ceiling(self):
        params = ErasureCodingParams(9, 3)
        assert params.chunk_size(9) == 1
        assert params.chunk_size(10) == 2
        assert params.chunk_size(1024 * 1024) == 116509

    def test_chunk_size_negative(self):
        with pytest.raises(ValueError):
            ErasureCodingParams(4, 2).chunk_size(-1)

    @pytest.mark.parametrize("k,m", [(0, 1), (-2, 1), (2, -1), (250, 100)])
    def test_invalid(self, k, m):
        with pytest.raises(ValueError):
            ErasureCodingParams(k, m)


class TestChunkId:
    def test_str(self):
        assert str(ChunkId("photo", 3)) == "photo#3"

    def test_negative_index(self):
        with pytest.raises(ValueError):
            ChunkId("photo", -1)

    def test_hashable_and_equal(self):
        assert ChunkId("a", 1) == ChunkId("a", 1)
        assert len({ChunkId("a", 1), ChunkId("a", 1), ChunkId("a", 2)}) == 2


class TestChunk:
    def test_payload_size_mismatch(self):
        with pytest.raises(ValueError):
            Chunk(ChunkId("a", 0), size=4, payload=b"abcde")

    def test_negative_size(self):
        with pytest.raises(ValueError):
            Chunk(ChunkId("a", 0), size=-1)


class TestObjectMetadata:
    def make(self):
        params = ErasureCodingParams(4, 2)
        return ObjectMetadata(
            key="obj", size=100, params=params, chunk_size=25,
            chunk_locations={0: "r1", 1: "r2", 2: "r1", 3: "r3", 4: "r2", 5: "r3"},
        )

    def test_index_partition(self):
        meta = self.make()
        assert meta.data_chunk_indices == [0, 1, 2, 3]
        assert meta.parity_chunk_indices == [4, 5]


class TestBlockChunks:
    """The store's read-only view of some chunks of one object's block."""

    def make(self, block=bytes(range(150))):
        metadata = ObjectMetadata(key="obj", size=100, params=ErasureCodingParams(4, 2),
                                  chunk_size=25, version=2)
        return metadata, BlockChunks(metadata, block, dict.fromkeys([5, 1, 3]))

    def test_block_chunk_slices_its_row(self):
        metadata, _ = self.make()
        block = bytes(range(150))
        data = block_chunk(metadata, block, 1)
        assert data == Chunk(ChunkId("obj", 1), 25, block[25:50], False, 2)
        parity = block_chunk(metadata, block, 5)
        assert parity.payload == block[125:150]
        assert parity.is_parity
        assert block_chunk(metadata, None, 5) == Chunk(ChunkId("obj", 5), 25, None, True, 2)

    def test_mapping_in_the_order_asked(self):
        metadata, view = self.make()
        assert list(view) == [5, 1, 3]
        assert len(view) == 3
        assert 3 in view and 0 not in view
        assert view[3] == block_chunk(metadata, view.block, 3)
        with pytest.raises(KeyError):
            view[0]
        assert dict(view) == {index: block_chunk(metadata, view.block, index)
                              for index in (5, 1, 3)}

    def test_payloads_slice_the_block(self):
        metadata, view = self.make()
        assert view.payloads() == {index: view[index].payload for index in (5, 1, 3)}

    def test_a_virtual_object_has_no_payloads(self):
        metadata, view = self.make(block=None)
        assert view.payloads() == {}
        assert all(view[index].payload is None for index in view)
        assert [view[index].size for index in view] == [25, 25, 25]
