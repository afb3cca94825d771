"""Tests for the object-level erasure codec."""

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.backend import ChunkNotFoundError, ErasureCodedStore
from repro.erasure import ChunkId, DecodingError, ErasureCodec, ErasureCodingParams


@pytest.fixture
def codec(small_params):
    return ErasureCodec(small_params)


class TestEncode:
    def test_chunk_count_and_sizes(self, codec):
        encoded = codec.encode("key", b"0123456789")
        assert len(encoded.chunks) == 6
        assert len(encoded.data_chunks()) == 4
        assert len(encoded.parity_chunks()) == 2
        sizes = {chunk.size for chunk in encoded.chunks}
        assert sizes == {3}  # ceil(10 / 4)
        assert encoded.metadata.size == 10
        assert encoded.metadata.chunk_size == 3

    def test_default_params_are_papers(self):
        codec = ErasureCodec()
        assert codec.params.data_chunks == 9
        assert codec.params.parity_chunks == 3

    def test_virtual_encode_has_no_payloads(self, codec, topology):
        # A virtual object is never encoded: the store keeps its metadata and
        # builds payload-less chunks when they are asked for.
        store = ErasureCodedStore(topology, params=codec.params, codec=codec)
        metadata = store.put_virtual("key", 1000)
        assert metadata.chunk_size == 250
        chunks = [store.get_chunk("key", index) for index in range(6)]
        assert all(chunk.payload is None for chunk in chunks)
        assert [chunk.chunk_id for chunk in chunks] == [ChunkId("key", index)
                                                        for index in range(6)]
        assert {chunk.size for chunk in chunks} == {250}
        assert [chunk.is_parity for chunk in chunks] == [False] * 4 + [True] * 2
        with pytest.raises(ChunkNotFoundError):
            store.get_chunk("key", 6)

    def test_version_propagates(self, codec):
        encoded = codec.encode("key", b"abcd", version=7)
        assert encoded.metadata.version == 7
        assert all(chunk.version == 7 for chunk in encoded.chunks)


class TestDecode:
    def test_roundtrip_any_k(self, codec):
        data = b"erasure coded payload!"
        encoded = codec.encode("key", data)
        subset = {chunk.index: chunk for chunk in encoded.chunks[2:]}
        assert codec.decode(encoded.metadata, subset) == data

    def test_too_few_chunks(self, codec):
        encoded = codec.encode("key", b"erasure coded payload!")
        subset = {chunk.index: chunk for chunk in encoded.chunks[:3]}
        with pytest.raises(DecodingError):
            codec.decode(encoded.metadata, subset)

    def test_virtual_chunks_do_not_count(self, codec):
        encoded = codec.encode("key", b"erasure coded payload!")
        subset = {chunk.index: replace(chunk, payload=None) for chunk in encoded.chunks}
        with pytest.raises(DecodingError):
            codec.decode(encoded.metadata, subset)

    def test_reconstruct_chunk(self, codec):
        """A lost chunk is the same chunk of the decoded object encoded again."""
        data = b"reconstruct me please, thanks"
        encoded = codec.encode("key", data, version=4)
        survivors = {chunk.index: chunk for chunk in encoded.chunks if chunk.index != 1}
        rebuilt = codec.encode("key", codec.decode(encoded.metadata, survivors),
                               version=encoded.metadata.version).chunks[1]
        assert rebuilt == encoded.chunks[1]
        assert rebuilt.index == 1
        assert not rebuilt.is_parity

    @settings(max_examples=25, deadline=None)
    @given(payload=st.binary(min_size=0, max_size=500))
    def test_roundtrip_property(self, payload):
        codec = ErasureCodec(ErasureCodingParams(5, 2))
        encoded = codec.encode("key", payload)
        subset = {chunk.index: chunk for chunk in encoded.chunks[-5:]}
        assert codec.decode(encoded.metadata, subset) == payload


class TestDecodingCostEstimate:
    def test_scales_with_size(self):
        codec = ErasureCodec()
        small = codec.decoding_cost_estimate(1024 * 1024)
        large = codec.decoding_cost_estimate(4 * 1024 * 1024)
        assert large == pytest.approx(4 * small)
        assert small > 0
