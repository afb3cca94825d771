"""Decode rebuilds only the missing data rows (ISSUE 16): every entry point
agrees for every survivor pattern, the four rejections keep their messages,
and every payload type the parent accepted still decodes."""

from itertools import combinations

import numpy as np
import pytest

from repro.erasure import DecodingError, ErasureCodec, ErasureCodingParams
from repro.erasure.reed_solomon import ReedSolomon

PAYLOAD = bytes(range(256)) * 5 + b"tail"   # 1,284 bytes: pads under both codes


@pytest.fixture(scope="module", params=[(4, 2), (9, 3)], ids=["rs4+2", "rs9+3"])
def encoded(request):
    codec = ErasureCodec(ErasureCodingParams(*request.param))
    return codec, codec.encode("object", PAYLOAD, version=3)


def all_patterns(codec):
    params = codec.params
    return list(combinations(range(params.total_chunks), params.data_chunks))


class TestEveryPatternEveryEntryPoint:
    def test_decode_decode_many_and_decode_shards_agree(self, encoded):
        codec, obj = encoded
        k = codec.params.data_chunks
        rs = ReedSolomon(k, codec.params.parity_chunks)
        data_matrix = rs.split(PAYLOAD)
        twin = codec.encode("twin", PAYLOAD[::-1])
        for survivors in all_patterns(codec):
            chunks = {index: obj.chunks[index] for index in survivors}
            assert codec.decode(obj.metadata, chunks) == PAYLOAD, survivors
            batch = codec.decode_many([
                (obj.metadata, chunks),
                (twin.metadata, {index: twin.chunks[index] for index in survivors}),
            ])
            assert batch == [PAYLOAD, PAYLOAD[::-1]], survivors
            shards = {index: np.frombuffer(obj.chunks[index].payload, dtype=np.uint8)
                      for index in survivors}
            assert np.array_equal(rs.decode_shards(shards), data_matrix), survivors

    def test_reconstruct_chunk_rebuilds_every_absent_chunk(self, encoded):
        codec, obj = encoded
        rs = ReedSolomon(codec.params.data_chunks, codec.params.parity_chunks)
        for survivors in all_patterns(codec)[::7]:
            chunks = {index: obj.chunks[index] for index in survivors}
            for target in set(range(codec.params.total_chunks)) - set(survivors):
                rebuilt = codec.reconstruct_chunk(obj.metadata, chunks, target)
                assert rebuilt.payload == obj.chunks[target].payload
                assert rebuilt.chunk_id == obj.chunks[target].chunk_id
                assert rebuilt.version == 3
            # The ReedSolomon level: every index, a survivor's own included.
            shards = {index: np.frombuffer(obj.chunks[index].payload, dtype=np.uint8)
                      for index in survivors}
            for target in range(codec.params.total_chunks):
                rebuilt = rs.reconstruct_shard(shards, target)
                assert rebuilt.tobytes() == obj.chunks[target].payload, (survivors, target)

    def test_extra_survivors_are_ignored_lowest_k_win(self, encoded):
        codec, obj = encoded
        chunks = {chunk.index: chunk for chunk in obj.chunks[1:]}
        assert codec.decode(obj.metadata, chunks) == PAYLOAD

    def test_operator_is_compiled_from_the_missing_rows_only(self, encoded):
        codec, obj = encoded
        rs = codec._rs
        k = codec.params.data_chunks
        survivors = tuple(range(1, k + 1))          # data row 0 traded for a parity
        present, missing, operator = rs._decode_plan(survivors)
        assert (present, missing) == (list(range(1, k)), [0])
        assert operator.matrix.shape == (1, k)
        assert rs._decode_plan(tuple(range(k))) == (list(range(k)), [], None)
        assert rs._decode_plan(survivors)[2] is operator   # cached per pattern


class TestRejectionsKeepTheirMessages:
    def test_fewer_than_k_payloads(self):
        codec = ErasureCodec()
        obj = codec.encode("object", PAYLOAD)
        chunks = {index: obj.chunks[index] for index in range(8)}
        chunks[8] = obj.chunks[8].without_payload()
        with pytest.raises(DecodingError, match=r"^need 9 chunks with payloads, got 8$"):
            codec.decode(obj.metadata, chunks)
        rs = ReedSolomon(9, 3)
        with pytest.raises(DecodingError, match=r"^need 9 shards to decode, got 2$"):
            rs.decode_data({0: b"ab", 1: b"cd"}, 4)

    def test_index_out_of_range(self):
        rs = ReedSolomon(4, 2)
        shards = rs.encode(PAYLOAD)
        available = {0: shards[0], 1: shards[1], 2: shards[2], -1: shards[3]}
        with pytest.raises(DecodingError, match=r"^shard index -1 out of range 0\.\.5$"):
            rs.decode_data(available, len(PAYLOAD))
        available = {3: shards[3], 4: shards[4], 5: shards[5], 6: shards[0]}
        with pytest.raises(DecodingError, match=r"^shard index 6 out of range 0\.\.5$"):
            rs.decode_shards(available)

    def test_unequal_shard_lengths(self):
        rs = ReedSolomon(4, 2)
        shards = [shard.tobytes() for shard in rs.encode(PAYLOAD)]
        available = {0: shards[0], 1: shards[1][:-1], 4: shards[4], 5: shards[5]}
        with pytest.raises(DecodingError, match=r"^all shards must have the same length$"):
            rs.decode_data(available, len(PAYLOAD))
        with pytest.raises(DecodingError, match=r"^all shards must have the same length$"):
            rs.decode_shards({index: np.frombuffer(shard, dtype=np.uint8)
                              for index, shard in available.items()})

    def test_original_length_overflow(self):
        rs = ReedSolomon(4, 2)
        shards = rs.encode(PAYLOAD)
        shard_size = shards[0].shape[0]
        for survivors in ((0, 1, 2, 3), (0, 1, 4, 5)):
            available = {index: shards[index] for index in survivors}
            with pytest.raises(DecodingError) as caught:
                rs.decode_data(available, 4 * shard_size + 1)
            assert str(caught.value) == (
                f"original_length {4 * shard_size + 1} exceeds decoded payload "
                f"of {4 * shard_size} bytes")
            assert len(rs.decode_data(available, 4 * shard_size)) == 4 * shard_size

    def test_negative_original_length(self):
        """``[:original_length]`` would slice from the end: a silent truncation."""
        rs = ReedSolomon(9, 3)
        payload = bytes(range(256)) * 10
        shards = rs.encode(payload)
        for survivors in (range(9), (0, 1, 2, 3, 4, 6, 7, 8, 9)):
            available = {index: shards[index] for index in survivors}
            with pytest.raises(DecodingError, match=r"^original_length -5 is negative$"):
                rs.decode_data(available, -5)
            assert rs.decode_data(available, 0) == b""
        codec = ErasureCodec(ErasureCodingParams(4, 2))
        obj = codec.encode("object", PAYLOAD)
        obj.metadata.size = -5
        for survivors in ((0, 1, 2, 3), (1, 2, 3, 4)):
            chunks = {index: obj.chunks[index] for index in survivors}
            with pytest.raises(DecodingError, match="negative"):
                codec.decode(obj.metadata, chunks)
            with pytest.raises(DecodingError, match=r"'object' claims a negative size, -5"):
                codec.decode_many([(obj.metadata, chunks)])

    def test_the_unused_survivors_are_not_validated(self):
        """Only the ``k`` lowest indices take part, as before."""
        rs = ReedSolomon(4, 2)
        shards = rs.encode(PAYLOAD)
        available = {index: shards[index] for index in range(4)}
        available[5] = shards[5][:3]
        available[99] = shards[0]
        assert rs.decode_data(available, len(PAYLOAD)) == PAYLOAD


class TestChunkVersionsAreNotMixed:
    """Chunks of two versions decode to bytes of neither: the codec is the
    last place that can notice (``extensions/writes.py`` keeps reads
    version-consistent above it)."""

    @pytest.fixture(scope="class")
    def versions(self):
        codec = ErasureCodec()
        first = codec.encode("object", PAYLOAD, version=1)
        second = codec.encode("object", PAYLOAD[::-1], version=2)
        mixed = {index: first.chunks[index] for index in range(5)}
        mixed.update({index: second.chunks[index] for index in range(6, 10)})
        return codec, first, second, mixed

    MESSAGE = (r"^chunk 0 of 'object' is version 1 but the object's metadata "
               r"is version 2$")

    def test_decode(self, versions):
        codec, first, second, mixed = versions
        with pytest.raises(DecodingError, match=self.MESSAGE):
            codec.decode(second.metadata, mixed)
        with pytest.raises(DecodingError, match=r"chunk 6 of 'object' is version 2 but .* version 1$"):
            codec.decode(first.metadata, mixed)

    def test_decode_many(self, versions):
        codec, first, second, mixed = versions
        clean = {index: second.chunks[index] for index in range(9)}
        with pytest.raises(DecodingError, match=self.MESSAGE):
            codec.decode_many([(second.metadata, clean), (second.metadata, mixed)])
        assert codec.decode_many([(second.metadata, clean)]) == [PAYLOAD[::-1]]

    def test_reconstruct_chunk(self, versions):
        codec, first, second, mixed = versions
        with pytest.raises(DecodingError, match=self.MESSAGE):
            codec.reconstruct_chunk(second.metadata, mixed, 5)

    def test_one_version_and_virtual_chunks_pass(self, versions):
        codec, first, second, mixed = versions
        for obj, expected in ((first, PAYLOAD), (second, PAYLOAD[::-1])):
            chunks = {index: obj.chunks[index] for index in (0, 1, 2, 3, 4, 6, 7, 8, 9)}
            # A virtual chunk carries no payload and is not looked at.
            chunks[5] = first.chunks[5].without_payload()
            chunks[10] = second.chunks[10].without_payload()
            assert codec.decode(obj.metadata, chunks) == expected
            assert codec.decode_many([(obj.metadata, chunks)]) == [expected]
            assert codec.reconstruct_chunk(obj.metadata, chunks, 5).payload \
                == obj.chunks[5].payload

    def test_a_fetched_view_is_checked_against_the_metadata(self):
        """The store's ``get_chunks`` view carries the version of the record
        it was fetched from: metadata read before a re-put does not decode
        the chunks fetched after it, through any entry point."""
        from repro.backend import ErasureCodedStore
        from repro.geo import default_topology

        store = ErasureCodedStore(default_topology(seed=0, jitter=0.0))
        store.put("object", PAYLOAD, version=1)
        before = store.metadata("object")
        store.put("object", PAYLOAD[::-1], version=2)
        fetched = store.get_chunks("object", [6, 0, 1, 2, 3, 4, 5, 7, 8])
        codec = store.codec
        message = (r"^chunk 6 of 'object' is version 2 but the object's "
                   r"metadata is version 1$")
        with pytest.raises(DecodingError, match=message):
            codec.decode(before, fetched)
        with pytest.raises(DecodingError, match=message):
            codec.decode_many([(before, fetched)])
        with pytest.raises(DecodingError, match=message):
            codec.reconstruct_chunk(before, fetched, 10)
        after = store.metadata("object")
        assert codec.decode(after, fetched) == PAYLOAD[::-1]
        assert codec.decode_many([(after, fetched)]) == [PAYLOAD[::-1]]
        store.put_virtual("object", len(PAYLOAD), version=3)
        with pytest.raises(DecodingError, match=r"^need 9 chunks with payloads, got 0$"):
            codec.decode(before, store.get_chunks("object", range(9)))


class TestPayloadTypes:
    @pytest.mark.parametrize("survivors", [(0, 1, 2, 3), (0, 2, 4, 5), (2, 3, 4, 5)])
    def test_bytes_bytearray_and_arrays_decode(self, survivors):
        rs = ReedSolomon(4, 2)
        shards = rs.encode(PAYLOAD)
        wide = np.zeros((6, 2 * shards[0].shape[0]), dtype=np.uint8)
        wide[:, ::2] = np.stack(shards)
        read_only = [np.frombuffer(shard.tobytes(), dtype=np.uint8) for shard in shards]
        for convert in (
            lambda index: shards[index].tobytes(),
            lambda index: bytearray(shards[index].tobytes()),
            lambda index: shards[index],
            lambda index: read_only[index],
            lambda index: wide[index, ::2],                 # non-contiguous view
            lambda index: shards[index].astype(np.int64),   # cast like the parent did
        ):
            available = {index: convert(index) for index in survivors}
            assert rs.decode_data(available, len(PAYLOAD)) == PAYLOAD
        # Mixed in one call, the way a partially cached read would arrive.
        mixed = {index: (shards[index].tobytes() if index % 2 else shards[index])
                 for index in survivors}
        assert rs.decode_data(mixed, len(PAYLOAD)) == PAYLOAD

    def test_inputs_are_left_untouched(self):
        rs = ReedSolomon(4, 2)
        shards = rs.encode(PAYLOAD)
        buffers = {index: bytearray(shards[index].tobytes()) for index in (0, 2, 4, 5)}
        before = {index: bytes(buffer) for index, buffer in buffers.items()}
        assert rs.decode_data(buffers, len(PAYLOAD)) == PAYLOAD
        assert {index: bytes(buffer) for index, buffer in buffers.items()} == before

    def test_empty_object_and_zero_length_shards(self):
        codec = ErasureCodec(ErasureCodingParams(4, 2))
        obj = codec.encode("empty", b"")
        for survivors in all_patterns(codec):
            assert codec.decode(obj.metadata,
                                {index: obj.chunks[index] for index in survivors}) == b""
        rs = ReedSolomon(4, 2)
        assert rs.decode_data({1: b"", 2: b"", 4: b"", 5: b""}, 0) == b""
