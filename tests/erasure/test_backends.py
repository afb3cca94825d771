"""Codec behaviour on its one GF(256) kernel, checked against the scalar oracle.

The kernel on random matrices and on one coefficient; full encode round-trips under *every* erasure pattern up to ``m`` losses (any
``k`` of ``k + m`` shards), every shard rebuilt from the others by a decode
and a re-encode, the batched ``encode_many``/``decode_many`` API
against looped single-object calls and its zero-copy views.  Each parametrised case runs twice through the
``kernel`` fixture: ``numpy`` is the kernel as shipped, ``naive`` checks its
every application against ``naive_matmul`` (``tests/reference/codec.py``).
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.erasure import DecodingError, ErasureCodec, ErasureCodingParams, ReedSolomon
from repro.erasure.galois import PackedGFMatrix, gf_mul

from reference.codec import naive_matmul

KERNELS = ("naive", "numpy")


def expected_shards(rs: ReedSolomon, data: bytes) -> np.ndarray:
    """Every shard of ``data`` by the definition: the encoding matrix times
    the split data, in scalar arithmetic."""
    return naive_matmul(rs.encoding_matrix, rs.split(data))


@pytest.mark.parametrize("kernel", KERNELS, indirect=True)
class TestKernelEquivalence:
    def test_matmul_matches_scalar_definition(self, kernel):
        rng = np.random.default_rng(7)
        for _ in range(5):
            rows = int(rng.integers(1, 13))
            cols = int(rng.integers(1, 13))
            length = int(rng.integers(1, 64))
            matrix = rng.integers(0, 256, (rows, cols), dtype=np.uint8)
            shards = rng.integers(0, 256, (cols, length), dtype=np.uint8)
            expected = naive_matmul(matrix, shards)
            assert np.array_equal(PackedGFMatrix(matrix).apply(shards), expected)

    def test_mul_and_addmul_match_scalar_definition(self, kernel):
        """One coefficient times a shard, alone and added to another shard:
        the kernel's zero, copy, XOR and translated one-row cases."""
        rng = np.random.default_rng(8)
        data = rng.integers(0, 256, 97, dtype=np.uint8)
        for coefficient in (0, 1, 2, 29, 255):
            expected = np.array([gf_mul(coefficient, int(b)) for b in data],
                                dtype=np.uint8)
            product = PackedGFMatrix(np.array([[coefficient]], dtype=np.uint8))
            assert np.array_equal(product.apply([data])[0], expected)
            accumulator = rng.integers(0, 256, 97, dtype=np.uint8)
            addmul = PackedGFMatrix(np.array([[1, coefficient]], dtype=np.uint8))
            assert np.array_equal(addmul.apply([accumulator, data])[0],
                                  accumulator ^ expected)


@pytest.mark.parametrize("kernel", KERNELS, indirect=True)
@pytest.mark.parametrize("k,m", [(4, 2), (3, 3), (2, 1)])
class TestRoundTripAllPatterns:
    def test_all_erasure_patterns_bit_identical(self, kernel, k, m):
        """Every survivor pattern (any k of k+m shards) round-trips, and the
        shards and decodes are the scalar definition's bytes."""
        rs = ReedSolomon(k, m)
        payload = bytes(np.random.default_rng(k * 16 + m).integers(
            0, 256, 61, dtype=np.uint8))

        shards = rs.encode(payload)
        assert len(shards) == k + m
        assert np.array_equal(np.stack(shards), expected_shards(rs, payload))

        for survivors in itertools.combinations(range(k + m), k):
            available = {index: shards[index] for index in survivors}
            assert rs.decode_data(available, len(payload)) == payload

    def test_reconstruct_every_shard(self, kernel, k, m):
        """Each shard, lost, comes back from the other ``k + m - 1``: decode
        the lowest ``k`` of them and encode again."""
        rs = ReedSolomon(k, m)
        payload = bytes(np.random.default_rng(99).integers(0, 256, 40, dtype=np.uint8))
        shards = rs.encode(payload)
        expected = expected_shards(rs, payload)
        for target in range(k + m):
            available = {i: s for i, s in enumerate(shards) if i != target}
            rebuilt = rs.encode(rs.decode_data(available, len(payload)))[target]
            assert np.array_equal(rebuilt, expected[target])
            assert np.array_equal(rebuilt, shards[target])


@pytest.mark.parametrize("kernel", KERNELS, indirect=True)
class TestBatchedEquivalence:
    def test_encode_many_equals_looped_encode(self, kernel):
        rs = ReedSolomon(4, 2)
        rng = np.random.default_rng(11)
        stack = rng.integers(0, 256, (6, 4, 33), dtype=np.uint8)
        batched = rs.encode_many(stack)
        assert batched.shape == (6, 6, 33)
        for position in range(stack.shape[0]):
            looped = rs.encode_shards(stack[position])
            for index, shard in enumerate(looped):
                assert np.array_equal(batched[position, index], shard)

    def test_decode_many_equals_looped_decode(self, kernel):
        rs = ReedSolomon(4, 2)
        rng = np.random.default_rng(12)
        stack = rng.integers(0, 256, (5, 4, 21), dtype=np.uint8)
        encoded = rs.encode_many(stack)
        for survivors in ((0, 1, 2, 3), (2, 3, 4, 5), (0, 2, 4, 5), (1, 2, 3, 4, 5)):
            selected = encoded[:, list(survivors), :]
            batched = rs.decode_many(selected, survivors)
            for position in range(stack.shape[0]):
                looped = rs.decode_data(
                    {index: encoded[position, index] for index in survivors},
                    stack[position].size)
                assert batched[position].tobytes() == looped
                assert np.array_equal(batched[position], stack[position])

    def test_decode_many_systematic_path_is_zero_copy(self, kernel):
        """When the data shards themselves survive in the stack's leading
        columns, decode_many returns a view of the input — no defensive
        copies on the batched path."""
        rs = ReedSolomon(4, 2)
        rng = np.random.default_rng(15)
        stack = rng.integers(0, 256, (3, 4, 17), dtype=np.uint8)
        encoded = rs.encode_many(stack)

        data_only = encoded[:, :4, :]
        decoded = rs.decode_many(data_only, (0, 1, 2, 3))
        assert np.shares_memory(decoded, encoded)
        assert np.array_equal(decoded, stack)

        # Extra survivors behind the leading data columns still take the
        # basic-slice view, never a gather copy.
        subset = encoded[:, [0, 1, 2, 3, 5], :]
        wider = rs.decode_many(subset, (0, 1, 2, 3, 5))
        assert np.shares_memory(wider, subset)
        assert np.array_equal(wider, stack)

    def test_decode_many_reconstruction_avoids_defensive_copies(self, kernel):
        """A reconstructed batch comes back as a view of the decode
        operator's output (possibly non-contiguous) with the right values."""
        rs = ReedSolomon(4, 2)
        rng = np.random.default_rng(16)
        stack = rng.integers(0, 256, (4, 4, 19), dtype=np.uint8)
        encoded = rs.encode_many(stack)
        recovered = rs.decode_many(encoded[:, [1, 2, 4, 5], :], (1, 2, 4, 5))
        assert recovered.base is not None
        assert np.array_equal(recovered, stack)

    def test_encode_returns_data_shards_as_views(self, kernel):
        """Single-object encode hands out the split matrix's rows as views
        (the batched ingest path relies on this to stay zero-copy)."""
        rs = ReedSolomon(4, 2)
        shards = rs.encode(b"zero copy please" * 4)
        assert all(shard.base is not None for shard in shards[:4])

    def test_decode_many_validates_input(self, kernel):
        rs = ReedSolomon(4, 2)
        stack = np.zeros((2, 3, 8), dtype=np.uint8)
        with pytest.raises(DecodingError):
            rs.decode_many(stack, (0, 1, 2))  # too few shards
        with pytest.raises(DecodingError):
            rs.decode_many(np.zeros((2, 4, 8), dtype=np.uint8), (0, 1, 2))  # mismatch
        with pytest.raises(DecodingError):
            rs.decode_many(np.zeros((2, 4, 8), dtype=np.uint8), (0, 1, 2, 9))
        with pytest.raises(DecodingError):
            rs.decode_many(np.zeros((2, 4, 8), dtype=np.uint8), (0, 1, 2, 2))
        with pytest.raises(ValueError):
            rs.decode_many(np.zeros((4, 8), dtype=np.uint8), (0, 1, 2, 3))

    def test_codec_encode_many_mixed_sizes(self, kernel):
        codec = ErasureCodec(ErasureCodingParams(4, 2))
        rng = np.random.default_rng(13)
        items = [
            (f"object-{index}", bytes(rng.integers(0, 256, size, dtype=np.uint8)))
            for index, size in enumerate((100, 64, 100, 7, 0, 64))
        ]
        batched = codec.encode_many(items)
        assert [encoded.metadata.key for encoded in batched] == \
            [key for key, _ in items]
        for (key, data), encoded in zip(items, batched):
            single = codec.encode(key, data)
            assert encoded.metadata == single.metadata
            assert [c.payload for c in encoded.chunks] == \
                [c.payload for c in single.chunks]

    def test_codec_decode_mixed_patterns(self, kernel):
        """Objects of one ``encode_many`` batch decode under their own
        survivor patterns, and under one shared pattern in one
        ``decode_many``."""
        codec = ErasureCodec(ErasureCodingParams(4, 2))
        rng = np.random.default_rng(14)
        items = [(f"object-{index}", bytes(rng.integers(0, 256, 80, dtype=np.uint8)))
                 for index in range(4)]
        encoded = codec.encode_many(items)
        patterns = [(0, 1, 2, 3), (2, 3, 4, 5), (0, 1, 2, 3), (1, 3, 4, 5)]
        decoded = [codec.decode(enc.metadata,
                                {c.index: c for c in enc.chunks if c.index in pattern})
                   for enc, pattern in zip(encoded, patterns)]
        assert decoded == [data for _, data in items]
        rs = ReedSolomon(4, 2)
        shared = np.array([[np.frombuffer(enc.chunks[index].payload, dtype=np.uint8)
                            for index in (1, 3, 4, 5)] for enc in encoded])
        batched = rs.decode_many(shared, (1, 3, 4, 5))
        assert [data.tobytes()[:80] for data in batched] == [data for _, data in items]


@settings(max_examples=25, deadline=None)
@given(
    data=st.binary(min_size=0, max_size=200),
    k=st.integers(min_value=1, max_value=6),
    m=st.integers(min_value=0, max_value=3),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_property_round_trip_matches_the_scalar_definition(data, k, m, seed):
    """Random payloads, geometries and survivor patterns: the shards are the
    scalar definition's and any ``k`` of them reconstruct the payload."""
    rng = np.random.default_rng(seed)
    rs = ReedSolomon(k, m)
    shards = rs.encode(data)
    assert np.array_equal(np.stack(shards), expected_shards(rs, data))
    survivors = sorted(rng.choice(k + m, size=k, replace=False).tolist())
    available = {index: shards[index] for index in survivors}
    assert rs.decode_data(available, len(data)) == data


class TestStoreBatchedIngest:
    def test_put_many_matches_put(self):
        from repro.backend import ErasureCodedStore
        from repro.geo.topology import default_topology

        rng = np.random.default_rng(21)
        items = [(f"bulk-{index}", bytes(rng.integers(0, 256, 96, dtype=np.uint8)))
                 for index in range(5)]
        batched_store = ErasureCodedStore(default_topology(seed=0))
        batched_store.put_many(items)
        looped_store = ErasureCodedStore(default_topology(seed=0))
        for key, data in items:
            looped_store.put(key, data)
        for key, data in items:
            assert batched_store.get_object(key) == data
            for index in range(batched_store.params.total_chunks):
                assert batched_store.get_chunk(key, index).payload == \
                    looped_store.get_chunk(key, index).payload
