"""Tests for the Reed-Solomon encoder/decoder."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.erasure.reed_solomon import DecodingError, ReedSolomon


@pytest.fixture
def rs93():
    """The paper's RS(9, 3) code."""
    return ReedSolomon(9, 3)


class TestConstruction:
    def test_properties(self, rs93):
        assert rs93.data_shards == 9
        assert rs93.parity_shards == 3
        assert rs93.total_shards == 12
        assert rs93.encoding_matrix.shape == (12, 9)

    @pytest.mark.parametrize("k,m", [(0, 2), (-1, 2), (3, -1), (200, 100)])
    def test_invalid_parameters(self, k, m):
        with pytest.raises(ValueError):
            ReedSolomon(k, m)

    def test_shard_size(self, rs93):
        assert rs93.shard_size(0) == 0
        assert rs93.shard_size(9) == 1
        assert rs93.shard_size(10) == 2
        assert rs93.shard_size(9 * 1000) == 1000

    def test_split_pads(self, rs93):
        shards = rs93.split(b"abcde")
        assert shards.shape == (9, 1)
        assert bytes(shards[:5, 0]) == b"abcde"
        assert not shards[5:, 0].any()


class TestEncodeDecode:
    def test_roundtrip_all_data_shards(self, rs93):
        data = bytes(range(90))
        shards = rs93.encode(data)
        assert len(shards) == 12
        available = {i: shards[i] for i in range(9)}
        assert rs93.decode_data(available, len(data)) == data

    def test_roundtrip_with_parity(self, rs93):
        data = b"the quick brown fox jumps over the lazy dog " * 5
        shards = rs93.encode(data)
        # Drop three data shards; decode from the remaining 9.
        available = {i: shards[i] for i in range(12) if i not in (0, 4, 8)}
        assert rs93.decode_data(available, len(data)) == data

    def test_decode_accepts_bytes_payloads(self, rs93):
        data = b"x" * 100
        shards = rs93.encode(data)
        available = {i: shards[i].tobytes() for i in range(3, 12)}
        assert rs93.decode_data(available, len(data)) == data

    def test_too_few_shards(self, rs93):
        data = b"hello world"
        shards = rs93.encode(data)
        with pytest.raises(DecodingError):
            rs93.decode_shards({i: shards[i] for i in range(8)})

    def test_mismatched_shard_sizes(self, rs93):
        available = {i: np.zeros(4, dtype=np.uint8) for i in range(9)}
        available[3] = np.zeros(5, dtype=np.uint8)
        with pytest.raises(DecodingError):
            rs93.decode_shards(available)

    def test_out_of_range_index(self, rs93):
        available = {i: np.zeros(4, dtype=np.uint8) for i in range(9)}
        available[40] = np.zeros(4, dtype=np.uint8)
        del available[0]
        with pytest.raises(DecodingError):
            rs93.decode_shards(available)

    def test_original_length_bound(self, rs93):
        data = b"tiny"
        shards = rs93.encode(data)
        with pytest.raises(DecodingError):
            rs93.decode_data({i: shards[i] for i in range(9)}, original_length=10_000)

    def test_empty_payload(self, rs93):
        shards = rs93.encode(b"")
        assert len(shards) == 12
        assert rs93.decode_data({i: shards[i] for i in range(9)}, 0) == b""

    def test_zero_parity_code(self):
        rs = ReedSolomon(4, 0)
        data = b"0123456789ab"
        shards = rs.encode(data)
        assert len(shards) == 4
        assert rs.decode_data({i: shards[i] for i in range(4)}, len(data)) == data


class TestAnyKOfN:
    @settings(max_examples=30, deadline=None)
    @given(
        k=st.integers(min_value=2, max_value=6),
        m=st.integers(min_value=1, max_value=4),
        payload=st.binary(min_size=1, max_size=200),
        seed=st.integers(min_value=0, max_value=10_000),
        construction=st.sampled_from(["cauchy", "vandermonde"]),
    )
    def test_any_k_shards_reconstruct(self, k, m, payload, seed, construction):
        """The fundamental MDS property the storage system relies on (§II-A)."""
        rs = ReedSolomon(k, m, construction=construction)
        shards = rs.encode(payload)
        rng = np.random.default_rng(seed)
        chosen = rng.choice(k + m, size=k, replace=False).tolist()
        available = {int(i): shards[int(i)] for i in chosen}
        assert rs.decode_data(available, len(payload)) == payload


class TestReconstructionAndVerify:
    def test_reconstruct_missing_data_shard(self, rs93):
        data = bytes(np.random.default_rng(1).integers(0, 256, 900, dtype=np.uint8))
        shards = rs93.encode(data)
        survivors = {i: shards[i] for i in range(12) if i != 2}
        rebuilt = rs93.reconstruct_shard(survivors, 2)
        assert np.array_equal(rebuilt, shards[2])

    def test_reconstruct_missing_parity_shard(self, rs93):
        data = b"parity reconstruction" * 10
        shards = rs93.encode(data)
        survivors = {i: shards[i] for i in range(9)}
        rebuilt = rs93.reconstruct_shard(survivors, 11)
        assert np.array_equal(rebuilt, shards[11])

    def test_reconstruct_invalid_index(self, rs93):
        shards = rs93.encode(b"data")
        with pytest.raises(DecodingError):
            rs93.reconstruct_shard({i: shards[i] for i in range(9)}, 99)

    def test_verify_consistent(self, rs93):
        shards = rs93.encode(b"verify me" * 9)
        assert rs93.verify({i: shards[i] for i in range(12)})

    def test_verify_detects_corruption(self, rs93):
        shards = rs93.encode(b"verify me" * 9)
        corrupted = {i: shards[i].copy() for i in range(12)}
        corrupted[10][0] ^= 0xFF
        assert not rs93.verify(corrupted)

    def test_verify_requires_all_shards(self, rs93):
        shards = rs93.encode(b"verify me" * 9)
        with pytest.raises(ValueError):
            rs93.verify({i: shards[i] for i in range(9)})


class TestVerifyNoticesEveryShard:
    """``verify`` recomputes one parity row at a time through a one-row
    operator: a wrong table would pass the round-trip tests of ``decode`` and
    show only here."""

    @pytest.mark.parametrize("convert", [np.array, bytes, bytearray],
                             ids=["array", "bytes", "bytearray"])
    @pytest.mark.parametrize("k,m", [(9, 3), (4, 2)])
    def test_one_flipped_byte_in_any_shard(self, k, m, convert):
        rs = ReedSolomon(k, m)
        payload = bytes(np.random.default_rng(k).integers(0, 256, 700, dtype=np.uint8))
        clean = {index: convert(shard.tobytes() if convert is not np.array else shard)
                 for index, shard in enumerate(rs.encode(payload))}
        assert rs.verify(clean)
        for index in range(k + m):
            for position in (0, len(clean[index]) - 1):
                flipped = bytearray(bytes(clean[index]))
                flipped[position] ^= 0x01
                corrupted = dict(clean)
                corrupted[index] = convert(
                    np.frombuffer(flipped, dtype=np.uint8) if convert is np.array
                    else flipped)
                assert not rs.verify(corrupted), (index, position)
        assert rs.verify(clean)
