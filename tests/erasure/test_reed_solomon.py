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
            rs93.decode_data({i: shards[i] for i in range(8)}, len(data))

    def test_mismatched_shard_sizes(self, rs93):
        available = {i: np.zeros(4, dtype=np.uint8) for i in range(9)}
        available[3] = np.zeros(5, dtype=np.uint8)
        with pytest.raises(DecodingError):
            rs93.decode_data(available, 0)

    def test_out_of_range_index(self, rs93):
        available = {i: np.zeros(4, dtype=np.uint8) for i in range(9)}
        available[40] = np.zeros(4, dtype=np.uint8)
        del available[0]
        with pytest.raises(DecodingError):
            rs93.decode_data(available, 0)

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
    )
    def test_any_k_shards_reconstruct(self, k, m, payload, seed):
        """The fundamental MDS property the storage system relies on (§II-A)."""
        rs = ReedSolomon(k, m)
        shards = rs.encode(payload)
        rng = np.random.default_rng(seed)
        chosen = rng.choice(k + m, size=k, replace=False).tolist()
        available = {int(i): shards[int(i)] for i in chosen}
        assert rs.decode_data(available, len(payload)) == payload


def reencode(rs: ReedSolomon, available: dict, length: int) -> list[np.ndarray]:
    """Every shard of the stripe, rebuilt from the ``k`` lowest survivors."""
    return rs.encode(rs.decode_data(available, length))


class TestReconstructionAndVerify:
    """A lost shard is rebuilt, and a stripe checked, by decoding ``k``
    survivors and encoding the result again."""

    def test_reconstruct_missing_data_shard(self, rs93):
        data = bytes(np.random.default_rng(1).integers(0, 256, 900, dtype=np.uint8))
        shards = rs93.encode(data)
        survivors = {i: shards[i] for i in range(12) if i != 2}
        assert np.array_equal(reencode(rs93, survivors, len(data))[2], shards[2])

    def test_reconstruct_missing_parity_shard(self, rs93):
        data = b"parity reconstruction" * 10
        shards = rs93.encode(data)
        survivors = {i: shards[i] for i in range(9)}
        assert np.array_equal(reencode(rs93, survivors, len(data))[11], shards[11])

    def test_verify_consistent(self, rs93):
        data = b"verify me" * 9
        shards = rs93.encode(data)
        for survivors in ((0, 1, 2, 3, 4, 5, 6, 7, 8), (3, 4, 5, 6, 7, 8, 9, 10, 11)):
            rebuilt = reencode(rs93, {i: shards[i] for i in survivors}, len(data))
            assert all(np.array_equal(a, b) for a, b in zip(rebuilt, shards))

    def test_verify_detects_corruption(self, rs93):
        data = b"verify me" * 9
        shards = rs93.encode(data)
        corrupted = [shard.copy() for shard in shards]
        corrupted[10][0] ^= 0xFF
        rebuilt = reencode(rs93, {i: corrupted[i] for i in range(9)}, len(data))
        assert [i for i in range(12) if not np.array_equal(rebuilt[i], corrupted[i])] == [10]


class TestVerifyNoticesEveryShard:
    """The code's distance is ``m + 1``: a stripe with one flipped byte in
    any shard is no codeword, so a decode that reads that shard returns
    other data, and its re-encode disagrees with the stripe.  Each shard
    goes in as an array, ``bytes`` or ``bytearray``."""

    @pytest.mark.parametrize("convert", [np.array, bytes, bytearray],
                             ids=["array", "bytes", "bytearray"])
    @pytest.mark.parametrize("k,m", [(9, 3), (4, 2)])
    def test_one_flipped_byte_in_any_shard(self, k, m, convert):
        rs = ReedSolomon(k, m)
        payload = bytes(np.random.default_rng(k).integers(0, 256, 700, dtype=np.uint8))
        clean = {index: convert(shard.tobytes() if convert is not np.array else shard)
                 for index, shard in enumerate(rs.encode(payload))}
        # Decoded with its zero padding: a flip in a shard's last byte may
        # land only there.
        padded = rs.split(payload).tobytes()
        for index in range(k + m):
            # The flipped shard and the k - 1 shards after it, cyclically.
            survivors = [(index + offset) % (k + m) for offset in range(k)]
            assert rs.decode_data({i: clean[i] for i in survivors}, len(payload)) == payload
            for position in (0, len(clean[index]) - 1):
                flipped = bytearray(bytes(clean[index]))
                flipped[position] ^= 0x01
                corrupted = dict(clean)
                corrupted[index] = convert(
                    np.frombuffer(flipped, dtype=np.uint8) if convert is np.array
                    else flipped)
                read = {i: corrupted[i] for i in survivors}
                assert rs.decode_data(read, len(padded)) != padded, (index, position)
                rebuilt = reencode(rs, read, len(padded))
                assert any(bytes(rebuilt[i]) != bytes(corrupted[i])
                           for i in range(k + m)), (index, position)
