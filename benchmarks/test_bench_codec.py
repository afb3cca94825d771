"""Codec kernel microbenchmarks: batched throughput and the cold read.

``test_bench_codec_encode_many`` is the guarded batched benchmark: RS(9, 3)
parity generation through the packed-gather kernel over a ≈ 20 MiB batch.
On top of the guarded timing it records the batch's encode and worst-case
decode MB/s in the benchmark's ``extra_info``, which lands in
``BENCH_<date>.json``.

``test_bench_codec_decode_small`` guards the other regime: one 16 KiB object
through ``ErasureCodec.decode``, the serving tier's body-cache miss — one
rebuilt shard, nine ``bytes.translate`` calls and one XOR reduction.
``test_bench_codec_rebuild_row_large`` is the same read of a 1 MiB object,
where the translated row's margin over the packed gather is narrowest.
"""

import time

import numpy as np

from conftest import emit

from repro.erasure import ErasureCodec, ReedSolomon

#: Batch geometry: 24 objects of 9 × 96 KiB data shards (RS(9, 3)) — ≈ 20 MiB
#: of data per encode_many call, large enough that kernel throughput (not
#: per-call Python overhead) dominates.
OBJECTS = 24
DATA_SHARDS = 9
PARITY_SHARDS = 3
SHARD_LEN = 96 * 1024

#: Data bytes processed by one batched encode call.
DATA_BYTES = OBJECTS * DATA_SHARDS * SHARD_LEN


def _data_stack() -> np.ndarray:
    rng = np.random.default_rng(2024)
    return rng.integers(0, 256, (OBJECTS, DATA_SHARDS, SHARD_LEN), dtype=np.uint8)


def _best_seconds(call, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - start)
    return best


def test_bench_codec_encode_many(benchmark):
    """Batched RS(9, 3) encode throughput, plus encode and decode MB/s."""
    stack = _data_stack()
    rs = ReedSolomon(DATA_SHARDS, PARITY_SHARDS)
    encoded = benchmark(rs.encode_many, stack)
    assert encoded.shape == (OBJECTS, DATA_SHARDS + PARITY_SHARDS, SHARD_LEN)

    # Worst-case decode pattern: all m data shards lost, parity in their place.
    survivors = tuple(range(PARITY_SHARDS, DATA_SHARDS + PARITY_SHARDS))
    degraded = encoded[:, list(survivors), :]
    assert np.array_equal(rs.decode_many(degraded, survivors), stack)
    encode_rate = DATA_BYTES / _best_seconds(lambda: rs.encode_many(stack)) / 1e6
    decode_rate = DATA_BYTES / _best_seconds(
        lambda: rs.decode_many(degraded, survivors)) / 1e6

    benchmark.extra_info["encode_MBps"] = round(encode_rate, 1)
    benchmark.extra_info["decode_MBps"] = round(decode_rate, 1)
    emit("Codec throughput (batched RS(9,3), "
         f"{OBJECTS} × {DATA_SHARDS} × {SHARD_LEN // 1024} KiB)",
         f"  encode {encode_rate:8.1f} MB/s, decode {decode_rate:8.1f} MB/s")


def test_bench_codec_batched_vs_looped(benchmark):
    """The batching win itself: encode_many vs per-object encode_shards.

    Guards the amortisation claim at small-object scale, where per-call
    Python overhead is the dominant cost of the looped path.
    """
    rng = np.random.default_rng(7)
    small = rng.integers(0, 256, (64, DATA_SHARDS, 2048), dtype=np.uint8)
    rs = ReedSolomon(DATA_SHARDS, PARITY_SHARDS)

    batched = benchmark(rs.encode_many, small)

    def looped():
        return [rs.encode_shards(small[index]) for index in range(small.shape[0])]

    looped_s = _best_seconds(looped)
    batched_s = _best_seconds(lambda: rs.encode_many(small))
    for index, shards in enumerate(looped()):
        for shard_index, shard in enumerate(shards):
            assert np.array_equal(batched[index, shard_index], shard)
    speedup = looped_s / batched_s if batched_s else float("inf")
    benchmark.extra_info["batched_speedup_vs_looped"] = round(speedup, 2)
    emit("Batched vs looped encode (64 × 9 × 2 KiB objects)",
         f"  looped {looped_s * 1000:7.2f} ms, batched {batched_s * 1000:7.2f} ms "
         f"-> {speedup:.1f}x")


#: What the geo-placement hands a gateway on every body-cache miss: a near
#: parity chunk replaces the farthest data chunk, so one data shard is rebuilt.
COLD_READ_SURVIVORS = (0, 1, 2, 3, 4, 6, 7, 8, 9)


def _cold_read(size: int):
    """One RS(9, 3) object of ``size`` bytes and its cold-read survivor chunks."""
    codec = ErasureCodec()
    payload = bytes(np.random.default_rng(16).integers(0, 256, size, dtype=np.uint8))
    encoded = codec.encode("bench", payload)
    chunks = {index: encoded.chunks[index] for index in COLD_READ_SURVIVORS}
    return codec, payload, encoded.metadata, chunks


def _record_decode(benchmark, payload: bytes, title: str) -> None:
    mean = benchmark.stats.stats.mean
    rate = len(payload) / mean / 1e6
    benchmark.extra_info["decode_us"] = round(mean * 1e6, 1)
    benchmark.extra_info["decode_MBps"] = round(rate, 1)
    benchmark.extra_info["survivors"] = list(COLD_READ_SURVIVORS)
    emit(title, f"  {mean * 1e6:7.1f} us per object, {rate:7.1f} MB/s")


def test_bench_codec_decode_small(benchmark):
    """The serving tier's cold read: one 16 KiB RS(9, 3) object, one shard rebuilt.

    The rebuilt row stands alone, so the kernel is nine ``bytes.translate``
    calls on the 1,821-byte payloads as they arrived (no coefficient of this
    row is 0 or 1) and one XOR reduction over the translated parts; the
    eight surviving data payloads are joined around the result.  About half
    of the row is those ten C calls and the rest is the Python around them —
    validation, the plan lookup, the joins — so it moves with both, which
    the ≥ 96 KiB rows above cannot see.
    """
    codec, payload, metadata, chunks = _cold_read(16 * 1024)
    result = benchmark(codec.decode, metadata, chunks)
    assert result == payload
    _record_decode(benchmark, payload,
                   "Small-object decode (16 KiB RS(9,3), one data shard rebuilt)")


def test_bench_codec_rebuild_row_large(benchmark):
    """The same read of a 1 MiB object: 116,509-byte shards, eight blocks each.

    A one-row group translates at every span; this is the span where that
    choice is closest (≈ 1.3× over the packed gather it replaced, against 3×
    at 4 KiB objects — docs/history/issue-20.md, "Cold wire read, second pass"),
    so a change that tips it shows here first.
    """
    codec, payload, metadata, chunks = _cold_read(1024 * 1024)
    assert metadata.chunk_size == 116_509
    result = benchmark(codec.decode, metadata, chunks)
    assert result == payload
    _record_decode(benchmark, payload,
                   "Large-object row rebuild (1 MiB RS(9,3), one data shard rebuilt)")
