"""Codec kernel-tier microbenchmarks: batched throughput per backend.

``test_bench_codec_encode_many`` is the guarded benchmark: batched RS(9, 3)
parity generation through the default ``numpy`` packed-gather backend.  On
top of the guarded timing it sweeps every *available* backend (``numba``
joins automatically when importable) over the same batch and records the
per-backend encode/decode MB/s — and the numba-vs-numpy ratio — in the
benchmark's ``extra_info``, which lands in ``BENCH_<date>.json``.  That is
how the NumPy-vs-JIT gap is tracked per commit without making numba a
dependency.

``test_bench_codec_decode_small`` guards the other regime: one 16 KiB object
through ``ErasureCodec.decode``, the serving tier's body-cache miss — one
rebuilt shard, nine ``bytes.translate`` calls and one XOR reduction.
``test_bench_codec_rebuild_row_large`` is the same read of a 1 MiB object,
where the translated row's margin over the packed gather is narrowest.
"""

import time

import numpy as np

from conftest import emit

from repro.erasure import ErasureCodec, ReedSolomon, available_backends

#: Batch geometry: 24 objects of 9 × 96 KiB data shards (RS(9, 3)) — ≈ 20 MiB
#: of data per encode_many call, large enough that kernel throughput (not
#: per-call Python overhead) dominates.
OBJECTS = 24
DATA_SHARDS = 9
PARITY_SHARDS = 3
SHARD_LEN = 96 * 1024

#: Data bytes processed by one batched encode call.
DATA_BYTES = OBJECTS * DATA_SHARDS * SHARD_LEN

#: Backends skipped by the MB/s sweep (the naive reference needs minutes at
#: this size; its correctness is covered by the equivalence suite).
SWEEP_SKIP = {"naive"}


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
    """Batched RS(9, 3) encode throughput (numpy backend), per-backend MB/s."""
    stack = _data_stack()
    rs = ReedSolomon(DATA_SHARDS, PARITY_SHARDS, backend="numpy")
    encoded = benchmark(rs.encode_many, stack)
    assert encoded.shape == (OBJECTS, DATA_SHARDS + PARITY_SHARDS, SHARD_LEN)

    # Worst-case decode pattern: all m data shards lost, parity in their place.
    survivors = tuple(range(PARITY_SHARDS, DATA_SHARDS + PARITY_SHARDS))

    encode_rates: dict[str, float] = {}
    decode_rates: dict[str, float] = {}
    for name, ok in sorted(available_backends().items()):
        if not ok or name in SWEEP_SKIP:
            continue
        backend_rs = ReedSolomon(DATA_SHARDS, PARITY_SHARDS, backend=name)
        backend_rs.encode_many(stack[:1])  # warm caches / trigger any JIT
        encode_rates[name] = DATA_BYTES / _best_seconds(
            lambda: backend_rs.encode_many(stack)) / 1e6
        degraded = encoded[:, list(survivors), :]
        backend_rs.decode_many(degraded[:1], survivors)
        decoded = backend_rs.decode_many(degraded, survivors)
        assert np.array_equal(decoded, stack)  # backends must agree bit-for-bit
        decode_rates[name] = DATA_BYTES / _best_seconds(
            lambda: backend_rs.decode_many(degraded, survivors)) / 1e6

    benchmark.extra_info["encode_MBps_per_backend"] = {
        name: round(rate, 1) for name, rate in encode_rates.items()}
    benchmark.extra_info["decode_MBps_per_backend"] = {
        name: round(rate, 1) for name, rate in decode_rates.items()}
    if "numba" in encode_rates:
        benchmark.extra_info["numba_vs_numpy_encode"] = round(
            encode_rates["numba"] / encode_rates["numpy"], 2)
        benchmark.extra_info["numba_vs_numpy_decode"] = round(
            decode_rates["numba"] / decode_rates["numpy"], 2)

    lines = [
        f"  {name:>6}: encode {encode_rates[name]:8.1f} MB/s, "
        f"decode {decode_rates[name]:8.1f} MB/s"
        for name in encode_rates
    ]
    emit("Codec backend throughput (batched RS(9,3), "
         f"{OBJECTS} × {DATA_SHARDS} × {SHARD_LEN // 1024} KiB)",
         "\n".join(lines) or "  (no fast backends available)")


def test_bench_codec_packed_numba(benchmark):
    """Packed-gather JIT tier: batched RS(9, 3) encode via ``numba-packed``.

    The registry degrades the packed backend to ``numpy`` when numba is
    absent, so the benchmark stays guarded on every CI leg: numpy-only hosts
    time (and baseline) the fallback, while the numba leg times the packed
    uint64 gather kernel itself.  The resolved backend lands in
    ``extra_info`` so the artifact records which tier actually ran, and the
    output is checked bit-for-bit against the numpy backend either way.
    """
    stack = _data_stack()
    rs = ReedSolomon(DATA_SHARDS, PARITY_SHARDS, backend="numba-packed")
    resolved = rs.backend.name
    rs.encode_many(stack[:1])  # trigger any JIT compile outside the timing

    encoded = benchmark(rs.encode_many, stack)

    reference = ReedSolomon(DATA_SHARDS, PARITY_SHARDS, backend="numpy")
    assert np.array_equal(encoded, reference.encode_many(stack))

    survivors = tuple(range(PARITY_SHARDS, DATA_SHARDS + PARITY_SHARDS))
    degraded = encoded[:, list(survivors), :]
    rs.decode_many(degraded[:1], survivors)
    decoded = rs.decode_many(degraded, survivors)
    assert np.array_equal(decoded, stack)

    encode_s = _best_seconds(lambda: rs.encode_many(stack))
    decode_s = _best_seconds(lambda: rs.decode_many(degraded, survivors))
    benchmark.extra_info["resolved_backend"] = resolved
    benchmark.extra_info["encode_MBps"] = round(DATA_BYTES / encode_s / 1e6, 1)
    benchmark.extra_info["decode_MBps"] = round(DATA_BYTES / decode_s / 1e6, 1)
    emit("Packed-gather codec tier (requested numba-packed, "
         f"resolved {resolved})",
         f"  encode {DATA_BYTES / encode_s / 1e6:8.1f} MB/s, "
         f"decode {DATA_BYTES / decode_s / 1e6:8.1f} MB/s")


def test_bench_codec_batched_vs_looped(benchmark):
    """The batching win itself: encode_many vs per-object encode_shards.

    Guards the amortisation claim at small-object scale, where per-call
    Python overhead is the dominant cost of the looped path.
    """
    rng = np.random.default_rng(7)
    small = rng.integers(0, 256, (64, DATA_SHARDS, 2048), dtype=np.uint8)
    rs = ReedSolomon(DATA_SHARDS, PARITY_SHARDS, backend="numpy")

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
