"""fig_chaos's p99 before / during / after is the repo's one nearest-rank p99."""

from repro.client.stats import HitType, LatencyStats, ReadResult
from repro.experiments.fig_chaos import DISRUPTION_WINDOW_S, _partition_p99
from repro.serve.loadgen import RegionWireResult


def sample(latency_ms: float, started_at_s: float, failed: bool = False) -> ReadResult:
    return ReadResult(key="object-0", latency_ms=latency_ms, hit_type=HitType.MISS,
                      chunks_from_cache=0, chunks_from_backend=9,
                      started_at_s=started_at_s, failed=failed)


def wire_results(samples: list[ReadResult]) -> dict[str, RegionWireResult]:
    return {"frankfurt": RegionWireResult(
        region="frankfurt", stats=LatencyStats(), duration_s=1.0,
        requests=len(samples), errors=0, samples=samples)}


def test_p99_before_the_crash_is_the_nearest_rank():
    """Samples 1…100 ms before the crash: the 99th of 100 is 99 ms, where a
    linearly interpolated percentile reads 99.01 ms."""
    samples = [sample(float(ms), ms * 0.01) for ms in range(1, 101)]
    assert _partition_p99(wire_results(samples), crash_at_s=10.0) == (99.0, 0.0, 0.0)


def test_every_partition_agrees_with_latency_stats():
    crash_at = 1.0
    groups = {
        0.0: [3.0, 7.0, 1.5, 9.25, 4.0],
        crash_at + DISRUPTION_WINDOW_S / 2: [40.0, 12.5, 33.0],
        crash_at + 2 * DISRUPTION_WINDOW_S: [8.0, 2.0, 6.5, 5.0, 11.0, 7.5, 9.0],
    }
    samples = [sample(ms, start) for start, group in groups.items() for ms in group]
    samples.append(sample(1e6, 0.0, failed=True))  # a failed read has no latency
    expected = []
    for group in groups.values():
        stats = LatencyStats()
        for ms in group:
            stats.record(sample(ms, 0.0))
        expected.append(stats.p99_latency_ms)
    assert _partition_p99(wire_results(samples), crash_at) == tuple(expected)
