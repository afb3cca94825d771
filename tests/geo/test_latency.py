"""Tests for link profiles and the latency model."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.geo.latency import DEFAULT_CHUNK_SIZE, LatencyModel, LinkProfile


class TestLinkProfile:
    def test_expected_read_decomposition(self):
        profile = LinkProfile(rtt_ms=100.0, bandwidth_mbps=8.0)
        # 1 MB over 8 Mbit/s = 1,048,576 * 8 / 8,000 ms ≈ 1048.6 ms of transfer.
        assert profile.expected_read_ms(1024 * 1024) == pytest.approx(100.0 + 1048.576)

    def test_zero_size_read_is_rtt(self):
        profile = LinkProfile(rtt_ms=42.0, bandwidth_mbps=100.0)
        assert profile.expected_read_ms(0) == pytest.approx(42.0)

    @pytest.mark.parametrize("kwargs", [
        {"rtt_ms": -1.0, "bandwidth_mbps": 1.0},
        {"rtt_ms": 1.0, "bandwidth_mbps": 0.0},
        {"rtt_ms": 1.0, "bandwidth_mbps": 1.0, "jitter": -0.1},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            LinkProfile(**kwargs)

    @settings(max_examples=30, deadline=None)
    @given(expected=st.floats(min_value=1.0, max_value=5000.0),
           rtt_fraction=st.floats(min_value=0.05, max_value=0.95))
    def test_from_expected_inverts(self, expected, rtt_fraction):
        profile = LinkProfile.from_expected(expected, rtt_fraction=rtt_fraction)
        assert profile.expected_read_ms(DEFAULT_CHUNK_SIZE) == pytest.approx(expected, rel=1e-9)

    def test_from_expected_validation(self):
        with pytest.raises(ValueError):
            LinkProfile.from_expected(0.0)


@pytest.fixture
def model():
    links = {
        ("a", "a"): LinkProfile.from_expected(50.0, jitter=0.0),
        ("a", "b"): LinkProfile.from_expected(500.0, jitter=0.0),
        ("b", "a"): LinkProfile.from_expected(500.0, jitter=0.1),
        ("b", "b"): LinkProfile.from_expected(50.0, jitter=0.0),
    }
    caches = {
        "a": LinkProfile.from_expected(10.0, jitter=0.0),
        "b": LinkProfile.from_expected(10.0, jitter=0.0),
    }
    return LatencyModel(links, caches, seed=3)


class TestLatencyModel:
    def test_regions(self, model):
        assert model.regions() == ["a", "b"]

    def test_expected_reads(self, model):
        assert model.expected_backend_read("a", "b") == pytest.approx(500.0)
        assert model.expected_cache_read("a") == pytest.approx(10.0)

    def test_unknown_link(self, model):
        with pytest.raises(KeyError):
            model.link("a", "z")
        with pytest.raises(KeyError):
            model.cache_link("z")

    def test_sampling_without_jitter_is_deterministic(self, model):
        samples = [model.sample_backend_read("a", "b") for _ in range(10)]
        assert all(sample == pytest.approx(500.0) for sample in samples)

    def test_sampling_with_jitter_varies(self, model):
        samples = {round(model.sample_backend_read("b", "a"), 6) for _ in range(20)}
        assert len(samples) > 1
        for sample in samples:
            assert 250.0 < sample < 1000.0

    def test_reseed_reproduces_stream(self, model):
        model.reseed(77)
        first = [model.sample_backend_read("b", "a") for _ in range(5)]
        model.reseed(77)
        second = [model.sample_backend_read("b", "a") for _ in range(5)]
        assert first == second
        assert model.seed == 77

    def test_probe_averages(self, model):
        assert model.probe("a", "b", samples=3) == pytest.approx(500.0)
        with pytest.raises(ValueError):
            model.probe("a", "b", samples=0)

    def test_chunk_size_affects_latency(self, model):
        small = model.expected_backend_read("a", "b", size_bytes=1000)
        large = model.expected_backend_read("a", "b", size_bytes=DEFAULT_CHUNK_SIZE * 4)
        assert large > small


def batched_model(seed: int, jitter_block: int = 1024) -> LatencyModel:
    links = {
        ("a", "a"): LinkProfile.from_expected(50.0, jitter=0.08),
        ("a", "b"): LinkProfile.from_expected(500.0, jitter=0.3),
    }
    caches = {"a": LinkProfile.from_expected(10.0, jitter=0.06)}
    return LatencyModel(links, caches, seed=seed, jitter_block=jitter_block)


class TestBatchedJitterSampling:
    """The refillable sample block must reproduce the per-read
    ``Generator.lognormal`` stream bit-identically (ROADMAP open item)."""

    def _reference_stream(self, seed: int, sigmas: list[float]) -> list[float]:
        """What the pre-batching implementation drew: one scalar lognormal per
        jittered sample, in call order."""
        rng = np.random.default_rng(seed)
        return [float(rng.lognormal(mean=0.0, sigma=sigma)) for sigma in sigmas]

    def test_identical_stream_for_same_seed(self):
        model = batched_model(seed=123)
        calls = [("backend", "a", "a", 0.08), ("backend", "a", "b", 0.3),
                 ("cache", "a", None, 0.06)] * 40
        sampled = []
        for kind, client, backend, _sigma in calls:
            if kind == "backend":
                expected = model.expected_backend_read(client, backend)
                sampled.append(model.sample_backend_read(client, backend))
            else:
                expected = model.expected_cache_read(client)
                sampled.append(model.sample_cache_read(client))
            assert sampled[-1] > 0
        multipliers = self._reference_stream(123, [call[3] for call in calls])
        expecteds = []
        for kind, client, backend, _sigma in calls:
            if kind == "backend":
                expecteds.append(model.expected_backend_read(client, backend))
            else:
                expecteds.append(model.expected_cache_read(client))
        reference = [expected * multiplier
                     for expected, multiplier in zip(expecteds, multipliers)]
        assert sampled == reference

    def test_block_refill_boundary(self):
        """Streams are identical regardless of the refill block size."""
        tiny = batched_model(seed=9, jitter_block=3)
        large = batched_model(seed=9, jitter_block=4096)
        tiny_samples = [tiny.sample_backend_read("a", "b") for _ in range(50)]
        large_samples = [large.sample_backend_read("a", "b") for _ in range(50)]
        assert tiny_samples == large_samples

    def test_reseed_resets_block(self):
        model = batched_model(seed=5)
        first = [model.sample_backend_read("a", "b") for _ in range(7)]
        model.reseed(5)
        second = [model.sample_backend_read("a", "b") for _ in range(7)]
        assert first == second

    def test_invalid_block_size(self):
        with pytest.raises(ValueError):
            batched_model(seed=1, jitter_block=0)


class TestBatchedNormalDraws:
    """take_standard_normals must consume the same stream as scalar draws."""

    def test_batched_equals_scalar(self):
        scalar = batched_model(seed=13)
        batched = batched_model(seed=13)
        expected = [scalar.next_standard_normal() for _ in range(40)]
        observed = (batched.take_standard_normals(7)
                    + batched.take_standard_normals(1)
                    + [batched.next_standard_normal() for _ in range(2)]
                    + batched.take_standard_normals(30))
        assert observed == expected

    def test_batched_across_refill_boundary(self):
        scalar = batched_model(seed=13, jitter_block=8)
        batched = batched_model(seed=13, jitter_block=8)
        expected = [scalar.next_standard_normal() for _ in range(30)]
        observed = batched.take_standard_normals(5) + batched.take_standard_normals(25)
        assert observed == expected

    def test_batch_larger_than_block(self):
        scalar = batched_model(seed=2, jitter_block=4)
        batched = batched_model(seed=2, jitter_block=4)
        expected = [scalar.next_standard_normal() for _ in range(21)]
        assert batched.take_standard_normals(21) == expected


_DRAW_OPS = st.one_of(
    st.tuples(st.just("peek"), st.integers(0, 40), st.integers(0, 40)),
    st.tuples(st.just("next"), st.just(1), st.just(0)),
    st.tuples(st.just("take"), st.integers(0, 40), st.just(0)),
    st.tuples(st.just("array"), st.integers(0, 40), st.just(0)),
    st.tuples(st.just("reseed"), st.integers(0, 5), st.just(0)),
)


class TestDrawMethodsShareOneStream:
    """Peeked, scalar, listed and array draws, interleaved in any order, are
    the stream a model that only ever draws scalars produces."""

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**16), jitter_block=st.integers(1, 16),
           ops=st.lists(_DRAW_OPS, max_size=40))
    def test_any_interleaving_equals_scalar_draws(self, seed, jitter_block, ops):
        model = batched_model(seed, jitter_block)
        scalar = batched_model(seed, jitter_block)
        promised: list[float] = []      # peeked, not consumed: must come next
        for op, count, used in ops:
            if op == "reseed":
                model.reseed(count)
                scalar.reseed(count)
                promised = []
                continue
            if op == "peek":
                block, position = model.peek_standard_normals(count)
                window = block[position:position + count]
                assert len(window) == count
                used = min(used, count)
                model.advance_standard_normals(used)
                values, unconsumed = window[:used], window[used:]
            elif op == "next":
                values, unconsumed = [model.next_standard_normal()], []
            elif op == "take":
                values, unconsumed = model.take_standard_normals(count), []
            else:
                values, unconsumed = model.take_standard_normals_array(count).tolist(), []
            assert values == [scalar.next_standard_normal() for _ in values]
            window = values + unconsumed
            assert window[:len(promised)] == promised[:len(window)]
            promised = max(promised[len(values):], unconsumed, key=len)
