"""Tests for the Zipfian/uniform request distributions."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.workload.zipfian import (
    UniformDistribution,
    ZipfianDistribution,
    _zipfian_sampling_cdf,
)


class TestZipfian:
    def test_probabilities_sum_to_one(self):
        distribution = ZipfianDistribution(300, skew=1.1)
        assert distribution.probabilities().sum() == pytest.approx(1.0)

    def test_rank_zero_most_popular(self):
        probabilities = ZipfianDistribution(300, skew=1.1).probabilities()
        assert np.all(np.diff(probabilities) <= 0)

    def test_paper_fig9_example(self):
        """Fig. 9 caption example: the top 5 objects of a skewed workload ≈ 40 % of requests."""
        share = ZipfianDistribution(300, skew=1.1).cdf()[4]
        assert 0.35 <= share <= 0.50

    def test_higher_skew_concentrates(self):
        top_10 = [ZipfianDistribution(300, skew).cdf()[9] for skew in (1.4, 0.8, 0.2)]
        assert top_10[0] > top_10[1] > top_10[2]

    def test_zero_skew_is_uniform(self):
        cdf = ZipfianDistribution(100, 0.0).cdf()
        assert cdf[9] == pytest.approx(0.1)
        assert cdf[-1] == pytest.approx(1.0)

    def test_sampling_is_deterministic_per_seed(self):
        first = ZipfianDistribution(50, 1.1, seed=9).sample_many(100)
        second = ZipfianDistribution(50, 1.1, seed=9).sample_many(100)
        assert np.array_equal(first, second)

    def test_reseed_changes_stream(self):
        distribution = ZipfianDistribution(50, 1.1, seed=9)
        first = distribution.sample_many(50)
        distribution.reseed(10)
        second = distribution.sample_many(50)
        assert not np.array_equal(first, second)
        assert distribution.seed == 10

    def test_empirical_frequencies_track_probabilities(self):
        distribution = ZipfianDistribution(20, skew=1.1, seed=1)
        samples = distribution.sample_many(20_000)
        counts = np.bincount(samples, minlength=20) / 20_000
        assert counts[0] == pytest.approx(distribution.probabilities()[0], rel=0.1)

    def test_sample_many_bit_identical_to_generator_choice(self):
        """The cached-CDF searchsorted fast path must replay exactly what
        ``Generator.choice(p=...)`` would draw from the same stream — the
        workload streams are part of the engine's determinism contract."""
        for item_count, skew, seed in ((50, 1.1, 9), (300, 0.0, 3), (7, 1.99, 0)):
            distribution = ZipfianDistribution(item_count, skew, seed=seed)
            fast = distribution.sample_many(500)
            rng = np.random.default_rng(seed)
            reference = rng.choice(
                item_count, size=500, p=distribution.probabilities())
            assert np.array_equal(fast, reference), (item_count, skew, seed)

    def test_validation(self):
        with pytest.raises(ValueError):
            ZipfianDistribution(0, 1.0)
        with pytest.raises(ValueError):
            ZipfianDistribution(10, -0.5)
        with pytest.raises(ValueError):
            ZipfianDistribution(10, 1.0).sample_many(-1)

    def test_cdf_edges(self):
        """Rank 0 alone holds ``1 / H(n, s)``; one item holds everything."""
        cdf = ZipfianDistribution(10, 1.1).cdf()
        harmonic = sum(1.0 / rank ** 1.1 for rank in range(1, 11))
        assert cdf[0] == pytest.approx(1.0 / harmonic)
        assert cdf[-1] == pytest.approx(1.0)
        assert ZipfianDistribution(1, 1.1).cdf().tolist() == [1.0]

    def test_sampling_cdf_ends_at_exactly_one(self):
        """``sample_many`` searches a CDF normalised to end at 1.0, so a
        uniform draw just under 1 still lands on the last rank."""
        sampling = _zipfian_sampling_cdf(300, 1.1)
        assert sampling[-1] == 1.0
        assert np.allclose(sampling, ZipfianDistribution(300, 1.1).cdf())
        assert int(sampling.searchsorted(np.nextafter(1.0, 0.0), side="right")) == 299

    def test_shared_vectors_are_read_only(self):
        """Distributions over one ``(item_count, skew)`` share one
        probability vector and one sampling CDF, which no caller can write;
        ``probabilities()`` hands out a copy."""
        first = ZipfianDistribution(50, 0.9, seed=1)
        second = ZipfianDistribution(50, 0.9, seed=2)
        assert first._probabilities is second._probabilities
        assert first._sampling_cdf is second._sampling_cdf
        with pytest.raises(ValueError):
            first._probabilities[0] = 0.5
        with pytest.raises(ValueError):
            first._sampling_cdf[0] = 0.5
        copy = first.probabilities()
        copy[0] = 0.5
        assert second.probabilities()[0] != 0.5

    @settings(max_examples=25, deadline=None)
    @given(item_count=st.integers(2, 200), skew=st.floats(0.0, 2.0))
    def test_cdf_monotone_and_normalised(self, item_count, skew):
        cdf = ZipfianDistribution(item_count, skew).cdf()
        assert len(cdf) == item_count
        assert np.all(np.diff(cdf) >= -1e-12)
        assert cdf[-1] == pytest.approx(1.0)


class TestUniform:
    def test_probabilities(self):
        distribution = UniformDistribution(40)
        assert np.allclose(distribution.probabilities(), 1 / 40)

    def test_samples_in_range(self):
        samples = UniformDistribution(40, seed=2).sample_many(1000)
        assert samples.min() >= 0
        assert samples.max() < 40

    def test_single_sample(self):
        assert 0 <= UniformDistribution(5, seed=1).sample() < 5
