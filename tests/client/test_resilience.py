"""Unit tests for the resilience primitives (repro.client.resilience).

The backoff policy and the EWMA quantile tracker carry the determinism
contract of the resilient read path: the same inputs must yield the same
delays and estimates on every execution path, and the tracker must actually
converge to the configured quantile on stationary streams.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.client.resilience import (
    BackoffPolicy,
    EwmaQuantileTracker,
    ResilienceConfig,
    hash_unit_interval,
    splitmix64,
)

from reference.resilient_compose import observe_reference


class TestHashing:
    def test_splitmix64_range_and_determinism(self):
        values = [splitmix64(i) for i in range(100)]
        assert all(0 <= v < 2**64 for v in values)
        assert len(set(values)) == 100  # no trivial collisions
        assert [splitmix64(i) for i in range(100)] == values

    def test_unit_interval_range(self):
        samples = [hash_unit_interval(7, serial, attempt)
                   for serial in range(50) for attempt in (1, 2, 3)]
        assert all(0.0 <= u < 1.0 for u in samples)
        # The hash should look uniform enough to jitter with.
        assert 0.3 < sum(samples) / len(samples) < 0.7

    def test_unit_interval_is_order_sensitive(self):
        assert hash_unit_interval(1, 2) != hash_unit_interval(2, 1)


class TestResilienceConfig:
    def test_defaults_are_inactive(self):
        config = ResilienceConfig()
        assert not config.active

    @pytest.mark.parametrize("kwargs", [
        dict(retry_budget=1),
        dict(hedge=True),
        dict(retry_budget=2, hedge=True),
    ])
    def test_active_when_retrying_or_hedging(self, kwargs):
        assert ResilienceConfig(**kwargs).active

    def test_emergency_reconfiguration_alone_is_not_active(self):
        """Emergency reconfiguration changes the control plane only; the
        read path must stay on the fixed-draw fast composition."""
        assert not ResilienceConfig(emergency_reconfiguration=True).active

    @pytest.mark.parametrize("kwargs", [
        dict(retry_budget=-1),
        dict(timeout_factor=1.0),
        dict(timeout_factor=0.5),
        dict(backoff_base_ms=-1.0),
        dict(backoff_multiplier=0.9),
        dict(backoff_jitter=1.5),
        dict(hedge_quantile=0.0),
        dict(hedge_quantile=1.0),
        dict(hedge_ewma_alpha=0.0),
        dict(hedge_min_samples=0),
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            ResilienceConfig(**kwargs)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf],
                             ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("field", ["timeout_factor", "backoff_base_ms",
                                       "backoff_multiplier"])
    def test_non_finite_values_are_refused(self, field, value):
        """A NaN timeout would retry every chunk, an infinite base delay
        never let a retried read complete, a NaN delay drop the chunk out of
        the slowest-chunk max: each is refused, naming its field."""
        with pytest.raises(ValueError, match=field):
            ResilienceConfig(**{field: value})


class TestBackoffPolicy:
    def test_exponential_growth_without_jitter(self):
        policy = BackoffPolicy(base_ms=5.0, multiplier=2.0, jitter=0.0)
        assert policy.delay_ms(0, 1) == pytest.approx(5.0)
        assert policy.delay_ms(0, 2) == pytest.approx(10.0)
        assert policy.delay_ms(0, 3) == pytest.approx(20.0)
        # Serial is irrelevant when nothing is jittered.
        assert policy.delay_ms(17, 2) == policy.delay_ms(0, 2)

    def test_jitter_bounds_and_determinism(self):
        policy = BackoffPolicy(base_ms=8.0, multiplier=2.0, jitter=0.5, seed=3)
        for serial in range(20):
            for attempt in (1, 2, 3):
                nominal = 8.0 * 2.0 ** (attempt - 1)
                delay = policy.delay_ms(serial, attempt)
                assert nominal * 0.5 < delay <= nominal
                assert delay == policy.delay_ms(serial, attempt)

    def test_jitter_varies_with_serial_and_seed(self):
        policy = BackoffPolicy(jitter=0.5, seed=0)
        delays = {policy.delay_ms(serial, 1) for serial in range(10)}
        assert len(delays) == 10
        reseeded = BackoffPolicy(jitter=0.5, seed=1)
        assert policy.delay_ms(0, 1) != reseeded.delay_ms(0, 1)

    def test_from_config_round_trips(self):
        config = ResilienceConfig(retry_budget=2, backoff_base_ms=3.0,
                                  backoff_multiplier=1.5, backoff_jitter=0.25,
                                  backoff_seed=9)
        policy = BackoffPolicy.from_config(config)
        assert policy.base_ms == 3.0
        assert policy.multiplier == 1.5
        assert policy.jitter == 0.25
        assert policy.seed == 9

    def test_attempt_is_one_based(self):
        with pytest.raises(ValueError, match="1-based"):
            BackoffPolicy().delay_ms(0, 0)

    def test_validation(self):
        with pytest.raises(ValueError):
            BackoffPolicy(base_ms=-1.0)
        with pytest.raises(ValueError):
            BackoffPolicy(multiplier=0.5)
        with pytest.raises(ValueError):
            BackoffPolicy(jitter=2.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf],
                             ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("field", ["base_ms", "multiplier"])
    def test_non_finite_values_are_refused(self, field, value):
        with pytest.raises(ValueError, match=field):
            BackoffPolicy(**{field: value})


class TestEwmaQuantileTracker:
    def test_first_observation_seeds_estimate(self):
        tracker = EwmaQuantileTracker(quantile=0.95, min_samples=4)
        tracker.observe(120.0)
        assert tracker.estimate == 120.0
        assert tracker.count == 1
        assert not tracker.ready
        assert tracker.deadline() is None

    def test_ready_gating(self):
        tracker = EwmaQuantileTracker(min_samples=4)
        for value in (10.0, 11.0, 12.0):
            tracker.observe(value)
        assert not tracker.ready
        tracker.observe(13.0)
        assert tracker.ready
        assert tracker.deadline() == tracker.estimate

    def test_deterministic_sequence(self):
        """The exact update rule is part of the bit-identity contract: pin a
        hand-computed short sequence (alpha=0.5, q=0.75)."""
        tracker = EwmaQuantileTracker(quantile=0.75, alpha=0.5, min_samples=1)
        tracker.observe(100.0)
        assert tracker.estimate == pytest.approx(100.0)
        # deviation 20 -> spread 10, step 5; value above -> +5*0.75
        tracker.observe(120.0)
        assert tracker.estimate == pytest.approx(103.75)
        # deviation 23.75 -> spread 16.875, step 8.4375; below -> -step*0.25
        tracker.observe(80.0)
        assert tracker.estimate == pytest.approx(103.75 - 8.4375 * 0.25)

    def test_two_trackers_agree(self):
        a = EwmaQuantileTracker(quantile=0.9, alpha=0.05)
        b = EwmaQuantileTracker(quantile=0.9, alpha=0.05)
        stream = [50.0 + 10.0 * math.sin(i / 3.0) for i in range(200)]
        for value in stream:
            a.observe(value)
            b.observe(value)
        assert a.estimate == b.estimate
        assert a.count == b.count == 200

    @pytest.mark.parametrize("quantile", [0.5, 0.9])
    def test_quantile_convergence(self, quantile):
        """On a stationary stream the equilibrium estimate must sit near the
        empirical quantile: roughly 1−q of observations exceed it."""
        tracker = EwmaQuantileTracker(quantile=quantile, alpha=0.05,
                                      min_samples=1)
        # Deterministic pseudo-uniform stream over [100, 200).
        stream = [100.0 + 100.0 * hash_unit_interval(42, i) for i in range(4000)]
        for value in stream:
            tracker.observe(value)
        tail = stream[2000:]
        exceed = sum(1 for value in tail if value > tracker.estimate)
        assert exceed / len(tail) == pytest.approx(1.0 - quantile, abs=0.06)

    @settings(max_examples=100, deadline=None)
    @given(samples=st.lists(st.floats(min_value=0.0, max_value=1e4), min_size=1,
                            max_size=24),
           runs=st.lists(st.lists(st.integers(0, 23), max_size=6), max_size=8),
           quantile=st.sampled_from([0.5, 0.7, 0.95]),
           alpha=st.sampled_from([0.05, 0.5, 1.0]))
    def test_runs_fold_like_single_observations(self, samples, runs, quantile, alpha):
        """``observe_at`` over any runs of offsets equals the 3e4f674 update
        applied once per observation, state bits included."""
        folded = EwmaQuantileTracker(quantile=quantile, alpha=alpha)
        single = EwmaQuantileTracker(quantile=quantile, alpha=alpha)
        for run in runs:
            offsets = tuple(offset % len(samples) for offset in run)
            folded.observe_at(samples, offsets)
            for offset in offsets:
                observe_reference(single, samples[offset])
            assert ((folded.estimate, folded._spread, folded.count)
                    == (single.estimate, single._spread, single.count))

    def test_tracks_drift_upward(self):
        """A brownout-like level shift must pull the estimate up."""
        tracker = EwmaQuantileTracker(quantile=0.95, alpha=0.1, min_samples=1)
        for i in range(300):
            tracker.observe(50.0 + 5.0 * hash_unit_interval(1, i))
        before = tracker.estimate
        for i in range(600):
            tracker.observe(150.0 + 5.0 * hash_unit_interval(2, i))
        assert tracker.estimate > before
        assert tracker.estimate > 100.0

    def test_from_config_round_trips(self):
        config = ResilienceConfig(hedge=True, hedge_quantile=0.8,
                                  hedge_ewma_alpha=0.2, hedge_min_samples=7)
        tracker = EwmaQuantileTracker.from_config(config)
        assert tracker.quantile == 0.8
        assert tracker.alpha == 0.2
        assert tracker.min_samples == 7

    def test_validation(self):
        with pytest.raises(ValueError):
            EwmaQuantileTracker(quantile=1.0)
        with pytest.raises(ValueError):
            EwmaQuantileTracker(alpha=0.0)
        with pytest.raises(ValueError):
            EwmaQuantileTracker(min_samples=0)
