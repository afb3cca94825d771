"""The resilient composer as it stood at ``3e4f674``: one frame per draw.

``ReadStrategy._compose_resilient`` samples a read with timeouts, retries and
one hedge.  The shipped body walks a cursor over the jitter block, keeps a
running top-two and feeds the deadline trackers one run per region; this is
the body it replaced, moved here verbatim (``self`` is the strategy; its last
line calls the ``observe`` of the same commit, kept below, instead of the
shipped one): a ``draw()`` call per sample, a ``totals`` list scanned by
``max``, one ``observe`` per backend chunk.  Same draws at the same stream positions, same
arithmetic — ``tests/client/test_resilient_compose_oracle.py`` drives both on
twin strategies and requires equal results, trackers, serials and streams.

``observe_reference`` is the tracker update of the same commit, one call per
observation; ``tests/client/test_resilience.py`` folds runs through
``EwmaQuantileTracker.observe_at`` against it.
"""

from __future__ import annotations

import math

from repro.client.resilience import EwmaQuantileTracker


def compose_resilient_reference(self, plan, cache_hits: int, selection,
                                neighbor_count: int
                                ) -> tuple[float, int, bool, bool]:
    """``(slowest chunk ms, retries, hedged, hedge_won)`` of one read."""
    resilience = self._resilience
    backoff = self._backoff
    exp = math.exp
    draw = self._latency.next_standard_normal
    brownouts = self._brownouts
    serial = self._read_serial
    self._read_serial = serial + 1
    budget = resilience.retry_budget
    timeout_factor = resilience.timeout_factor
    retries = 0

    expected = plan.cache_expected_ms
    jitter = plan.cache_jitter
    totals: list[float] = [
        expected * exp(jitter * draw()) if jitter > 0.0 else expected
        for _ in range(cache_hits)
    ]

    expected_by_position = plan.nearest_expected_ms
    jitter_by_position = plan.nearest_jitter
    regions = plan.nearest_regions
    straggler_pos = -1
    slowest_backend = 0.0
    straggler_region: str | None = None
    backend_samples: list[tuple[str, float]] = []
    for position in selection.positions:
        base = expected_by_position[position]
        jitter = jitter_by_position[position]
        region = regions[position]
        # Multiplying by the neutral 1.0 is exact, so un-browned chunks
        # keep their plain sample and timeout bit-for-bit.
        multiplier = brownouts.get(region, 1.0) if brownouts is not None else 1.0
        timeout = timeout_factor * (base * multiplier)
        charged = 0.0
        while True:
            sample = (base * exp(jitter * draw()) if jitter > 0.0 else base) * multiplier
            if budget <= 0 or sample <= timeout:
                break
            budget -= 1
            retries += 1
            charged += timeout + backoff.delay_ms(serial, retries)
        backend_samples.append((region, sample))
        total_chunk = charged + sample
        if total_chunk > slowest_backend:
            slowest_backend = total_chunk
            straggler_pos = len(totals)
            straggler_region = region
        totals.append(total_chunk)

    if neighbor_count:
        neighbor_ms = self._neighbor_read_ms
        sigma = self._neighbor_jitter
        if sigma > 0.0:
            timeout = timeout_factor * neighbor_ms
            for _ in range(neighbor_count):
                charged = 0.0
                while True:
                    sample = neighbor_ms * exp(sigma * draw())
                    if budget <= 0 or sample <= timeout:
                        break
                    budget -= 1
                    retries += 1
                    charged += timeout + backoff.delay_ms(serial, retries)
                totals.append(charged + sample)
        else:
            # A flat neighbour link samples exactly its expectation, which
            # can never exceed timeout_factor × itself — no retry possible.
            totals.extend([neighbor_ms] * neighbor_count)

    slowest = max(totals) if totals else 0.0

    hedged = False
    hedge_won = False
    if (resilience.hedge and straggler_pos >= 0
            and slowest_backend >= slowest and slowest_backend > 0.0):
        tracker = self._hedge_trackers.get(straggler_region)
        candidate = selection.hedge_position
        if (candidate >= 0 and tracker is not None and tracker.ready
                and slowest_backend > tracker.estimate):
            hedged = True
            base = expected_by_position[candidate]
            jitter = jitter_by_position[candidate]
            hedge_sample = base * exp(jitter * draw()) if jitter > 0.0 else base
            if brownouts is not None:
                hedge_sample *= brownouts.get(regions[candidate], 1.0)
            hedge_total = tracker.estimate + hedge_sample
            if hedge_total < slowest_backend:
                hedge_won = True
                totals[straggler_pos] = hedge_total
                slowest = max(totals)

    if resilience.hedge and backend_samples:
        trackers = self._hedge_trackers
        for sample_region, sample in backend_samples:
            tracker = trackers.get(sample_region)
            if tracker is None:
                trackers[sample_region] = tracker = EwmaQuantileTracker.from_config(resilience)
            observe_reference(tracker, sample)

    return slowest, retries, hedged, hedge_won


def observe_reference(self, value: float) -> None:
    """Fold one latency observation (ms) into the estimate of tracker ``self``."""
    value = float(value)
    if self._count == 0:
        self._estimate = value
    else:
        deviation = abs(value - self._estimate)
        self._spread += self.alpha * (deviation - self._spread)
        step = self.alpha * max(self._spread, 1e-9)
        if value >= self._estimate:
            self._estimate += step * self.quantile
        else:
            self._estimate -= step * (1.0 - self.quantile)
    self._count += 1
