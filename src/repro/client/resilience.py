"""Resilience primitives for the read path: retries, backoff, and hedging.

This module hosts the *policy* pieces of the recovery-aware resilience tier:

* :class:`ResilienceConfig` — the frozen knob block nested under
  :class:`~repro.client.strategies.ClientConfig`.  When ``active`` the read
  strategies route every read through the resilient composition path (and the
  engine composes a wave of such reads over one peeked block of the jitter
  stream instead of the fixed-draw batch, because per-read draw counts are
  no longer fixed).
* :class:`BackoffPolicy` — deterministic exponential backoff with seeded
  jitter.  The jitter is a *stateless* splitmix64 hash of
  ``(seed, read serial, attempt)`` so it never consumes the latency model's
  shared standard-normal stream; redrawn chunk samples do, exactly like every
  other variable-draw path.
* :class:`EwmaQuantileTracker` — a stochastic-approximation quantile
  estimator over observed per-link chunk latencies.  The hedging deadline for
  a backend link is the tracker's current estimate of the configured quantile
  (p95 by default); the step size adapts via an EWMA of the absolute
  deviation so the estimate tracks both the scale and drift of a link.

Everything here is pure computation over explicit state — no clocks, no
randomness beyond the seeded hash — which is what keeps the three engine
execution paths bit-identical when resilience is on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

#: The offsets of a one-sample run (see EwmaQuantileTracker.observe_at).
_FIRST = (0,)


def splitmix64(value: int) -> int:
    """One splitmix64 finalizer round (public-domain constants)."""
    value = (value + _GOLDEN) & _MASK64
    z = value
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def hash_unit_interval(*parts: int) -> float:
    """Deterministically hash integers into ``[0, 1)`` via splitmix64."""
    state = 0
    for part in parts:
        state = splitmix64((state ^ (part & _MASK64)) & _MASK64)
    return state / 2.0**64


@dataclass(frozen=True)
class ResilienceConfig:
    """Knobs of the resilient read path (retries, hedging, reconfiguration).

    Attributes:
        retry_budget: maximum retries *per read* (shared across its chunks);
            0 disables retries.
        timeout_factor: a remote chunk fetch is declared timed out when its
            sampled latency exceeds ``timeout_factor × expected`` for that
            link (expected latency includes any active brownout multiplier).
        backoff_base_ms: backoff before the first retry.
        backoff_multiplier: exponential growth factor per further attempt.
        backoff_jitter: fraction of the delay jittered away, in ``[0, 1]``;
            the jittered delay is ``delay × (1 − jitter × u)`` with ``u``
            drawn from the seeded splitmix64 hash.
        backoff_seed: seed of the backoff jitter hash.
        hedge: enable speculative extra-chunk fetches.
        hedge_quantile: deadline quantile tracked per backend link.
        hedge_ewma_alpha: step/spread EWMA weight of the quantile tracker.
        hedge_min_samples: observations a link needs before its deadline is
            trusted (hedging never fires on a cold link).
        emergency_reconfiguration: let fault transitions trigger an immediate
            knapsack re-solve against the survivor topology (Agar only),
            outside the periodic reconfiguration timer.
    """

    retry_budget: int = 0
    timeout_factor: float = 3.0
    backoff_base_ms: float = 5.0
    backoff_multiplier: float = 2.0
    backoff_jitter: float = 0.5
    backoff_seed: int = 0
    hedge: bool = False
    hedge_quantile: float = 0.95
    hedge_ewma_alpha: float = 0.05
    hedge_min_samples: int = 16
    emergency_reconfiguration: bool = False

    def __post_init__(self) -> None:
        if self.retry_budget < 0:
            raise ValueError("retry_budget must be non-negative")
        # Written so that NaN fails each test: a NaN timeout retries every
        # chunk, an infinite backoff never lets a retried read complete.
        if not (math.isfinite(self.timeout_factor) and self.timeout_factor > 1.0):
            raise ValueError("timeout_factor must be finite and exceed 1.0")
        if not (math.isfinite(self.backoff_base_ms) and self.backoff_base_ms >= 0.0):
            raise ValueError("backoff_base_ms must be finite and non-negative")
        if not (math.isfinite(self.backoff_multiplier)
                and self.backoff_multiplier >= 1.0):
            raise ValueError("backoff_multiplier must be finite and at least 1.0")
        if not 0.0 <= self.backoff_jitter <= 1.0:
            raise ValueError("backoff_jitter must be in [0, 1]")
        if not 0.0 < self.hedge_quantile < 1.0:
            raise ValueError("hedge_quantile must be in (0, 1)")
        if not 0.0 < self.hedge_ewma_alpha <= 1.0:
            raise ValueError("hedge_ewma_alpha must be in (0, 1]")
        if self.hedge_min_samples < 1:
            raise ValueError("hedge_min_samples must be positive")

    @property
    def active(self) -> bool:
        """Whether the read path must route through resilient composition."""
        return self.retry_budget > 0 or self.hedge


class BackoffPolicy:
    """Deterministic exponential backoff with seeded multiplicative jitter.

    ``delay_ms(serial, attempt)`` for ``attempt ≥ 1`` is::

        base × multiplier^(attempt−1) × (1 − jitter × u)

    where ``u ∈ [0, 1)`` hashes ``(seed, serial, attempt)``.  The same
    ``(seed, serial, attempt)`` triple always yields the same delay, on any
    execution path, which is what the bit-identity contract needs.
    """

    __slots__ = ("base_ms", "multiplier", "jitter", "seed")

    def __init__(self, base_ms: float = 5.0, multiplier: float = 2.0,
                 jitter: float = 0.5, seed: int = 0) -> None:
        if not (math.isfinite(base_ms) and base_ms >= 0.0):
            raise ValueError("base_ms must be finite and non-negative")
        if not (math.isfinite(multiplier) and multiplier >= 1.0):
            raise ValueError("multiplier must be finite and at least 1.0")
        if not 0.0 <= jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")
        self.base_ms = float(base_ms)
        self.multiplier = float(multiplier)
        self.jitter = float(jitter)
        self.seed = int(seed)

    @classmethod
    def from_config(cls, config: ResilienceConfig) -> "BackoffPolicy":
        return cls(
            base_ms=config.backoff_base_ms,
            multiplier=config.backoff_multiplier,
            jitter=config.backoff_jitter,
            seed=config.backoff_seed,
        )

    def delay_ms(self, serial: int, attempt: int) -> float:
        """Backoff before retry ``attempt`` (1-based) of read ``serial``."""
        if attempt < 1:
            raise ValueError("attempt is 1-based")
        delay = self.base_ms * self.multiplier ** (attempt - 1)
        if self.jitter > 0.0 and delay > 0.0:
            delay *= 1.0 - self.jitter * hash_unit_interval(self.seed, serial, attempt)
        return delay


class EwmaQuantileTracker:
    """Streaming quantile estimate with an EWMA-adapted step size.

    Classic stochastic approximation: the estimate moves up by
    ``step × q`` when an observation lands at/above it and down by
    ``step × (1 − q)`` otherwise, so at equilibrium a fraction ``1 − q`` of
    observations exceed the estimate — i.e. the estimate is the q-quantile.
    ``step`` is ``alpha`` times an EWMA of the absolute deviation, so the
    tracker scales itself to each link's latency spread and follows drift
    (e.g. a brownout) at the EWMA's own time constant.
    """

    __slots__ = ("quantile", "alpha", "min_samples", "_estimate", "_spread", "_count")

    def __init__(self, quantile: float = 0.95, alpha: float = 0.05,
                 min_samples: int = 16) -> None:
        if not 0.0 < quantile < 1.0:
            raise ValueError("quantile must be in (0, 1)")
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        if min_samples < 1:
            raise ValueError("min_samples must be positive")
        self.quantile = float(quantile)
        self.alpha = float(alpha)
        self.min_samples = int(min_samples)
        self._estimate = 0.0
        self._spread = 0.0
        self._count = 0

    @classmethod
    def from_config(cls, config: ResilienceConfig) -> "EwmaQuantileTracker":
        return cls(
            quantile=config.hedge_quantile,
            alpha=config.hedge_ewma_alpha,
            min_samples=config.hedge_min_samples,
        )

    @property
    def count(self) -> int:
        return self._count

    @property
    def estimate(self) -> float:
        """Current quantile estimate (0.0 before the first observation)."""
        return self._estimate

    @property
    def ready(self) -> bool:
        """Whether enough samples accumulated to trust the estimate."""
        return self._count >= self.min_samples

    def observe(self, value: float) -> None:
        """Fold one latency observation (ms) into the estimate."""
        self.observe_at((float(value),), _FIRST)

    def observe_at(self, samples: Sequence[float], offsets: Sequence[int]) -> None:
        """Fold ``samples[offset]`` for each of ``offsets``, in that order.

        A read hands each link's tracker the read's backend samples together
        with the offsets of that link's chunks among them, so the estimate
        is loaded and stored once per link and read instead of once per chunk.
        """
        estimate = self._estimate
        spread = self._spread
        count = self._count
        alpha = self.alpha
        quantile = self.quantile
        for offset in offsets:
            value = samples[offset]
            if count == 0:
                estimate = value
            else:
                spread += alpha * (abs(value - estimate) - spread)
                step = alpha * (1e-9 if spread < 1e-9 else spread)
                if value >= estimate:
                    estimate += step * quantile
                else:
                    estimate -= step * (1.0 - quantile)
            count += 1
        self._estimate = estimate
        self._spread = spread
        self._count = count

    def deadline(self) -> float | None:
        """The hedge deadline, or ``None`` while the link is cold."""
        return self._estimate if self.ready else None
