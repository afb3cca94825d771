"""Request-distribution generators: Zipfian and uniform (YCSB-style).

The paper's workloads are read-only and drawn either from a uniform
distribution or from Zipfian distributions with skew exponents between 0.2 and
1.4 (§V-A, §V-C).  The Zipfian generator here uses the standard finite-support
form ``P(rank i) ∝ 1 / i^s`` over ``n`` items, sampled through a precomputed
CDF, which matches YCSB's definition for the purposes of the evaluation.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np


def _make_rng(seed) -> np.random.Generator:
    """``np.random.default_rng(seed)`` minus its argument dispatch.

    Bit-identical for integer seeds (``default_rng`` wraps them in exactly
    this ``Generator(PCG64(SeedSequence(seed)))`` chain) but measurably
    cheaper — million-lane simulations construct one generator per client,
    so the dispatch overhead alone is seconds of setup time.
    """
    if type(seed) is int:
        return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    return np.random.default_rng(seed)


class KeyDistribution(ABC):
    """A distribution over item ranks ``0 .. n-1`` (rank 0 = most popular)."""

    def __init__(self, item_count: int, seed: int = 0) -> None:
        if item_count <= 0:
            raise ValueError("item_count must be positive")
        self._item_count = item_count
        self._rng = _make_rng(seed)
        self._seed = seed
        self._sampling_cdf: np.ndarray | None = None

    @property
    def item_count(self) -> int:
        """Number of distinct items."""
        return self._item_count

    @property
    def seed(self) -> int:
        """Seed the generator was created with."""
        return self._seed

    def reseed(self, seed: int) -> None:
        """Restart the random stream."""
        self._rng = _make_rng(seed)
        self._seed = seed

    @abstractmethod
    def probabilities(self) -> np.ndarray:
        """Per-rank probabilities (length ``item_count``, sums to 1)."""

    def sample(self) -> int:
        """Draw a single rank."""
        return int(self.sample_many(1)[0])

    def sample_many(self, count: int) -> np.ndarray:
        """Draw ``count`` ranks as an ``int64`` array.

        Replays ``Generator.choice(item_count, size=count, p=...)``
        bit-identically — the same normalised-CDF ``searchsorted`` over the
        same uniform draws — but against a cached CDF, skipping ``choice``'s
        per-call probability copy, validation and ``cumsum`` (a ~3.5×
        speedup that million-client simulations pay once per lane).
        """
        if count < 0:
            raise ValueError("count must be non-negative")
        cdf = self._sampling_cdf
        if cdf is None:
            cdf = self.probabilities().cumsum()
            cdf /= cdf[-1]
            cdf.flags.writeable = False
            self._sampling_cdf = cdf
        uniform = self._rng.random(count)
        return np.asarray(cdf.searchsorted(uniform, side="right"), dtype=np.int64)

    def cdf(self) -> np.ndarray:
        """Cumulative distribution over ranks (what Fig. 9 plots)."""
        return np.cumsum(self.probabilities())


#: Memoised Zipfian probability vectors.  Multi-client simulations build one
#: distribution per client over the same (item_count, skew); the vector is a
#: pure function of those two, so it is computed once and shared read-only
#: (``sample_many`` never mutates it).
_PROBABILITY_CACHE: dict[tuple[int, float], np.ndarray] = {}


def _zipfian_probabilities(item_count: int, skew: float) -> np.ndarray:
    probabilities = _PROBABILITY_CACHE.get((item_count, skew))
    if probabilities is None:
        ranks = np.arange(1, item_count + 1, dtype=np.float64)
        weights = 1.0 / np.power(ranks, skew)
        probabilities = weights / weights.sum()
        probabilities.flags.writeable = False
        _PROBABILITY_CACHE[(item_count, skew)] = probabilities
    return probabilities


#: Memoised sampling CDFs, shared the same way: a million clients over one
#: (item_count, skew) normalise the cumulative sum once, not once per lane.
_CDF_CACHE: dict[tuple[int, float], np.ndarray] = {}


def _zipfian_sampling_cdf(item_count: int, skew: float) -> np.ndarray:
    cdf = _CDF_CACHE.get((item_count, skew))
    if cdf is None:
        cdf = _zipfian_probabilities(item_count, skew).cumsum()
        cdf /= cdf[-1]
        cdf.flags.writeable = False
        _CDF_CACHE[(item_count, skew)] = cdf
    return cdf


class ZipfianDistribution(KeyDistribution):
    """Finite Zipfian distribution ``P(i) ∝ 1 / (i + 1)^s``.

    Args:
        item_count: number of items (the paper uses 300 objects).
        skew: the Zipf exponent ``s`` (the paper's default workload uses 1.1).
        seed: RNG seed.
    """

    def __init__(self, item_count: int, skew: float = 1.1, seed: int = 0) -> None:
        super().__init__(item_count, seed)
        if skew < 0:
            raise ValueError("skew must be non-negative")
        self._skew = skew
        self._probabilities = _zipfian_probabilities(item_count, skew)
        self._sampling_cdf = _zipfian_sampling_cdf(item_count, skew)

    @property
    def skew(self) -> float:
        """The Zipf exponent."""
        return self._skew

    def probabilities(self) -> np.ndarray:
        return self._probabilities.copy()


class UniformDistribution(KeyDistribution):
    """Every item equally likely (the paper's uniform workload)."""

    def probabilities(self) -> np.ndarray:
        return np.full(self._item_count, 1.0 / self._item_count)

    def sample_many(self, count: int) -> np.ndarray:
        if count < 0:
            raise ValueError("count must be non-negative")
        return self._rng.integers(0, self._item_count, size=count)
