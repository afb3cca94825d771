"""Object-popularity tracking with an exponentially weighted moving average.

The paper's Request Monitor computes, at the end of every reconfiguration
period (§IV-A):

    popularity_i(key) = alpha * freq_i(key) + (1 - alpha) * popularity_{i-1}(key)

with ``alpha = 0.8`` in the evaluation.  ``freq_i`` is the raw access count of
the object during period ``i``.
"""

from __future__ import annotations

from dataclasses import dataclass

#: The weighting coefficient used in the paper's experiments (§IV-A).
DEFAULT_ALPHA = 0.8


@dataclass(frozen=True, slots=True)
class PopularityRecord:
    """Popularity snapshot of one object at the end of a period."""

    key: str
    popularity: float
    current_frequency: int


class PopularityTracker:
    """EWMA popularity per object key.

    Args:
        alpha: weight of the current period's frequency (paper: 0.8).

    Example:
        >>> tracker = PopularityTracker(alpha=0.8)
        >>> for _ in range(100):
        ...     tracker.record_access("key1")
        >>> tracker.end_period()
        {'key1': 80.0}
        >>> tracker.popularity("key1")
        80.0
    """

    def __init__(self, alpha: float = DEFAULT_ALPHA) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        self._alpha = alpha
        self._popularity: dict[str, float] = {}
        self._current_frequency: dict[str, int] = {}

    @property
    def alpha(self) -> float:
        """The EWMA weighting coefficient."""
        return self._alpha

    def record_access(self, key: str, count: int = 1) -> None:
        """Record ``count`` accesses to ``key`` during the current period."""
        if count < 0:
            raise ValueError("count must be non-negative")
        self._current_frequency[key] = self._current_frequency.get(key, 0) + count

    def current_frequency(self, key: str) -> int:
        """Accesses to ``key`` observed so far in the current period."""
        return self._current_frequency.get(key, 0)

    def popularity(self, key: str) -> float:
        """EWMA popularity of ``key`` as of the last completed period."""
        return self._popularity.get(key, 0.0)

    def known_keys(self) -> set[str]:
        """Keys with non-zero popularity or accesses in the current period."""
        return set(self._popularity) | set(self._current_frequency)

    def end_period(self) -> dict[str, float]:
        """Close the current period and fold its frequencies into the EWMA.

        Returns the updated popularity mapping (a copy).
        """
        for key in self.known_keys():
            frequency = self._current_frequency.get(key, 0)
            previous = self._popularity.get(key, 0.0)
            self._popularity[key] = self._alpha * frequency + (1.0 - self._alpha) * previous
        self._current_frequency.clear()
        return dict(self._popularity)

    def snapshot(self, top_n: int | None = None) -> list[PopularityRecord]:
        """Popularity records sorted by decreasing popularity.

        Args:
            top_n: optionally limit to the ``top_n`` most popular keys.
        """
        records = [
            PopularityRecord(
                key=key,
                popularity=self._popularity.get(key, 0.0),
                current_frequency=self._current_frequency.get(key, 0),
            )
            for key in self.known_keys()
        ]
        records.sort(key=lambda record: (-record.popularity, record.key))
        return records[:top_n] if top_n is not None else records

    def reset(self) -> None:
        """Drop all state (used between experiment runs)."""
        self._popularity.clear()
        self._current_frequency.clear()
