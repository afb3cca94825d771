"""Chunk placement policies: which region stores which chunk of an object.

The paper distributes the twelve chunks of each object among the six regions
round-robin, two chunks per region (Fig. 1), and Agar's Region Manager assumes
a round-robin policy (§III-a).  The policy abstraction also allows spreading
placements (offsetting the start region per object) and custom mappings, which
the tests and the ablation benchmarks use.
"""

from __future__ import annotations

from abc import ABC, abstractmethod


class PlacementPolicy(ABC):
    """Maps chunk indices of an object onto region names."""

    @abstractmethod
    def place(self, key: str, total_chunks: int, regions: list[str]) -> dict[int, str]:
        """Return a mapping ``chunk index -> region name``.

        Args:
            key: object key (lets policies vary placement per object).
            total_chunks: number of chunks (``k + m``).
            regions: candidate regions in a stable order.
        """


class RoundRobinPlacement(PlacementPolicy):
    """The paper's policy: chunk ``i`` goes to region ``i mod len(regions)``.

    Every object uses the same assignment, so with 12 chunks over 6 regions
    each region holds exactly 2 chunks of every object, as in Fig. 1.
    """

    def place(self, key: str, total_chunks: int, regions: list[str]) -> dict[int, str]:
        if not regions:
            raise ValueError("at least one region is required")
        if total_chunks < 0:
            raise ValueError("total_chunks must be non-negative")
        return {index: regions[index % len(regions)] for index in range(total_chunks)}


class SpreadPlacement(PlacementPolicy):
    """Round-robin with a per-object starting offset derived from the key.

    Spreading the start region balances load when ``k + m`` is not a multiple
    of the region count.
    """

    def place(self, key: str, total_chunks: int, regions: list[str]) -> dict[int, str]:
        if not regions:
            raise ValueError("at least one region is required")
        if total_chunks < 0:
            raise ValueError("total_chunks must be non-negative")
        offset = _stable_hash(key) % len(regions)
        return {
            index: regions[(index + offset) % len(regions)]
            for index in range(total_chunks)
        }


class ExplicitPlacement(PlacementPolicy):
    """A fixed, caller-supplied placement map (primarily for tests)."""

    def __init__(self, assignments: dict[str, dict[int, str]], default: PlacementPolicy | None = None) -> None:
        self._assignments = {key: dict(mapping) for key, mapping in assignments.items()}
        self._default = default or RoundRobinPlacement()

    def place(self, key: str, total_chunks: int, regions: list[str]) -> dict[int, str]:
        if key in self._assignments:
            mapping = self._assignments[key]
            missing = [index for index in range(total_chunks) if index not in mapping]
            if missing:
                raise ValueError(f"explicit placement for {key!r} is missing chunks {missing}")
            unknown = sorted(set(mapping.values()) - set(regions))
            if unknown:
                raise ValueError(f"explicit placement for {key!r} uses unknown regions {unknown}")
            return {index: mapping[index] for index in range(total_chunks)}
        return self._default.place(key, total_chunks, regions)


def _stable_hash(text: str) -> int:
    """A small deterministic string hash (FNV-1a); ``hash()`` is salted per-process."""
    value = 0xCBF29CE484222325
    for byte in text.encode("utf-8"):
        value ^= byte
        value = (value * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return value
