"""Tests for chunk placement policies."""

from collections import Counter

import pytest

from repro.backend.placement import ExplicitPlacement, RoundRobinPlacement, SpreadPlacement

REGIONS = ["frankfurt", "dublin", "n_virginia", "sao_paulo", "tokyo", "sydney"]


class TestRoundRobin:
    def test_two_chunks_per_region(self):
        placement = RoundRobinPlacement().place("obj", 12, REGIONS)
        assert placement[0] == "frankfurt"
        assert placement[6] == "frankfurt"
        assert placement[5] == "sydney"
        assert set(Counter(placement.values()).values()) == {2}

    def test_same_for_every_key(self):
        policy = RoundRobinPlacement()
        assert policy.place("a", 12, REGIONS) == policy.place("b", 12, REGIONS)

    def test_validation(self):
        with pytest.raises(ValueError):
            RoundRobinPlacement().place("a", 12, [])
        with pytest.raises(ValueError):
            RoundRobinPlacement().place("a", -1, REGIONS)


class TestSpread:
    def test_offset_varies_by_key_but_is_deterministic(self):
        policy = SpreadPlacement()
        first = policy.place("object-1", 12, REGIONS)
        again = policy.place("object-1", 12, REGIONS)
        assert first == again
        offsets = {policy.place(f"object-{i}", 12, REGIONS)[0] for i in range(30)}
        assert len(offsets) > 1

    def test_balanced_across_regions(self):
        policy = SpreadPlacement()
        placement = policy.place("any", 12, REGIONS)
        assert set(Counter(placement.values()).values()) == {2}


class TestExplicit:
    def test_explicit_mapping_used(self):
        explicit = ExplicitPlacement({"special": {0: "tokyo", 1: "tokyo", 2: "sydney"}})
        placement = explicit.place("special", 3, REGIONS)
        assert placement == {0: "tokyo", 1: "tokyo", 2: "sydney"}

    def test_falls_back_to_round_robin(self):
        explicit = ExplicitPlacement({})
        assert explicit.place("other", 6, REGIONS) == RoundRobinPlacement().place("other", 6, REGIONS)

    def test_missing_chunks_rejected(self):
        explicit = ExplicitPlacement({"partial": {0: "tokyo"}})
        with pytest.raises(ValueError):
            explicit.place("partial", 3, REGIONS)

    def test_unknown_region_rejected(self):
        explicit = ExplicitPlacement({"bad": {0: "atlantis", 1: "tokyo"}})
        with pytest.raises(ValueError):
            explicit.place("bad", 2, REGIONS)
