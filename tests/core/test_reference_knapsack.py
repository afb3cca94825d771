"""The reference solver's own helpers (``tests/reference/knapsack.py``).

The equivalence suites trust the reference's configuration derivations and
linear option lookups; these pin what they do.
"""

import pytest

from repro.core.knapsack import EMPTY_CONFIGURATION, CacheConfiguration
from repro.core.options import CachingOption

from reference.knapsack import (
    best_option_value,
    option_with_weight,
    option_with_weight_at_most,
    replace,
    with_option,
)


def make_option(key: str, weight: int, value: float) -> CachingOption:
    return CachingOption(key=key, chunk_indices=tuple(range(weight)), weight=weight,
                         latency_improvement_ms=value, marginal_improvement_ms=value,
                         popularity=1.0, residual_latency_ms=0.0)


class TestConfigurationDerivation:
    def test_with_option_and_lookup(self):
        option = make_option("a", 3, 30.0)
        config = with_option(EMPTY_CONFIGURATION, option)
        assert config.weight == 3
        assert config.value == pytest.approx(30.0)
        assert config.options == (option,)
        assert config.chunks_for("a") == (0, 1, 2)
        assert config.chunks_for("b") == ()
        with pytest.raises(ValueError):
            with_option(config, make_option("a", 1, 1.0))

    def test_replace_total_and_partial(self):
        old = make_option("a", 5, 50.0)
        config = CacheConfiguration(options=(old, make_option("b", 2, 10.0)))
        shrunk = replace(config, old, make_option("a", 3, 30.0), added=make_option("c", 2, 40.0))
        assert shrunk.weight == 7
        assert "c" in shrunk.keys() and len(shrunk.chunks_for("a")) == 3
        evicted = replace(config, old, None)
        assert "a" not in evicted.keys()
        assert evicted.weight == 2
        # An equal option that is not the same object is found too.
        assert replace(config, make_option("a", 5, 50.0), None).keys() == ["b"]


class TestOptionLookups:
    def make_options(self):
        return [
            CachingOption("k", (1,), 1, 100.0, 100.0, 2.0, 900.0),
            CachingOption("k", (1, 2, 3), 3, 300.0, 200.0, 2.0, 700.0),
            CachingOption("k", (1, 2, 3, 4, 5), 5, 500.0, 200.0, 2.0, 500.0),
        ]

    def test_option_with_weight_exact(self):
        options = self.make_options()
        assert option_with_weight(options, 3).weight == 3
        assert option_with_weight(options, 4) is None

    def test_option_with_weight_at_most(self):
        options = self.make_options()
        assert option_with_weight_at_most(options, 4).weight == 3
        assert option_with_weight_at_most(options, 0) is None

    def test_best_option_value(self):
        assert best_option_value(self.make_options()) == 1000.0
        assert best_option_value([]) == 0.0
