"""The shipped resilient composer against the one it replaced.

``tests/reference/resilient_compose.py`` holds ``_compose_resilient`` as it
stood at ``3e4f674`` (a ``draw()`` frame per sample, a ``totals`` list, one
``observe`` per chunk).  Twin strategies — same links, same seed, same
resilience block, the reference bound over one of them — compose the same
sequence of reads; every result, every deadline tracker, the read serial and
the stream the reads leave behind must be equal, bit for bit.
"""

from __future__ import annotations

import types

from hypothesis import assume, given, settings, strategies as st

from repro.backend import ErasureCodedStore
from repro.client.resilience import ResilienceConfig
from repro.client.strategies import ClientConfig, make_strategy
from repro.geo import DEFAULT_CACHE_READ_MS, PAPER_REGIONS
from repro.geo.latency import LatencyModel, LinkProfile
from repro.geo.topology import DEFAULT_LATENCY_MATRIX, Topology
from repro.sim.faults import FaultState

from reference.resilient_compose import compose_resilient_reference

MEGABYTE = 1024 * 1024
REGION = "frankfurt"
BACKENDS = sorted(DEFAULT_LATENCY_MATRIX[REGION])
KEY = "object-0"
DATA_CHUNKS = 9

SIGMAS = st.sampled_from([0.0, 0.06, 0.3])


def build_strategy(link_sigmas: dict[str, float], cache_sigma: float, seed: int,
                   jitter_block: int, burn: int, resilience: ResilienceConfig,
                   neighbor_sigma: float, reference: bool):
    """One of the twins: frankfurt's client over links of the given σ."""
    links = {(client, backend): LinkProfile.from_expected(
                 expected, jitter=link_sigmas[backend] if client == REGION else 0.06)
             for client, row in DEFAULT_LATENCY_MATRIX.items()
             for backend, expected in row.items()}
    caches = {client: LinkProfile.from_expected(
                  DEFAULT_CACHE_READ_MS, rtt_fraction=0.5, jitter=cache_sigma)
              for client in DEFAULT_LATENCY_MATRIX}
    latency = LatencyModel(links, caches, seed=seed, jitter_block=jitter_block)
    store = ErasureCodedStore(Topology(list(PAPER_REGIONS), latency))
    store.populate(object_count=2, object_size=MEGABYTE)
    strategy = make_strategy("lru-3", store, REGION, 5 * MEGABYTE,
                             client_config=ClientConfig(resilience=resilience))
    strategy.set_neighbor_catalog(None, 120.0, neighbor_sigma)
    if reference:
        strategy._compose_resilient = types.MethodType(
            compose_resilient_reference, strategy)
    # Leave the stream ``jitter_block - burn`` draws into a block: the first
    # reads then straddle a refill.
    latency.take_standard_normals(max(jitter_block - burn, 0))
    return strategy, latency


@st.composite
def reads(draw):
    """One read: what it holds already, and the fault state it meets."""
    held = draw(st.lists(st.integers(0, DATA_CHUNKS - 1), unique=True, max_size=7))
    neighbors = draw(st.integers(0, min(3, len(held))))
    down = draw(st.lists(st.sampled_from(BACKENDS), unique=True, max_size=2))
    browned = draw(st.lists(st.sampled_from(BACKENDS), unique=True, max_size=3))
    multipliers = [draw(st.sampled_from([1.5, 3.0, 10.0])) for _ in browned]
    return (tuple(sorted(held[neighbors:])), tuple(sorted(held[:neighbors])),
            frozenset(down), tuple(sorted(zip(browned, multipliers))))


def run_reads(strategy, sequence) -> list[tuple]:
    plan = strategy._plan_for(KEY)
    outcomes = []
    for hits, neighbors, down, brownouts in sequence:
        strategy.set_fault_state(FaultState(down_backends=down, brownouts=brownouts))
        selection = plan.select(hits, neighbors, down)
        if selection.failed:        # _compose never samples an unavailable read
            outcomes.append(None)
            continue
        outcomes.append(strategy._compose_resilient(
            plan, len(hits), selection, len(neighbors))
            + (selection.hedge_position,))
    return outcomes


def tracker_state(strategy) -> list[tuple]:
    return [(region, tracker.estimate, tracker._spread, tracker.count)
            for region, tracker in strategy._hedge_trackers.items()]


@settings(max_examples=150, deadline=None)
@given(link_sigmas=st.fixed_dictionaries({region: SIGMAS for region in BACKENDS}),
       cache_sigma=SIGMAS, neighbor_sigma=SIGMAS,
       seed=st.integers(0, 2**16),
       jitter_block=st.sampled_from([5, 16, 1024]), burn=st.integers(0, 12),
       retry_budget=st.integers(0, 3), hedge=st.booleans(),
       timeout_factor=st.sampled_from([1.01, 1.1, 3.0]),
       hedge_quantile=st.sampled_from([0.5, 0.7, 0.95]),
       hedge_min_samples=st.sampled_from([1, 2, 8, 64]),
       sequence=st.lists(reads(), min_size=1, max_size=32))
def test_composer_equals_the_reference(link_sigmas, cache_sigma, neighbor_sigma,
                                       seed, jitter_block, burn, retry_budget,
                                       hedge, timeout_factor, hedge_quantile,
                                       hedge_min_samples, sequence):
    assume(retry_budget > 0 or hedge)       # otherwise reads compose plainly
    resilience = ResilienceConfig(
        retry_budget=retry_budget, timeout_factor=timeout_factor, hedge=hedge,
        hedge_quantile=hedge_quantile, hedge_min_samples=hedge_min_samples)
    shipped, shipped_latency = build_strategy(
        link_sigmas, cache_sigma, seed, jitter_block, burn, resilience,
        neighbor_sigma, reference=False)
    oracle, oracle_latency = build_strategy(
        link_sigmas, cache_sigma, seed, jitter_block, burn, resilience,
        neighbor_sigma, reference=True)

    assert run_reads(shipped, sequence) == run_reads(oracle, sequence)
    assert tracker_state(shipped) == tracker_state(oracle)
    assert shipped._read_serial == oracle._read_serial
    assert ([shipped_latency.next_standard_normal() for _ in range(16)]
            == [oracle_latency.next_standard_normal() for _ in range(16)])


def test_degraded_replan_without_a_hedge_candidate():
    """Two regions down, one of their chunks held: every survivor is fetched.

    Four of the twelve chunks are unreachable and one of them is already in
    hand, so the re-plan needs all eight reachable ones — there is nothing
    left to hedge with, however late the straggler.
    """
    resilience = ResilienceConfig(retry_budget=2, timeout_factor=1.01, hedge=True,
                                  hedge_quantile=0.5, hedge_min_samples=1)
    sigmas = {region: 0.3 for region in BACKENDS}
    twins = [build_strategy(sigmas, 0.06, 5, 1024, 0, resilience, 0.0, reference)
             for reference in (False, True)]
    plan = twins[0][0]._plan_for(KEY)
    down = frozenset({"sao_paulo", "n_virginia"})
    held = next(position for position, placed in enumerate(plan.needed)
                if placed.region in down)
    sequence = [((held,), (), down, ())] * 40
    outcomes = [run_reads(strategy, sequence) for strategy, _ in twins]
    assert outcomes[0] == outcomes[1]
    assert all(outcome[-1] == -1 and not outcome[2] for outcome in outcomes[0])
    assert sum(outcome[1] for outcome in outcomes[0]) > 0
    assert tracker_state(twins[0][0]) == tracker_state(twins[1][0])
    assert (twins[0][1].take_standard_normals(16)
            == twins[1][1].take_standard_normals(16))
