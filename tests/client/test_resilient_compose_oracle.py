"""The shipped resilient composer against the one it replaced.

``tests/reference/resilient_compose.py`` holds ``_compose_resilient`` as it
stood at ``3e4f674`` (a ``draw()`` frame per sample, a ``totals`` list, one
``observe`` per chunk).  Twin strategies — same links, same seed, same
resilience block — compose the same sequence of reads, one through the
shipped step and one through the reference; every result, every deadline
tracker, the read serial and the stream the reads leave behind must be
equal, bit for bit.  The shipped step walks a block of the stream its caller
peeked: the twin drives it per event (one peek and one advance a read, as
``_compose`` does) and in waves of consecutive reads sharing one peeked
block and one cursor (as ``compose_resilient_wave`` does).  The selection
each read composes is checked against ``tests/reference/read_selection.py``.
"""

from __future__ import annotations

from itertools import cycle

from hypothesis import assume, given, settings, strategies as st

from repro.backend import ErasureCodedStore
from repro.client.resilience import ResilienceConfig
from repro.client.strategies import ClientConfig, make_strategy
from repro.geo import DEFAULT_CACHE_READ_MS, PAPER_REGIONS
from repro.geo.latency import LatencyModel, LinkProfile
from repro.geo.topology import DEFAULT_LATENCY_MATRIX, Topology
from repro.sim.faults import FaultState

from reference.read_selection import select_reference
from reference.resilient_compose import compose_resilient_reference

MEGABYTE = 1024 * 1024
REGION = "frankfurt"
BACKENDS = sorted(DEFAULT_LATENCY_MATRIX[REGION])
KEY = "object-0"
DATA_CHUNKS = 9
PLACED_CHUNKS = 12

SIGMAS = st.sampled_from([0.0, 0.06, 0.3])


def build_strategy(link_sigmas: dict[str, float], cache_sigma: float, seed: int,
                   jitter_block: int, burn: int, resilience: ResilienceConfig,
                   neighbor_sigma: float):
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
    # Leave the stream ``jitter_block - burn`` draws into a block: the first
    # reads then straddle a refill.
    latency.take_standard_normals(max(jitter_block - burn, 0))
    return strategy, latency


@st.composite
def reads(draw):
    """One read: what it holds already, the hinted chunks its cache missed
    and the fault state it meets.  Positions index all twelve placed chunks
    nearest first, each tuple listed furthest first as readers list them."""
    held = draw(st.lists(st.integers(0, PLACED_CHUNKS - 1), unique=True,
                         max_size=DATA_CHUNKS))
    neighbors = draw(st.integers(0, min(3, len(held))))
    free = [position for position in range(PLACED_CHUNKS) if position not in held]
    missed = draw(st.permutations(free))[:draw(st.integers(0, DATA_CHUNKS - len(held)))]
    down = draw(st.lists(st.sampled_from(BACKENDS), unique=True, max_size=2))
    browned = draw(st.lists(st.sampled_from(BACKENDS), unique=True, max_size=3))
    multipliers = [draw(st.sampled_from([1.5, 3.0, 10.0])) for _ in browned]
    return (tuple(sorted(held[neighbors:], reverse=True)),
            tuple(sorted(missed, reverse=True)),
            tuple(sorted(held[:neighbors], reverse=True)),
            frozenset(down), tuple(sorted(zip(browned, multipliers))))


#: How the shipped twin is driven: one read a block, or waves of 1-12.
PER_EVENT = [1]
WAVES = st.one_of(st.just(PER_EVENT),
                  st.lists(st.integers(1, 12), min_size=1, max_size=6))


def run_reads(strategy, sequence, waves=None) -> list[tuple]:
    """Compose ``sequence``: through the reference (``waves`` None), or
    through the shipped step with ``waves`` (cycled) consecutive reads to one
    peeked block."""
    plan = strategy._plan_for(KEY)
    latency = strategy._latency
    outcomes = []

    def compose(hits, missed, neighbors, down, brownouts, block, cursor):
        strategy.set_fault_state(FaultState(down_backends=down, brownouts=brownouts))
        selection = plan.select(hits, missed, neighbors, down)
        assert ((selection.positions, selection.replanned, selection.failed,
                 selection.hedge_position)
                == select_reference(plan.nearest_regions, DATA_CHUNKS,
                                    hits, missed, neighbors, down))
        if selection.failed:        # an unavailable read is never sampled
            outcomes.append(None)
            return cursor
        if block is None:
            outcome = compose_resilient_reference(
                strategy, plan, len(hits), selection, len(neighbors))
        else:
            cursor, *outcome = strategy._compose_resilient(
                plan, len(hits), selection, len(neighbors), block, cursor)
        outcomes.append(tuple(outcome) + (selection.hedge_position,))
        return cursor

    if waves is None:
        for read in sequence:
            compose(*read, None, 0)
        return outcomes
    # A read takes at most one draw per chunk and retry, and the hedge's.
    per_read = DATA_CHUNKS + strategy._resilience.retry_budget + 1
    start = 0
    for size in cycle(waves):
        wave = sequence[start:start + size]
        if not wave:
            return outcomes
        start += size
        block, first = latency.peek_standard_normals(per_read * len(wave))
        cursor = first
        for read in wave:
            cursor = compose(*read, block, cursor)
        latency.advance_standard_normals(cursor - first)


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
       sequence=st.lists(reads(), min_size=1, max_size=32), waves=WAVES)
def test_composer_equals_the_reference(link_sigmas, cache_sigma, neighbor_sigma,
                                       seed, jitter_block, burn, retry_budget,
                                       hedge, timeout_factor, hedge_quantile,
                                       hedge_min_samples, sequence, waves):
    assume(retry_budget > 0 or hedge)       # otherwise reads compose plainly
    resilience = ResilienceConfig(
        retry_budget=retry_budget, timeout_factor=timeout_factor, hedge=hedge,
        hedge_quantile=hedge_quantile, hedge_min_samples=hedge_min_samples)
    shipped, shipped_latency = build_strategy(
        link_sigmas, cache_sigma, seed, jitter_block, burn, resilience,
        neighbor_sigma)
    oracle, oracle_latency = build_strategy(
        link_sigmas, cache_sigma, seed, jitter_block, burn, resilience,
        neighbor_sigma)

    assert run_reads(shipped, sequence, waves) == run_reads(oracle, sequence)
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
    twins = [build_strategy(sigmas, 0.06, 5, 1024, 0, resilience, 0.0)
             for _ in range(2)]
    plan = twins[0][0]._plan_for(KEY)
    down = frozenset({"sao_paulo", "n_virginia"})
    held = next(position for position in range(DATA_CHUNKS)
                if plan.nearest_regions[position] in down)
    sequence = [((held,), (), (), down, ())] * 40
    outcomes = [run_reads(twins[0][0], sequence, PER_EVENT),
                run_reads(twins[1][0], sequence)]
    assert outcomes[0] == outcomes[1]
    assert all(outcome[-1] == -1 and not outcome[2] for outcome in outcomes[0])
    assert sum(outcome[1] for outcome in outcomes[0]) > 0
    assert tracker_state(twins[0][0]) == tracker_state(twins[1][0])
    assert (twins[0][1].take_standard_normals(16)
            == twins[1][1].take_standard_normals(16))


def test_waves_under_an_outage_and_brownouts():
    """A region down, two browned out and a tight timeout, over 120 reads in
    waves of every size from 1 to 12: retries, hedges and re-plans all
    happen inside shared blocks, and a 1,024-draw jitter block refills
    mid-wave."""
    resilience = ResilienceConfig(retry_budget=3, timeout_factor=1.05, hedge=True,
                                  hedge_quantile=0.7, hedge_min_samples=4)
    sigmas = {region: 0.3 for region in BACKENDS}
    twins = [build_strategy(sigmas, 0.06, 11, 1024, 3, resilience, 0.0)
             for _ in range(2)]
    down = frozenset({"sao_paulo"})
    brownouts = (("n_virginia", 3.0), ("tokyo", 1.5))
    sequence = [(hits, (), (), down, brownouts)
                for hits in ((), (8,), (8, 7, 6), tuple(range(DATA_CHUNKS - 1, -1, -1)))] * 30
    outcomes = [run_reads(twins[0][0], sequence, list(range(1, 13))),
                run_reads(twins[1][0], sequence)]
    assert outcomes[0] == outcomes[1]
    assert sum(outcome[1] for outcome in outcomes[0]) > 0     # retries
    assert any(outcome[2] for outcome in outcomes[0])         # hedges
    assert tracker_state(twins[0][0]) == tracker_state(twins[1][0])
    assert twins[0][0]._read_serial == twins[1][0]._read_serial == len(sequence)
    assert (twins[0][1].take_standard_normals(16)
            == twins[1][1].take_standard_normals(16))
