"""Client read strategies: Backend, LRU-c, LFU-c and Agar (paper §V-A).

The paper evaluates four customised YCSB clients that differ only in how they
locate the ``k`` chunks needed to reconstruct an object:

* **Backend** — read every chunk from the (possibly remote) backend buckets.
* **LRU-c / LFU-c** — keep a fixed number ``c`` of chunks per object in the
  local cache (the ``c`` most distant ones), managed by the LRU or LFU
  eviction policy.
* **Agar** — ask the local Agar node for hints and use the chunks its current
  configuration keeps in the cache.

All strategies share the same latency model: chunks are requested in parallel,
so a read costs a fixed client overhead plus the slowest chunk fetch plus the
decoding time (§IV "assumes the client requests blocks in parallel").  Cache
writes happen off the critical path and are not charged (§V-A).
"""

from __future__ import annotations

import copy
import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from repro.backend.object_store import ErasureCodedStore
from repro.cache.base import CacheSnapshot
from repro.cache.chunk_cache import ChunkCache
from repro.cache.policies import LFUEvictionPolicy, LRUEvictionPolicy
from repro.client.resilience import BackoffPolicy, EwmaQuantileTracker, ResilienceConfig
from repro.client.stats import HitType, ReadResult
from repro.core.agar_node import AgarNode, AgarNodeConfig
from repro.core.options import PlacedChunk, needed_chunks
from repro.erasure.chunk import Chunk, ChunkId


class _Selection:
    """Everything one backend-fetch selection needs at read time.

    Memoised per (cache hits, neighbour chunks, down regions) pattern in
    :class:`_ReadPlan`, so one short dict lookup per read replaces the
    selection scan, the survivor re-plan, the draw grouping, the regions
    tuple, the fetched chunk list and the hedge candidate.
    """

    __slots__ = ("positions", "count", "groups", "fetches", "region_runs",
                 "regions", "chunks", "replanned", "failed", "hedge_position")

    def __init__(self, plan: "_ReadPlan", positions: tuple[int, ...],
                 replanned: bool, failed: bool, hedge_position: int,
                 cache_hits: int) -> None:
        self.positions = positions
        self.count = len(positions)
        self.chunks = [plan.nearest[position] for position in positions]
        self.regions = tuple(sorted({placed.region for placed in self.chunks}))
        self.replanned = replanned
        self.failed = failed
        self.hedge_position = hedge_position
        # Draw groups: the selection grouped by identical (expected, σ)
        # pairs.  Chunks read over links with bit-equal expected latency and
        # jitter (typically: same backend region) produce samples that are
        # the same monotonic function of their z draw, so only the group's
        # largest z can be the slowest — one exp per group instead of per
        # chunk.  Each group carries the offsets its chunks' draws have in
        # the read's block of samples — the pattern's cache hits draw first,
        # then the selection in order — as ``first`` and ``rest``, keeping
        # the block stream layout unchanged.
        by_pair: dict[tuple[float, float], list[int]] = {}
        for offset, position in enumerate(positions, start=cache_hits):
            pair = (plan.nearest_expected_ms[position], plan.nearest_jitter[position])
            by_pair.setdefault(pair, []).append(offset)
        self.groups = tuple((expected, jitter, offsets[0], tuple(offsets[1:]))
                            for (expected, jitter), offsets in by_pair.items())
        # What a resilient read walks instead: timeouts are per chunk, so it
        # takes each fetch's (expected, σ, region) in selection order, and
        # afterwards hands every region's deadline tracker that region's
        # offsets among the read's backend samples, first fetched first.
        self.fetches = tuple(
            (plan.nearest_expected_ms[position], plan.nearest_jitter[position],
             plan.nearest_regions[position]) for position in positions)
        by_region: dict[str, list[int]] = {}
        for offset, (_, _, region) in enumerate(self.fetches):
            by_region.setdefault(region, []).append(offset)
        self.region_runs = tuple((region, tuple(offsets))
                                 for region, offsets in by_region.items())

    def slowest(self, plan: "_ReadPlan", cache_hits: int, samples) -> float:
        """The slowest chunk of one read on a fully jittered path, no brownout.

        ``samples`` is the read's block of z draws — the ``cache_hits``
        first, then the selection in order.  The cache chunks share one
        link, so their largest z decides; each draw group needs one ``exp``
        at its largest z.
        """
        exp = math.exp
        slowest = 0.0
        if cache_hits:
            slowest = plan.cache_expected_ms * exp(
                plan.cache_jitter * max(samples[:cache_hits]))
        for expected, jitter, first, rest in self.groups:
            largest = samples[first]
            for offset in rest:
                candidate = samples[offset]
                if candidate > largest:
                    largest = candidate
            sample = expected * exp(jitter * largest)
            if sample > slowest:
                slowest = sample
        return slowest


class _ReadPlan:
    """Precomputed per-key read state, shared by both strategy entry points.

    Everything about one key's read that does not depend on the cache or the
    fault state is computed once: every placed chunk (all ``k + m``) nearest
    first with the expected latency and jitter σ of its link, the ``k``
    failure-free ones furthest first with reusable chunk ids and
    (metadata-only) chunk objects for cache lookups and writes, and the
    decode estimate.  The per-read work then reduces to one cache probe, one
    memoised selection lookup, one jitter draw per chunk and a handful of
    float operations.

    Caching is sound because placement and expected latencies are immutable;
    availability is *not* baked in — a fault only changes which memoised
    selection a read resolves (see :meth:`select`), so no invalidation is
    needed when the availability mask changes.  The one thing a plan
    remembers that does change, an Agar key's hints, carries the
    configuration it was resolved under (see :meth:`hinted_under`).

    All of it but the key and its chunk ids depends only on where the
    object's chunks sit and how large they are, so the constructor builds a
    key-less *template* per placement shape and :meth:`for_key` stamps out
    the per-key plans: every key placed alike (all of them under round-robin
    placement) shares the template's arrays and selection memo.
    """

    __slots__ = ("key", "needed", "needed_chunk_ids", "needed_chunks", "nearest",
                 "nearest_regions", "nearest_expected_ms",
                 "nearest_jitter", "cache_expected_ms", "cache_jitter",
                 "all_jitter_positive", "chunk_size", "decode_ms", "data_chunks",
                 "_selections", "hint")

    def __init__(self, furthest_first: list[PlacedChunk], chunk_size: int,
                 latency, client_region: str, data_chunks: int, decode_ms: float) -> None:
        self.key = None
        self.needed_chunk_ids = self.needed_chunks = ()
        # Per key (see hinted_under): the Agar hints of the last configuration
        # the key was read under.
        self.hint = None
        self.chunk_size = chunk_size
        # The m furthest chunks are discarded on a failure-free read (§IV-A).
        self.needed = furthest_first[len(furthest_first) - data_chunks:]
        # nearest[:k] is the failure-free plan reversed; the m beyond it are
        # the spares degraded re-plans and hedges draw from.
        nearest = list(reversed(furthest_first))
        self.nearest = nearest
        self.nearest_regions = [placed.region for placed in nearest]
        profiles = [latency.link(client_region, placed.region) for placed in nearest]
        self.nearest_expected_ms = [profile.expected_read_ms(chunk_size) for profile in profiles]
        self.nearest_jitter = [profile.jitter for profile in profiles]
        try:
            cache_profile = latency.cache_link(client_region)
        except KeyError:
            # No local cache link: tolerated at plan-build time (the backend
            # strategy never reads the cache); the None sentinel makes
            # _compose raise on the first cache hit.
            self.cache_expected_ms = None
            self.cache_jitter = 0.0
        else:
            self.cache_expected_ms = cache_profile.expected_read_ms(chunk_size)
            self.cache_jitter = cache_profile.jitter
        self.all_jitter_positive = (self.cache_jitter > 0.0
                                    and all(sigma > 0.0 for sigma in self.nearest_jitter))
        self.decode_ms = decode_ms
        self.data_chunks = data_chunks
        # Keys are hit-position tuples on the failure-free path, or
        # (hits, neighbours, down regions) triples otherwise (the two shapes
        # cannot collide).
        self._selections: dict[object, _Selection] = {}

    def for_key(self, key: str, probes_cache: bool) -> "_ReadPlan":
        """The plan of ``key``: this template plus the key's chunk ids.

        A shallow copy, so the arrays and the selection memo stay shared.
        Strategies that never probe a cache skip the ids and chunk objects.
        """
        plan = copy.copy(self)
        plan.key = key
        if probes_cache:
            plan.needed_chunk_ids = [ChunkId(key=key, index=placed.index)
                                     for placed in self.needed]
            plan.needed_chunks = [Chunk(chunk_id=chunk_id, size=self.chunk_size)
                                  for chunk_id in plan.needed_chunk_ids]
        return plan

    def hinted_under(self, configuration) -> tuple:
        """Resolve and remember the key's Agar hints under ``configuration``.

        Returns ``(configuration, hinted positions, their chunk ids)`` — the
        needed positions (furthest first, ascending) whose chunk the
        configuration wants cached.  A configuration is immutable and
        ``CacheManager.install`` is the only way one becomes current, so a
        reader reuses the triple for as long as the node's current
        configuration *is* the remembered object; one triple per key, the
        next configuration's replaces it.
        """
        hinted = configuration.chunks_for(self.key)
        positions = tuple([position for position, placed in enumerate(self.needed)
                           if placed.index in hinted]) if hinted else ()
        chunk_ids = self.needed_chunk_ids
        self.hint = hint = (configuration, positions,
                            [chunk_ids[position] for position in positions])
        return hint

    def select(self, hit_positions: tuple[int, ...],
               neighbor_positions: tuple[int, ...] = (),
               down: frozenset[str] = frozenset()) -> _Selection:
        """The backend selection of one read pattern, memoised per pattern.

        ``hit_positions`` are positions into the needed (furthest-first)
        order, listed in that order — the canonical form every reader
        produces.  ``neighbor_positions`` (collaborative deployments only)
        are needed positions served from a neighbour's cache; they are
        excluded from the backend fetch like hits.  ``down`` is the set of
        unreachable backend regions.

        The client fetches the *nearest* chunks first, skipping those already
        obtained, until it has ``k`` in total.  If none of them sits in a
        down region the failure-free selection stands; otherwise the nearest
        survivors over all ``k + m`` placed chunks substitute
        (``replanned``), and when fewer than ``k`` chunks remain reachable
        the selection is ``failed``.
        """
        memo_key: object = (hit_positions if not neighbor_positions and not down
                            else (hit_positions, neighbor_positions, down))
        selection = self._selections.get(memo_key)
        if selection is None:
            needed = self.needed
            used = {needed[position].index for position in hit_positions}
            used.update(needed[position].index for position in neighbor_positions)
            required = self.data_chunks - len(used)
            regions = self.nearest_regions
            free = [position for position, placed in enumerate(self.nearest)
                    if placed.index not in used]
            chosen = free[:required]
            replanned = failed = False
            if down and any(regions[position] in down for position in chosen):
                free = [position for position in free if regions[position] not in down]
                failed = len(free) < required
                replanned = not failed
                chosen = [] if failed else free[:required]
            # A hedge races the nearest reachable chunk this read does not
            # already hold or fetch.
            spares = [position for position in free[len(chosen):]
                      if regions[position] not in down]
            selection = _Selection(self, tuple(chosen), replanned, failed,
                                   spares[0] if spares else -1,
                                   cache_hits=len(hit_positions))
            self._selections[memo_key] = selection
        return selection


@dataclass(frozen=True)
class ClientConfig:
    """Client-side latency constants.

    Attributes:
        overhead_ms: fixed per-read client/request overhead (connection setup,
            scheduling of the parallel chunk requests).
        include_decode_cost: charge the Reed-Solomon decode estimate to reads.
        resilience: retry/hedge/emergency-reconfiguration knobs
            (:class:`~repro.client.resilience.ResilienceConfig`); ``None``
            (the default) composes reads without timeouts, retries or hedges.
    """

    overhead_ms: float = 40.0
    include_decode_cost: bool = True
    resilience: ResilienceConfig | None = None


class ReadStrategy(ABC):
    """Base class for the four read strategies.

    Strategies are re-entrant with respect to interleaved clients: one
    instance serves every client of its region, so a read must only touch
    state that is safe under arbitrary request interleavings.  The per-key
    read plans (:class:`_ReadPlan`) qualify — they memoise pure functions of
    the key — and cache writes happen atomically within one read event, so
    the discrete-event engine can interleave any number of clients through
    one strategy.

    There is one read path.  :meth:`read` (string boundaries: gateway,
    replay, the reference loops) and :meth:`read_indexed` (the lane scheduler)
    only resolve the key's plan — both share the same plan objects — and hand
    it to the strategy's single :meth:`_read_plan` body.  Faults, neighbour
    catalogs, the decision sink and resilience modify the plan's selection
    and the one composer; none of them selects a different implementation.

    Args:
        store: the erasure-coded object store.
        client_region: region the client (and its local cache) runs in.
        config: client latency constants.
    """

    name: str = "base"

    #: Engine wave dispatch: True on strategies whose unfaulted,
    #: non-resilient reads take a fixed draw count (one per chunk on a fully
    #: jittered topology), letting the engine sample a whole wave's jitter in
    #: one call and compose the reads through :meth:`compose_indexed_wave`.
    #: The engine batches only when every selected region's strategy opts
    #: in, the topology is fully jittered, no region collaborates or runs
    #: resilient reads, and no fault is active.
    supports_indexed_batch: bool = False

    #: False on strategies without a cache: their plans carry no chunk ids.
    _probes_cache: bool = True

    def __init__(self, store: ErasureCodedStore, client_region: str,
                 config: ClientConfig | None = None) -> None:
        self._store = store
        self._region = store.topology.validate_region(client_region)
        self._config = config or ClientConfig()
        self._latency = store.topology.latency
        self._expected_latencies = store.topology.expected_read_latencies(client_region)
        # Hoisted latency constants (hot-path attribute chains).
        self._overhead_ms = self._config.overhead_ms
        self._include_decode = self._config.include_decode_cost
        # Per-key read plans, interned lazily by key (stamped from one
        # template per placement shape); the index table (see
        # prepare_indexed_reads) points at the same plan objects.
        self._plans: dict[str, _ReadPlan] = {}
        self._plan_templates: dict[object, _ReadPlan] = {}
        self._indexed_keys: list[str] | None = None
        self._indexed_plans: list[_ReadPlan | None] = []
        # §VI neighbour catalog (see set_neighbor_catalog); None = no
        # collaboration, the default for every non-collaborative deployment.
        # _neighbor_pinned is the *effective* union the read path tests;
        # _neighbor_catalogs keeps the per-neighbour provenance (None when the
        # catalog was installed as a flat, provenance-free set).
        self._neighbor_pinned: frozenset[ChunkId] | None = None
        self._neighbor_catalogs: dict[str, frozenset[ChunkId]] | None = None
        self._neighbor_read_ms = 0.0
        self._neighbor_jitter = 0.0
        # Live fault state (see repro.sim.faults and set_fault_state); the
        # read bodies consult the derived fields below on every read.
        self._fault_state = None
        self._faulted = False
        self._down_backends: frozenset[str] = frozenset()
        self._down_caches: frozenset[str] = frozenset()
        self._brownouts: dict[str, float] | None = None
        self._cache_down = False
        self._seen_fault = False
        # Resilience (repro.client.resilience): _resilience is non-None only
        # when reads compose with retries/hedges; emergency reconfiguration
        # is gated separately so it can be enabled on its own.
        resilience = self._config.resilience
        self._resilience = (resilience if resilience is not None
                            and resilience.active else None)
        self._emergency_reconfig = (resilience.emergency_reconfiguration
                                    if resilience is not None else False)
        self._backoff = (BackoffPolicy.from_config(resilience)
                         if self._resilience is not None else None)
        self._read_serial = 0
        self._hedge_trackers: dict[str, EwmaQuantileTracker] = {}
        # Optional decision sink (repro.serve): called once per read with
        # (result, cache_chunks, backend_chunks) so a serving tier can fetch
        # exactly the chunks the strategy decided on.
        self._decision_sink = None

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def client_region(self) -> str:
        """Region this client runs in."""
        return self._region

    @property
    def store(self) -> ErasureCodedStore:
        """The backing object store."""
        return self._store

    def cache_snapshot(self) -> CacheSnapshot | None:
        """Snapshot of the strategy's cache contents (None for Backend)."""
        return None

    @property
    def resilience_active(self) -> bool:
        """True when reads compose with timeouts, retries and hedges.

        The engine's batched wave dispatch checks this: resilient
        reads no longer consume a fixed number of jitter draws, so waves must
        dispatch per event.
        """
        return self._resilience is not None

    # ------------------------------------------------------------------ #
    # Periodic maintenance (timer events of the discrete-event engine)
    # ------------------------------------------------------------------ #
    @property
    def reconfiguration_period_s(self) -> float | None:
        """Period of the strategy's timer-driven maintenance (None = none)."""
        return None

    def set_external_reconfiguration(self, external: bool) -> None:
        """Hand periodic reconfiguration over to an external driver.

        When external, the strategy must not check its reconfiguration period
        on the read path; the engine calls :meth:`tick` at exact period
        boundaries instead.  A no-op for strategies without periodic work.
        """

    def tick(self, now: float) -> None:
        """Run one round of periodic maintenance at simulated time ``now``."""

    # ------------------------------------------------------------------ #
    # Serving-tier decision sink
    # ------------------------------------------------------------------ #
    def set_decision_sink(self, sink) -> None:
        """Install a callback observing every read decision.

        ``sink(result, cache_chunks, backend_chunks, neighbor_chunks)`` fires
        once per :meth:`read` or :meth:`read_indexed` call with the composed
        :class:`ReadResult` and the exact :class:`PlacedChunk` lists the
        strategy planned to fetch from the local cache, the backend buckets
        and a collaborating neighbour's cache (all empty on an unavailable
        read; the last empty unless §VI collaboration served a chunk).  The
        serving tier (:mod:`repro.serve`) uses this to serve real bytes for
        precisely the chunks the decision named and to build its per-request
        ledger.  The engine's batched wave composer
        (:meth:`compose_indexed_wave`) is not a read entry point and fires
        nothing.  Pass ``None`` to uninstall.
        """
        self._decision_sink = sink

    # ------------------------------------------------------------------ #
    # §VI collaboration: the neighbour catalog
    # ------------------------------------------------------------------ #
    def set_neighbor_catalog(self,
                             pinned: (frozenset[ChunkId]
                                      | Mapping[str, frozenset[ChunkId]] | None),
                             neighbor_read_ms: float,
                             neighbor_jitter: float = 0.0) -> None:
        """Install what the collaborating neighbour caches currently pin.

        After each §VI exchange round the engine hands every region the
        pinned chunks of the *other* regions.  A needed chunk that misses the
        local cache but appears in this catalog is then read from the
        neighbour's cache at ``neighbor_read_ms`` expected latency (the same
        estimate the option discounting uses) instead of from its backend
        bucket — the read-path half of the collaboration §VI sketches: give
        up caching what a nearby cache already holds, and fetch it from there.

        The substitution is per chunk and cost-aware: a catalog chunk is
        read from the neighbour only when ``neighbor_read_ms`` (the
        ``Topology.neighbor_link`` expectation) *beats* that chunk's own
        backend link (``PlacedChunk.latency_ms``).  Chunks whose bucket is
        closer than the collaborating cache — local-region chunks above
        all — keep going to the backend; a catalog hit must never make a
        read slower in expectation.

        ``neighbor_jitter`` is the log-normal σ of the neighbour link
        (``Topology.neighbor_link``); when positive, each neighbour chunk
        draws one sample from the strategy's refillable normal block exactly
        like cache/backend chunks.  The default 0 preserves the flat, draw-free estimate
        for direct callers.  ``None`` pinned disables neighbour reads (the
        default).

        ``pinned`` may be a flat ``frozenset`` (legacy, provenance-free) or a
        mapping ``{neighbour region: pinned chunks}``.  With provenance the
        read path still tests one effective union, but the union is
        recomputed against the live fault state — a neighbour whose region is
        currently down (backend or cache) contributes nothing, so a remote
        ``RegionOutage``/``AZFailure`` darks exactly that neighbour's
        entries.
        """
        if neighbor_read_ms < 0:
            raise ValueError("neighbor_read_ms must be non-negative")
        if neighbor_jitter < 0:
            raise ValueError("neighbor_jitter must be non-negative")
        if isinstance(pinned, Mapping):
            self._neighbor_catalogs = {
                region: frozenset(chunks) for region, chunks in pinned.items()
            }
        else:
            self._neighbor_catalogs = None
            self._neighbor_pinned = pinned if pinned else None
        self._neighbor_read_ms = neighbor_read_ms
        self._neighbor_jitter = neighbor_jitter
        self._refresh_neighbor_pinned()

    def _refresh_neighbor_pinned(self) -> None:
        """Recompute the effective neighbour union against the fault state.

        Only runs on the cold paths (catalog install, fault transition); the
        read path keeps testing the single precomputed union.  A
        neighbour is dark while its region's backend *or* cache is down: an
        ``AZFailure`` names the cache explicitly, and a ``RegionOutage`` of a
        region is conservatively taken to cut the WAN path to its colocated
        cache server as well.
        """
        catalogs = self._neighbor_catalogs
        if catalogs is None:
            return
        down = self._down_backends | self._down_caches
        live = [chunks for region, chunks in catalogs.items()
                if chunks and region not in down]
        self._neighbor_pinned = frozenset().union(*live) if live else None

    # ------------------------------------------------------------------ #
    # Fault injection (repro.sim.faults)
    # ------------------------------------------------------------------ #
    def set_fault_state(self, state) -> None:
        """Install the fault state active from now on (None/clear = no faults).

        The engine calls this from the fault-schedule timer events; reads
        issued afterwards see the new availability mask immediately.  The
        per-key plans are *not* invalidated: they memoise pure functions of
        the immutable placement, and every read resolves its selection
        against this live state (:meth:`_ReadPlan.select`) instead of baking
        availability into a cached plan.
        """
        if state is None or state.is_clear:
            self._fault_state = state
            self._faulted = False
            self._down_backends = frozenset()
            self._down_caches = frozenset()
            self._brownouts = None
            self._cache_down = False
            self._refresh_neighbor_pinned()
            return
        self._fault_state = state
        self._faulted = True
        self._seen_fault = True
        self._down_backends = state.down_backends
        self._down_caches = state.down_caches
        self._brownouts = dict(state.brownouts) if state.brownouts else None
        self._cache_down = self._region in state.down_caches
        self._refresh_neighbor_pinned()

    def react_to_fault(self, now: float) -> None:
        """Hook the engine calls right after every fault-state install.

        The base implementation does nothing; :class:`AgarReadStrategy`
        overrides it to trigger an emergency knapsack re-solve against the
        survivor topology when
        :attr:`ResilienceConfig.emergency_reconfiguration` is on.  The hook
        must not consume latency-model draws — it runs inside the fault
        transition of every scheduler (and inside a single region's shard on
        sharded runs), so any stream consumption would break the bit-identity
        contract between execution paths.
        """

    @property
    def fault_state(self):
        """The currently installed fault state (None when never faulted)."""
        return self._fault_state

    # ------------------------------------------------------------------ #
    # Read path: two resolvers, one body per strategy
    # ------------------------------------------------------------------ #
    def read(self, key: str, now: float) -> ReadResult:
        """Perform one object read at simulated time ``now`` (seconds)."""
        return self._read_plan(self._plan_for(key), now)

    def read_indexed(self, key_index: int, now: float) -> ReadResult:
        """Perform one object read identified by its key index.

        The same read as ``read(keys[key_index], now)`` without hashing the
        key string.  Requires a prior :meth:`prepare_indexed_reads`.
        """
        if self._indexed_keys is None:
            raise RuntimeError("prepare_indexed_reads() must be called first")
        plan = self._indexed_plans[key_index] or self._indexed_plan(key_index)
        return self._read_plan(plan, now)

    @abstractmethod
    def _read_plan(self, plan: _ReadPlan, now: float) -> ReadResult:
        """The strategy's read: locate ``k`` chunks of ``plan.key``, compose."""

    def compose_indexed_wave(self, ranks: Sequence[int], times: Sequence[float],
                             draws: np.ndarray, clock,
                             kept: list[ReadResult] | None
                             ) -> tuple[list[float], list[int] | None]:
        """One engine wave's reads of this region, in event order.

        Strategies with :attr:`supports_indexed_batch` only.  ``draws`` is
        the wave's slice of the jitter stream — one row of ``data_chunks`` z
        values per read — which the engine takes through a single
        ``take_standard_normals_array`` call, so every read sees exactly the
        values its per-event :meth:`read_indexed` would have drawn.  Every
        other effect of the read happens as :meth:`read_indexed` would do it,
        at its own simulated time (written to ``clock``).  Returns the
        latencies and, per read, the chunks it took from the local cache
        (``None``: none at all); with ``kept`` a list, the
        :class:`ReadResult` of every read is appended to it.

        Only valid while no fault is active (the engine checks per wave;
        fault transitions land on block boundaries, so the flag is constant
        across a wave).
        """
        raise NotImplementedError

    def _plan_for(self, key: str) -> _ReadPlan:
        """The read plan of ``key``, built and interned on first use."""
        plan = self._plans.get(key)
        if plan is None:
            store = self._store
            metadata = store.metadata(key)
            shape = (metadata.size, metadata.chunk_size,
                     tuple(sorted(metadata.chunk_locations.items())))
            template = self._plan_templates.get(shape)
            if template is None:
                params = store.params
                template = self._plan_templates[shape] = _ReadPlan(
                    # Every placed chunk, furthest first: the failure-free
                    # order of needed_chunks with nothing discarded.
                    furthest_first=needed_chunks(
                        store.chunks_by_region(key),
                        self._expected_latencies,
                        data_chunks=params.data_chunks + params.parity_chunks,
                        parity_chunks=0,
                    ),
                    chunk_size=metadata.chunk_size,
                    latency=self._latency,
                    client_region=self._region,
                    data_chunks=params.data_chunks,
                    decode_ms=store.codec.decoding_cost_estimate(metadata.size),
                )
            self._plans[key] = plan = template.for_key(key, self._probes_cache)
        return plan

    def _needed(self, key: str) -> list[PlacedChunk]:
        """The ``k`` chunks a *failure-free* read fetches, furthest first."""
        return self._plan_for(key).needed

    def prepare_indexed_reads(self, keys: Sequence[str]) -> None:
        """Install the key space for index-based reads.

        ``keys[i]`` becomes the object key of key index ``i``; per-key read
        plans are interned lazily on first use and shared with :meth:`read`.
        Idempotent: re-preparing with an equal key list keeps the index
        table (the engine calls this at the start of every execute against a
        warm deployment).
        """
        keys = list(keys)
        if self._indexed_keys == keys:
            return
        self._indexed_keys = keys
        self._indexed_plans = [None] * len(keys)

    def _indexed_plan(self, key_index: int) -> _ReadPlan:
        """Intern the plan of one key index into the index table."""
        plan = self._plan_for(self._indexed_keys[key_index])
        self._indexed_plans[key_index] = plan
        return plan

    def _compose(self, plan: _ReadPlan, now: float, hit_positions: tuple[int, ...],
                 selection: _Selection, neighbor_positions: tuple[int, ...] = (),
                 extra_overhead_ms: float = 0.0, degraded: bool = False) -> ReadResult:
        """Sample per-chunk latencies and build the read result.

        Draws one jitter sample per chunk — cache chunks first, then backend
        chunks nearest-first, then neighbour chunks — as
        ``expected * exp(σ·z)``; chunks are fetched in parallel, so the read
        costs the slowest one plus overhead and decode.  When every involved
        link is jittered and no brownout is active (the usual case) the
        cache+backend draws are taken from the block in one batched call, and
        chunks sharing one (expected, σ) pair — the selection's precomputed
        draw groups — need a single ``exp`` at their largest z (``exp`` is
        monotonic) instead of one per chunk.  Otherwise chunks are sampled
        one by one: a zero-σ link draws nothing, and a backend chunk read
        from a browned-out region has its sampled latency multiplied by the
        brownout factor.  The chunks at ``neighbor_positions`` (needed order)
        come from a collaborating neighbour's cache (see
        :meth:`set_neighbor_catalog`).  When resilience is active
        :meth:`_compose_resilient` does the sampling.

        A ``failed`` selection is an unavailable read: fewer than ``k``
        chunks are reachable anywhere.  The client learns of the failure
        after its fixed overhead (no chunk transfer or decode is charged, no
        jitter drawn); the result carries no backend regions and is counted
        only as :attr:`LatencyStats.unavailable_reads`.
        """
        cache_hits = len(hit_positions)
        neighbor_count = len(neighbor_positions)
        sink = self._decision_sink
        if selection.failed:
            result = ReadResult(
                plan.key, self._overhead_ms + extra_overhead_ms, HitType.MISS,
                cache_hits, 0, (), now, neighbor_count, False, True)
            if sink is not None:
                sink(result, [], [], [])
            return result
        backend_count = selection.count
        if cache_hits and plan.cache_expected_ms is None:
            raise KeyError(f"no cache link profile for region {self._region!r}")
        retries = 0
        hedged = hedge_won = False
        if self._resilience is not None:
            slowest, retries, hedged, hedge_won = self._compose_resilient(
                plan, cache_hits, selection, neighbor_count)
        else:
            exp = math.exp
            slowest = 0.0
            brownouts = self._brownouts
            if plan.all_jitter_positive and brownouts is None:
                slowest = selection.slowest(
                    plan, cache_hits,
                    self._latency.take_standard_normals(cache_hits + backend_count))
            else:
                expected_by_position = plan.nearest_expected_ms
                jitter_by_position = plan.nearest_jitter
                regions = plan.nearest_regions
                draw = self._latency.next_standard_normal
                expected = plan.cache_expected_ms
                jitter = plan.cache_jitter
                for _ in range(cache_hits):
                    sample = expected * exp(jitter * draw()) if jitter > 0.0 else expected
                    if sample > slowest:
                        slowest = sample
                for position in selection.positions:
                    expected = expected_by_position[position]
                    jitter = jitter_by_position[position]
                    sample = expected * exp(jitter * draw()) if jitter > 0.0 else expected
                    if brownouts is not None:
                        multiplier = brownouts.get(regions[position])
                        if multiplier is not None:
                            sample *= multiplier
                    if sample > slowest:
                        slowest = sample

            if neighbor_count:
                neighbor_ms = self._neighbor_read_ms
                sigma = self._neighbor_jitter
                if sigma > 0.0:
                    # exp is monotonic, so only the largest z can be the
                    # slowest neighbour chunk.
                    sample = neighbor_ms * exp(sigma * max(
                        self._latency.take_standard_normals(neighbor_count)))
                    if sample > slowest:
                        slowest = sample
                elif neighbor_ms > slowest:
                    slowest = neighbor_ms

        total = self._overhead_ms + extra_overhead_ms + slowest
        if self._include_decode:
            total += plan.decode_ms

        if (backend_count or neighbor_count) and cache_hits:
            hit_type = HitType.PARTIAL
        elif cache_hits:
            hit_type = HitType.FULL
        else:
            hit_type = HitType.MISS

        # Positional, in ReadResult's field order: one is built per read.
        result = ReadResult(
            plan.key, total, hit_type, cache_hits, backend_count,
            selection.regions, now, neighbor_count, degraded, False,
            retries, hedged, hedge_won)
        if sink is not None:
            needed = plan.needed
            sink(result, [needed[position] for position in hit_positions],
                 selection.chunks,
                 [needed[position] for position in neighbor_positions])
        return result

    def _compose_resilient(self, plan: _ReadPlan, cache_hits: int,
                           selection: _Selection, neighbor_count: int
                           ) -> tuple[float, int, bool, bool]:
        """Sampling with timeouts, retries and hedging, for :meth:`_compose`.

        Returns ``(slowest chunk ms, retries, hedged, hedge_won)``.  Per-chunk
        totals are inherent to timeouts, so the grouped arithmetic of the
        plain composition does not apply.  The base per-chunk samples are
        drawn in exactly the same shared-stream order (cache chunks, then
        backend chunks in selection order, then neighbour chunks); resilience
        only *adds* draws, each at a deterministic point:

        * **Retries** (remote chunks only — backend and neighbour fetches;
          the in-AZ cache is never retried): while a chunk's sample exceeds
          ``timeout_factor ×`` its link's expected latency (brownout
          multiplier included) and the read's budget remains, the client
          abandons the fetch at the timeout, waits the seeded backoff, and
          redraws one sample from the shared stream.  The chunk's latency is
          the accumulated timeout+backoff charges plus the final sample.
        * **Hedge**: if the slowest chunk of the read is a backend fetch and
          exceeds its link's quantile-tracked deadline, one extra chunk is
          speculatively fetched (launched at the deadline) from the nearest
          unused surviving placement (the selection's hedge candidate), and
          the read completes at whichever of the two finishes first.
          Deadline trackers observe each backend chunk's final sample *after*
          the decision, one run of samples per region, so a read never races
          its own observation.

        How many draws a read takes is only known once it is composed, so
        they are read through a cursor over the peeked jitter block and
        consumed in one advance at the end.  Only two totals can decide the
        read: the backend straggler (the one chunk a hedge may replace) and
        the slowest of everything else.

        Serial numbers, tracker state and retry budgets are all per-strategy,
        and per-strategy event order is identical across the three execution
        paths — which is what keeps resilient runs bit-identical.
        """
        resilience = self._resilience
        backoff = self._backoff
        exp = math.exp
        brownouts = self._brownouts
        serial = self._read_serial
        self._read_serial = serial + 1
        budget = resilience.retry_budget
        timeout_factor = resilience.timeout_factor
        retries = 0
        latency = self._latency
        # Every chunk draws once, every retry once more, the hedge once.
        block, start = latency.peek_standard_normals(
            cache_hits + selection.count + neighbor_count + budget + 1)
        cursor = start

        # The slowest chunk that is not the backend straggler.  The cache is
        # never retried and exp is monotonic: its slowest hit is the one with
        # the largest z.
        others = 0.0
        if cache_hits:
            jitter = plan.cache_jitter
            if jitter > 0.0:
                cursor += cache_hits
                others = plan.cache_expected_ms * exp(jitter * max(block[start:cursor]))
            else:
                others = plan.cache_expected_ms

        slowest_backend = 0.0
        straggler_region: str | None = None
        samples: list[float] = []
        for base, jitter, region in selection.fetches:
            # Multiplying by the neutral 1.0 is exact, so un-browned chunks
            # keep their plain sample and timeout bit-for-bit.
            multiplier = brownouts.get(region, 1.0) if brownouts is not None else 1.0
            timeout = timeout_factor * (base * multiplier)
            charged = 0.0
            while True:
                if jitter > 0.0:
                    sample = base * exp(jitter * block[cursor]) * multiplier
                    cursor += 1
                else:
                    sample = base * multiplier
                if budget <= 0 or sample <= timeout:
                    break
                budget -= 1
                retries += 1
                charged += timeout + backoff.delay_ms(serial, retries)
            samples.append(sample)
            total_chunk = charged + sample
            if total_chunk > slowest_backend:
                total_chunk, slowest_backend = slowest_backend, total_chunk
                straggler_region = region
            if total_chunk > others:
                others = total_chunk

        if neighbor_count:
            neighbor_ms = self._neighbor_read_ms
            sigma = self._neighbor_jitter
            if sigma > 0.0:
                timeout = timeout_factor * neighbor_ms
                for _ in range(neighbor_count):
                    charged = 0.0
                    while True:
                        sample = neighbor_ms * exp(sigma * block[cursor])
                        cursor += 1
                        if budget <= 0 or sample <= timeout:
                            break
                        budget -= 1
                        retries += 1
                        charged += timeout + backoff.delay_ms(serial, retries)
                    total_chunk = charged + sample
                    if total_chunk > others:
                        others = total_chunk
            elif neighbor_ms > others:
                # A flat neighbour link samples exactly its expectation, which
                # can never exceed timeout_factor × itself — no retry possible.
                others = neighbor_ms

        slowest = slowest_backend if slowest_backend >= others else others

        hedged = False
        hedge_won = False
        if resilience.hedge:
            trackers = self._hedge_trackers
            if slowest_backend >= others and slowest_backend > 0.0:
                tracker = trackers.get(straggler_region)
                candidate = selection.hedge_position
                if (candidate >= 0 and tracker is not None and tracker.ready
                        and slowest_backend > tracker.estimate):
                    hedged = True
                    hedge_sample = plan.nearest_expected_ms[candidate]
                    jitter = plan.nearest_jitter[candidate]
                    if jitter > 0.0:
                        hedge_sample *= exp(jitter * block[cursor])
                        cursor += 1
                    if brownouts is not None:
                        hedge_sample *= brownouts.get(plan.nearest_regions[candidate], 1.0)
                    hedge_total = tracker.estimate + hedge_sample
                    if hedge_total < slowest_backend:
                        hedge_won = True
                        slowest = hedge_total if hedge_total >= others else others
            for region, offsets in selection.region_runs:
                tracker = trackers.get(region)
                if tracker is None:
                    trackers[region] = tracker = EwmaQuantileTracker.from_config(resilience)
                tracker.observe_at(samples, offsets)

        latency.advance_standard_normals(cursor - start)
        return slowest, retries, hedged, hedge_won


class BackendReadStrategy(ReadStrategy):
    """Read every chunk directly from the backend buckets (no cache)."""

    name = "backend"
    supports_indexed_batch = True
    _probes_cache = False

    def _read_plan(self, plan: _ReadPlan, now: float) -> ReadResult:
        selection = plan.select((), (), self._down_backends)
        return self._compose(plan, now, (), selection, degraded=selection.replanned)

    def compose_indexed_wave(self, ranks, times, draws, clock, kept):
        """:meth:`ReadStrategy.compose_indexed_wave`: :meth:`_compose` per read.

        A backend read touches no state and is a plain miss: its latency is
        the same :meth:`_Selection.slowest` over the wave's row of draws.
        """
        plans = self._indexed_plans
        overhead = self._overhead_ms
        include_decode = self._include_decode
        latencies: list[float] = []
        for rank, samples in zip(ranks, draws.tolist()):
            plan = plans[rank] or self._indexed_plan(rank)
            total = overhead + plan.select(()).slowest(plan, 0, samples)
            if include_decode:
                total += plan.decode_ms
            latencies.append(total)
        if kept is not None:
            for rank, time_s, latency_ms in zip(ranks, times, latencies):
                plan = plans[rank]
                selection = plan.select(())
                kept.append(ReadResult(plan.key, latency_ms, HitType.MISS, 0,
                                       selection.count, selection.regions, time_s))
        return latencies, None



class FixedChunkCachingStrategy(ReadStrategy):
    """Online fixed-chunk baselines: cache ``c`` chunks per object, evict online.

    This is the classical, continuously updated form of the LRU-c / LFU-c
    baselines: every read inserts the object's ``c`` most distant chunks and
    the eviction policy (memcached-style LRU, or LFU over cumulative request
    counts) picks victims immediately when the cache overflows.

    The paper's LRU baseline is exactly this (it relies on memcached's LRU,
    §V-A).  Its LFU baseline, however, shares Agar's 30-second reconfiguration
    period (§V-A); that periodic variant is :class:`PeriodicLFUStrategy`.  The
    online LFU here (strategy name ``lfu-online-<c>``) is kept as a stronger
    ablation baseline.

    Args:
        store: the object store.
        client_region: client/cache region.
        cache_capacity_bytes: capacity of the local cache.
        chunks_per_object: ``c`` — how many chunks to keep per object
            (the paper sweeps 1, 3, 5, 7, 9).
        policy: ``"lru"`` or ``"lfu"``.
        clock: optional simulated-time callable for cache recency.
        config: client latency constants.
    """

    def __init__(self, store: ErasureCodedStore, client_region: str, cache_capacity_bytes: int,
                 chunks_per_object: int, policy: str = "lru",
                 clock: Callable[[], float] | None = None,
                 config: ClientConfig | None = None) -> None:
        super().__init__(store, client_region, config)
        data_chunks = store.params.data_chunks
        if not 1 <= chunks_per_object <= data_chunks:
            raise ValueError(f"chunks_per_object must be in 1..{data_chunks}")
        if policy == "lru":
            eviction = LRUEvictionPolicy()
        elif policy == "lfu":
            eviction = LFUEvictionPolicy()
        else:
            raise ValueError("policy must be 'lru' or 'lfu'")
        self._chunks_per_object = chunks_per_object
        self._policy_name = policy
        self.name = f"{policy}-{chunks_per_object}"
        self._cache = ChunkCache(
            capacity_bytes=cache_capacity_bytes,
            policy=eviction,
            clock=clock,
            region=client_region,
        )

    @property
    def cache(self) -> ChunkCache:
        """The strategy's local chunk cache."""
        return self._cache

    @property
    def chunks_per_object(self) -> int:
        """The fixed number of chunks cached per object."""
        return self._chunks_per_object

    def cache_snapshot(self) -> CacheSnapshot:
        return self._cache.snapshot()

    def _read_plan(self, plan: _ReadPlan, now: float) -> ReadResult:
        cache = self._cache
        cache.record_request(plan.key)
        target_count = self._chunks_per_object
        # During an AZ failure of this region the cache server is
        # unreachable: no lookups, no fills — but request bookkeeping (the
        # client-side proxy) continues, so popularity state stays warm.
        cache_down = self._cache_down

        # The c furthest chunks are the first c needed positions, so a probe's
        # hit offsets are the hit positions.
        hit_positions = (() if cache_down else
                         tuple(cache.probe(plan.needed_chunk_ids[:target_count])))

        selection = plan.select(hit_positions, (), self._down_backends)
        result = self._compose(plan, now, hit_positions, selection,
                               degraded=cache_down or selection.replanned)

        # Populate the cache off the critical path (not charged to latency);
        # an unavailable read fetched nothing to populate it with.
        if not (cache_down or result.failed):
            put = cache.put
            chunks = plan.needed_chunks
            for position in range(target_count):
                put(chunks[position])
        return result


class PeriodicLFUStrategy(ReadStrategy):
    """The paper's LFU-c baseline: fixed chunks per object, periodic LFU contents.

    The paper's LFU client runs a proxy that tracks per-object request
    frequency and — like Agar — uses a 30-second cache reconfiguration period
    (§V-A).  Every period the cache contents are recomputed: the most popular
    objects (by the same EWMA statistics Agar's Request Monitor keeps) get
    their ``c`` most distant chunks pinned, filling the cache; clients then
    populate missing pinned chunks as they read.

    Strategy name: ``lfu-<c>`` (this is the Fig. 6/7/8 baseline).

    Args:
        store: the object store.
        client_region: client/cache region.
        cache_capacity_bytes: capacity of the local cache.
        chunks_per_object: ``c`` — chunks kept per cached object.
        reconfiguration_period_s: statistics/reconfiguration period (paper:
            30 s); finite and positive.
        alpha: EWMA weight of the current period (same convention as Agar).
        clock: optional simulated-time callable.
        config: client latency constants.
    """

    def __init__(self, store: ErasureCodedStore, client_region: str, cache_capacity_bytes: int,
                 chunks_per_object: int, reconfiguration_period_s: float = 30.0,
                 alpha: float | None = None, clock: Callable[[], float] | None = None,
                 config: ClientConfig | None = None) -> None:
        super().__init__(store, client_region, config)
        from repro.cache.policies import PinnedConfigurationPolicy
        from repro.core.agar_node import DEFAULT_CURRENT_PERIOD_WEIGHT
        from repro.core.popularity import PopularityTracker

        data_chunks = store.params.data_chunks
        if not 1 <= chunks_per_object <= data_chunks:
            raise ValueError(f"chunks_per_object must be in 1..{data_chunks}")
        if not (math.isfinite(reconfiguration_period_s)
                and reconfiguration_period_s > 0):
            raise ValueError("reconfiguration_period_s must be finite and positive")
        self._chunks_per_object = chunks_per_object
        self.name = f"lfu-{chunks_per_object}"
        self._period_s = reconfiguration_period_s
        self._tracker = PopularityTracker(
            alpha=DEFAULT_CURRENT_PERIOD_WEIGHT if alpha is None else alpha
        )
        self._pinned_policy = PinnedConfigurationPolicy()
        self._cache = ChunkCache(
            capacity_bytes=cache_capacity_bytes,
            policy=self._pinned_policy,
            clock=clock,
            region=client_region,
        )
        self._last_reconfiguration: float | None = None
        self._external_reconfiguration = False

    @property
    def cache(self) -> ChunkCache:
        """The strategy's local chunk cache."""
        return self._cache

    @property
    def chunks_per_object(self) -> int:
        """The fixed number of chunks cached per object."""
        return self._chunks_per_object

    def cache_snapshot(self) -> CacheSnapshot:
        return self._cache.snapshot()

    @property
    def reconfiguration_period_s(self) -> float | None:
        return self._period_s

    def set_external_reconfiguration(self, external: bool) -> None:
        self._external_reconfiguration = bool(external)

    def tick(self, now: float) -> None:
        keys = self._store.keys()
        if keys:
            self._reconfigure(keys[0])
        self._last_reconfiguration = now

    def _capacity_objects(self, key: str) -> int:
        chunk_size = self._store.metadata(key).chunk_size
        capacity_chunks = self._cache.capacity_bytes // chunk_size if chunk_size else 0
        return capacity_chunks // self._chunks_per_object

    def _reconfigure(self, key: str) -> None:
        popularity = self._tracker.end_period()
        top_keys = sorted(popularity, key=lambda k: (-popularity[k], k))
        top_keys = [k for k in top_keys if popularity[k] > 0][: self._capacity_objects(key)]
        pinned: set[ChunkId] = set()
        for top_key in top_keys:
            pinned.update(
                self._plan_for(top_key).needed_chunk_ids[: self._chunks_per_object])
        self._pinned_policy.set_configuration(pinned)

    def _maybe_reconfigure(self, key: str, now: float) -> None:
        if self._last_reconfiguration is None:
            self._last_reconfiguration = now
            return
        if now - self._last_reconfiguration >= self._period_s:
            self._reconfigure(key)
            self._last_reconfiguration = now

    def _read_plan(self, plan: _ReadPlan, now: float) -> ReadResult:
        key = plan.key
        if not self._external_reconfiguration:
            self._maybe_reconfigure(key, now)
        self._tracker.record_access(key)
        # Reconfiguration and frequency tracking are control-plane work the
        # proxy keeps doing through an AZ failure; only the cache data path
        # (lookups and fills) is unreachable.
        cache_down = self._cache_down

        hit_positions: tuple[int, ...] = ()
        missing_positions: list[int] = []
        if not cache_down:
            target_count = self._chunks_per_object
            hit_positions = tuple(
                self._cache.probe(plan.needed_chunk_ids[:target_count]))
            if len(hit_positions) < target_count:
                missing_positions = [position for position in range(target_count)
                                     if position not in hit_positions]

        selection = plan.select(hit_positions, (), self._down_backends)
        result = self._compose(plan, now, hit_positions, selection,
                               degraded=cache_down or selection.replanned)

        if missing_positions and not result.failed:
            put = self._cache.put
            chunks = plan.needed_chunks
            for position in missing_positions:
                put(chunks[position])
        return result


class AgarReadStrategy(ReadStrategy):
    """Reads driven by an Agar node's hints (paper §III, §V-A).

    The three steps of a read (§V-A) — ask the node which chunks of the key
    the cache should hold, read those from the cache, read the rest from the
    nearest buckets — with the first one resolved once per installed
    configuration: the hints of a key are a function of the configuration
    alone, so each read only tells the node it happened
    (``AgarNode.count_request``) and reuses the key's remembered hints while
    the node's current configuration is still the object they came from.

    Args:
        store: the object store.
        client_region: client/cache region.
        cache_capacity_bytes: capacity of the Agar-managed cache.
        node_config: Agar node tunables (reconfiguration period, alpha, ...).
        clock: optional simulated-time callable.
        config: client latency constants.
    """

    name = "agar"
    supports_indexed_batch = True

    def __init__(self, store: ErasureCodedStore, client_region: str, cache_capacity_bytes: int,
                 node_config: AgarNodeConfig | None = None,
                 clock: Callable[[], float] | None = None,
                 config: ClientConfig | None = None) -> None:
        super().__init__(store, client_region, config)
        self._node = AgarNode(
            local_region=client_region,
            store=store,
            cache_capacity_bytes=cache_capacity_bytes,
            config=node_config,
            clock=clock,
        )
        # The constant the node's hints carry as processing_overhead_ms.
        self._hint_overhead_ms = self._node.request_monitor.processing_overhead_ms
        # Whose current configuration a remembered hint is checked against.
        self._cache_manager = self._node.cache_manager

    @property
    def node(self) -> AgarNode:
        """The Agar node backing this strategy."""
        return self._node

    @property
    def cache(self) -> ChunkCache:
        """The Agar-managed cache."""
        return self._node.cache

    def cache_snapshot(self) -> CacheSnapshot:
        return self._node.cache.snapshot()

    @property
    def reconfiguration_period_s(self) -> float | None:
        return self._node.config.reconfiguration_period_s

    def set_external_reconfiguration(self, external: bool) -> None:
        self._node.auto_reconfigure = not external

    def tick(self, now: float) -> None:
        self._node.reconfigure(now)

    def react_to_fault(self, now: float) -> None:
        """Fault-reactive control plane (ResilienceConfig.emergency_reconfiguration).

        Every real transition (onset, change, recovery) is stamped on the
        node so reconfiguration lag is measured whether or not the emergency
        path is enabled; with it enabled, the knapsack re-solves immediately
        against the survivor topology (down regions pushed to the Region
        Manager's estimate view — no re-probing, so no stream draws).
        """
        if not self._faulted and not self._seen_fault:
            return  # initial install of an already-clear schedule
        self._node.note_fault_transition(now)
        if self._emergency_reconfig:
            self._node.emergency_reconfigure(now, self._down_backends)

    def _locate(self, plan: _ReadPlan, now: float) -> tuple[tuple[int, ...], list[int]]:
        """Count the read, resolve its hints and probe the cache for them.

        Returns ``(hit positions, hinted positions that missed)``.  The Agar
        node (popularity monitor, knapsack) is control-plane state that
        survives an AZ failure; only the cache data path goes dark.
        """
        node = self._node
        node.count_request(plan.key, now)
        # After the count: a piggy-backed period check may just have
        # installed a configuration.
        configuration = self._cache_manager.current_configuration
        hint = plan.hint
        if hint is None or hint[0] is not configuration:
            hint = plan.hinted_under(configuration)
        hinted_positions = hint[1]
        if not hinted_positions or self._cache_down:
            return (), []
        hit_offsets = node.cache.probe(hint[2])
        if len(hit_offsets) == len(hinted_positions):
            return hinted_positions, []
        hit_positions = tuple([hinted_positions[offset] for offset in hit_offsets])
        return hit_positions, [position for position in hinted_positions
                               if position not in hit_positions]

    def _write_back(self, plan: _ReadPlan, fetched: tuple[int, ...],
                    missing_positions: list[int]) -> None:
        """Cache the hinted chunks the read fetched from the backend.

        Done by a separate thread pool in the prototype (§V-A), so never
        charged; ``fetched`` are the selection's nearest positions (none on
        an unavailable read).  Needed position p (furthest first) is nearest
        position k-1-p.
        """
        last = plan.data_chunks - 1
        put = self._node.cache.put
        chunks = plan.needed_chunks
        for position in missing_positions:
            if last - position in fetched:
                put(chunks[position])

    def _read_plan(self, plan: _ReadPlan, now: float) -> ReadResult:
        hit_positions, missing_positions = self._locate(plan, now)

        # §VI: needed chunks that missed the local cache but are pinned by a
        # collaborating neighbour are read from that neighbour's cache —
        # per chunk, only when the neighbour link beats the chunk's own
        # backend link (see set_neighbor_catalog).
        neighbor_positions: tuple[int, ...] = ()
        catalog = self._neighbor_pinned
        if catalog is not None:
            neighbor_ms = self._neighbor_read_ms
            needed = plan.needed
            chunk_ids = plan.needed_chunk_ids
            neighbor_positions = tuple(
                position for position in range(len(chunk_ids))
                if position not in hit_positions
                and neighbor_ms < needed[position].latency_ms
                and chunk_ids[position] in catalog
            )

        selection = plan.select(hit_positions, neighbor_positions, self._down_backends)
        result = self._compose(
            plan, now, hit_positions, selection, neighbor_positions,
            extra_overhead_ms=self._hint_overhead_ms,
            degraded=self._cache_down or selection.replanned,
        )
        if missing_positions:
            self._write_back(plan, selection.positions, missing_positions)
        return result

    def compose_indexed_wave(self, ranks, times, draws, clock, kept):
        """:meth:`ReadStrategy.compose_indexed_wave`: :meth:`_read_plan` per read.

        The same :meth:`_locate`, selection and :meth:`_write_back` against
        the live node and cache, in event order; only the draws come from
        the wave's row and the result is a latency and a cache-chunk count.
        The engine batches Agar regions only without collaboration (no
        neighbour chunks) and on fully jittered topologies, so the grouped
        composition of :meth:`_compose` always applies.
        """
        plans = self._indexed_plans
        locate = self._locate
        base_ms = self._overhead_ms + self._hint_overhead_ms
        include_decode = self._include_decode
        latencies: list[float] = []
        cached: list[int] = []
        for rank, now, samples in zip(ranks, times, draws.tolist()):
            clock._now_s = now
            plan = plans[rank] or self._indexed_plan(rank)
            hit_positions, missing_positions = locate(plan, now)
            selection = plan.select(hit_positions)
            cache_hits = len(hit_positions)
            total = base_ms + selection.slowest(plan, cache_hits, samples)
            if include_decode:
                total += plan.decode_ms
            if missing_positions:
                self._write_back(plan, selection.positions, missing_positions)
            latencies.append(total)
            cached.append(cache_hits)
            if kept is not None:
                kept.append(ReadResult(
                    plan.key, total,
                    (HitType.MISS if not cache_hits else
                     HitType.PARTIAL if selection.count else HitType.FULL),
                    cache_hits, selection.count, selection.regions, now))
        return latencies, cached


def is_strategy_name(name: str) -> bool:
    """True if ``name`` is a strategy :func:`make_strategy` recognises.

    Used by CLIs to validate user-supplied names (e.g. ``--region``) before
    any deployment is built; chunk-count bounds (``c <= k``) remain a
    construction-time check because they depend on the coding parameters.
    """
    if name in ("backend", "agar"):
        return True
    for prefix in ("lru-online-", "lfu-online-", "lru-", "lfu-"):
        if name.startswith(prefix):
            suffix = name[len(prefix):]
            return suffix.isdigit() and int(suffix) > 0
    return False


def make_strategy(name: str, store: ErasureCodedStore, client_region: str,
                  cache_capacity_bytes: int, clock: Callable[[], float] | None = None,
                  client_config: ClientConfig | None = None,
                  node_config: AgarNodeConfig | None = None) -> ReadStrategy:
    """Factory used by experiments: build a strategy from a short name.

    Recognised names:

    * ``"backend"`` — no caching, read straight from the backend buckets.
    * ``"agar"`` — Agar-driven reads.
    * ``"lru-<c>"`` — online LRU keeping ``c`` chunks per object (memcached-style).
    * ``"lfu-<c>"`` — the paper's LFU baseline: ``c`` chunks per object with a
      30-second reconfiguration period.
    * ``"lru-online-<c>"`` / ``"lfu-online-<c>"`` — online (cumulative) variants
      used by the ablation benchmarks.
    """
    if name == "backend":
        return BackendReadStrategy(store, client_region, client_config)
    if name == "agar":
        return AgarReadStrategy(
            store, client_region, cache_capacity_bytes,
            node_config=node_config, clock=clock, config=client_config,
        )
    for prefix in ("lru-online", "lfu-online"):
        if name.startswith(prefix + "-"):
            chunks = int(name.rsplit("-", 1)[1])
            return FixedChunkCachingStrategy(
                store, client_region, cache_capacity_bytes, chunks_per_object=chunks,
                policy=prefix.split("-")[0], clock=clock, config=client_config,
            )
    if name.startswith("lru-"):
        chunks = int(name.split("-", 1)[1])
        return FixedChunkCachingStrategy(
            store, client_region, cache_capacity_bytes, chunks_per_object=chunks,
            policy="lru", clock=clock, config=client_config,
        )
    if name.startswith("lfu-"):
        chunks = int(name.split("-", 1)[1])
        period = node_config.reconfiguration_period_s if node_config else 30.0
        return PeriodicLFUStrategy(
            store, client_region, cache_capacity_bytes, chunks_per_object=chunks,
            reconfiguration_period_s=period, clock=clock, config=client_config,
        )
    raise ValueError(f"unknown strategy {name!r}")
