"""Wide-area latency model for chunk reads between regions.

The paper's evaluation runs against real AWS inter-region links; offline we
model each (client region, backend region) pair as a :class:`LinkProfile` with
a fixed round-trip component, a bandwidth component proportional to the chunk
size, and multiplicative log-normal jitter.  The model is deterministic given a
seed, which keeps every experiment reproducible.

Two families of reads exist:

* **backend reads** — chunk fetches from a (possibly remote) region's bucket,
  sampled via :meth:`LatencyModel.sample_backend_read`;
* **cache reads** — fetches from the local in-memory cache, much faster,
  sampled via :meth:`LatencyModel.sample_cache_read`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: Size of the objects used throughout the paper's evaluation (1 MB).
DEFAULT_OBJECT_SIZE = 1024 * 1024

#: Chunk size for the paper's RS(9, 3) scheme applied to 1 MB objects.
DEFAULT_CHUNK_SIZE = -(-DEFAULT_OBJECT_SIZE // 9)


@dataclass(frozen=True, slots=True)
class LinkProfile:
    """Latency characteristics of one directed client→backend link.

    Attributes:
        rtt_ms: fixed round-trip / request-setup component in milliseconds.
        bandwidth_mbps: effective single-stream throughput in megabits per
            second; the transfer component of a read is
            ``size_bytes * 8 / (bandwidth_mbps * 1e3)`` milliseconds.
        jitter: standard deviation of the multiplicative log-normal noise
            applied to sampled reads (0 disables jitter).
    """

    rtt_ms: float
    bandwidth_mbps: float
    jitter: float = 0.08

    def __post_init__(self) -> None:
        if self.rtt_ms < 0:
            raise ValueError("rtt_ms must be non-negative")
        if self.bandwidth_mbps <= 0:
            raise ValueError("bandwidth_mbps must be positive")
        if self.jitter < 0:
            raise ValueError("jitter must be non-negative")

    def expected_read_ms(self, size_bytes: int) -> float:
        """Expected latency (no jitter) of reading ``size_bytes`` over this link."""
        transfer_ms = size_bytes * 8.0 / (self.bandwidth_mbps * 1_000.0)
        return self.rtt_ms + transfer_ms

    @classmethod
    def from_expected(cls, expected_ms: float, size_bytes: int = DEFAULT_CHUNK_SIZE,
                      rtt_fraction: float = 0.35, jitter: float = 0.08) -> "LinkProfile":
        """Build a profile whose expected read of ``size_bytes`` equals ``expected_ms``.

        ``rtt_fraction`` of the target is attributed to the fixed component and
        the rest to bandwidth, which keeps the model sensitive to chunk size.
        """
        if expected_ms <= 0:
            raise ValueError("expected_ms must be positive")
        rtt_ms = expected_ms * rtt_fraction
        transfer_ms = expected_ms - rtt_ms
        bandwidth_mbps = size_bytes * 8.0 / (transfer_ms * 1_000.0)
        return cls(rtt_ms=rtt_ms, bandwidth_mbps=bandwidth_mbps, jitter=jitter)


@dataclass(frozen=True, slots=True)
class NeighborLink:
    """Latency profile of reads from a collaborating neighbour's cache (§VI).

    Attributes:
        expected_ms: expected latency of one neighbour-cache chunk read.
        sigma: standard deviation of the multiplicative log-normal jitter
            applied to sampled neighbour reads (0 disables jitter).
    """

    expected_ms: float
    sigma: float = 0.0

    def __post_init__(self) -> None:
        if self.expected_ms < 0:
            raise ValueError("expected_ms must be non-negative")
        if self.sigma < 0:
            raise ValueError("sigma must be non-negative")


#: Default number of standard-normal jitter draws refilled per block.
DEFAULT_JITTER_BLOCK = 1024


class LatencyModel:
    """Samples chunk-read latencies between regions.

    Jitter draws come from a refillable block of standard-normal samples
    (``lognormal(0, σ) = exp(σ·z)``): the generator is asked for
    ``jitter_block`` values at a time instead of once per read, which keeps
    the per-sample cost off the simulation's hot path.  Block and scalar
    draws consume the same underlying bit stream, so the sampled latencies
    are bit-identical to per-read ``Generator.lognormal`` calls for the same
    seed.

    Args:
        links: mapping ``(client_region, backend_region) -> LinkProfile``.
        cache_links: mapping ``region -> LinkProfile`` describing reads from
            the region's local cache server.
        seed: seed for the jitter random number generator.
        jitter_block: how many standard-normal samples to draw per refill.
    """

    def __init__(
        self,
        links: dict[tuple[str, str], LinkProfile],
        cache_links: dict[str, LinkProfile],
        seed: int = 0,
        jitter_block: int = DEFAULT_JITTER_BLOCK,
    ) -> None:
        if jitter_block <= 0:
            raise ValueError("jitter_block must be positive")
        self._links = dict(links)
        self._cache_links = dict(cache_links)
        self._rng = np.random.default_rng(seed)
        self._seed = seed
        self._jitter_block = jitter_block
        # The refill block is kept as a plain Python list: every consumer needs
        # Python floats, and converting once per refill (ndarray.tolist) is far
        # cheaper than boxing one numpy scalar per draw.
        self._block: list[float] = []
        self._block_pos = 0

    @property
    def seed(self) -> int:
        """The seed the jitter generator was initialised with."""
        return self._seed

    def reseed(self, seed: int) -> None:
        """Reset the jitter generator (used to make runs independent)."""
        self._rng = np.random.default_rng(seed)
        self._seed = seed
        self._block = []
        self._block_pos = 0

    @property
    def stream(self) -> tuple:
        """The jitter stream's whole state: generator, seed, block and position.

        The engine runs each region on its own stream and swaps them through
        this pair; a state read here and assigned back later resumes exactly
        where it left off.
        """
        return self._rng, self._seed, self._block, self._block_pos

    @stream.setter
    def stream(self, state: tuple) -> None:
        self._rng, self._seed, self._block, self._block_pos = state

    @property
    def fully_jittered(self) -> bool:
        """True when every link (backend and cache) carries jitter > 0.

        The lane scheduler uses this to decide whether exact event-time ties
        between clients are possible systematically: with jitter on every
        link they are a measure-zero float coincidence, without it (e.g. the
        table1 topology) deterministic latencies make them common and the
        scheduler must resolve them by the reference's insertion order.
        """
        return (all(profile.jitter > 0 for profile in self._links.values())
                and all(profile.jitter > 0 for profile in self._cache_links.values()))

    def regions(self) -> list[str]:
        """All region names that appear as backend endpoints."""
        return sorted({backend for (_, backend) in self._links})

    def link(self, client_region: str, backend_region: str) -> LinkProfile:
        """Return the profile of the ``client → backend`` link.

        Raises:
            KeyError: if the pair is unknown.
        """
        try:
            return self._links[(client_region, backend_region)]
        except KeyError:
            raise KeyError(
                f"no link profile for {client_region!r} -> {backend_region!r}"
            ) from None

    def cache_link(self, region: str) -> LinkProfile:
        """Return the profile of reads from ``region``'s local cache."""
        try:
            return self._cache_links[region]
        except KeyError:
            raise KeyError(f"no cache link profile for region {region!r}") from None

    # ------------------------------------------------------------------ #
    # Expected (deterministic) latencies
    # ------------------------------------------------------------------ #
    def expected_backend_read(self, client_region: str, backend_region: str,
                              size_bytes: int = DEFAULT_CHUNK_SIZE) -> float:
        """Expected latency of one backend chunk read, without jitter."""
        return self.link(client_region, backend_region).expected_read_ms(size_bytes)

    def neighbor_link(self, client_region: str, neighbor_region: str,
                      size_bytes: int = DEFAULT_CHUNK_SIZE) -> NeighborLink:
        """Derived profile of reading from ``neighbor_region``'s cache (§VI).

        A neighbour-cache read crosses the inter-region WAN link (its fixed
        round-trip component) and is then served from the neighbour's cache
        server, so the expectation is ``rtt + neighbour cache read``; the
        jitter σ is the WAN link's, the dominant noise source of the path.
        """
        link = self.link(client_region, neighbor_region)
        cache = self.cache_link(neighbor_region)
        return NeighborLink(
            expected_ms=link.rtt_ms + cache.expected_read_ms(size_bytes),
            sigma=link.jitter,
        )

    # ------------------------------------------------------------------ #
    # Sampled latencies
    # ------------------------------------------------------------------ #
    def next_standard_normal(self) -> float:
        """Next sample from the refillable standard-normal jitter block.

        Public because the read strategies apply the jitter themselves
        (``expected * exp(σ·z)`` with per-key precomputed ``expected`` and
        ``σ``) instead of going through :meth:`sample_backend_read`; both
        consume the same underlying bit stream, one draw per jittered chunk.
        """
        block = self._block
        position = self._block_pos
        if position >= len(block):
            block = self._rng.standard_normal(self._jitter_block).tolist()
            self._block = block
            position = 0
        self._block_pos = position + 1
        return block[position]

    # Internal alias kept for the scalar sampling helpers below.
    _next_standard_normal = next_standard_normal

    def take_standard_normals(self, count: int) -> list[float]:
        """Take ``count`` sequential draws from the jitter block in one call.

        Consumes exactly the same bit stream as ``count`` scalar
        :meth:`next_standard_normal` calls (including refills at the same
        block boundaries); the read strategies use it to sample all of a
        read's chunks at once.
        """
        position = self._block_pos
        block = self._block
        available = len(block) - position
        if count <= available:
            self._block_pos = position + count
            return block[position:position + count]
        draws = block[position:]
        remaining = count - available
        while True:
            block = self._rng.standard_normal(self._jitter_block).tolist()
            if remaining <= len(block):
                draws.extend(block[:remaining])
                self._block = block
                self._block_pos = remaining
                return draws
            draws.extend(block)
            remaining -= len(block)

    def peek_standard_normals(self, count: int) -> tuple[list[float], int]:
        """Expose the next ``count`` draws without consuming any.

        Returns ``(block, position)``: ``block[position:position + count]``
        are the values the next ``count`` scalar draws would return.  A
        caller that cannot know in advance how many draws it will take (a
        resilient read redraws on a timeout) walks the block from
        ``position`` and reports what it used with
        :meth:`advance_standard_normals`.  When fewer than ``count`` draws
        are buffered the unread tail is kept and extended with whole
        ``jitter_block`` refills — the same value stream, whichever draw
        method runs next.
        """
        block = self._block
        position = self._block_pos
        if len(block) - position < count:
            block = block[position:]
            while len(block) < count:
                block.extend(self._rng.standard_normal(self._jitter_block).tolist())
            self._block = block
            self._block_pos = position = 0
        return block, position

    def advance_standard_normals(self, count: int) -> None:
        """Consume ``count`` draws a :meth:`peek_standard_normals` exposed."""
        self._block_pos += count

    def take_standard_normals_array(self, count: int) -> np.ndarray:
        """Take ``count`` sequential draws as a float64 array.

        Delivers the same value stream as :meth:`take_standard_normals`:
        the remainder of the current block first, then the bulk drawn
        straight off the generator.  ``standard_normal(a)`` followed by
        ``standard_normal(b)`` yields the same values as one
        ``standard_normal(a + b)`` call, so skipping the intermediate
        1024-draw blocks for the bulk leaves every future draw — scalar or
        batched — at the same stream position with the same value.  The
        engine's wave dispatcher uses this to sample an entire ready-set's
        jitter in one call.
        """
        position = self._block_pos
        block = self._block
        available = len(block) - position
        if count <= available:
            self._block_pos = position + count
            return np.asarray(block[position:position + count])
        out = np.empty(count)
        out[:available] = block[position:]
        out[available:] = self._rng.standard_normal(count - available)
        # The buffered block is spent; the next scalar draw refills.
        self._block = []
        self._block_pos = 0
        return out

    def _apply_jitter(self, expected_ms: float, jitter: float) -> float:
        if jitter <= 0:
            return expected_ms
        # math.exp (libm) rather than np.exp: bit-identical to the exp inside
        # Generator.lognormal, so batching does not perturb seeded streams.
        return expected_ms * math.exp(jitter * self._next_standard_normal())

    def sample_backend_read(self, client_region: str, backend_region: str,
                            size_bytes: int = DEFAULT_CHUNK_SIZE) -> float:
        """Sample the latency of one backend chunk read (with jitter)."""
        profile = self.link(client_region, backend_region)
        return self._apply_jitter(profile.expected_read_ms(size_bytes), profile.jitter)

    def sample_cache_read(self, region: str, size_bytes: int = DEFAULT_CHUNK_SIZE) -> float:
        """Sample the latency of one local cache chunk read (with jitter)."""
        profile = self.cache_link(region)
        return self._apply_jitter(profile.expected_read_ms(size_bytes), profile.jitter)

    def probe(self, client_region: str, backend_region: str, samples: int = 5,
              size_bytes: int = DEFAULT_CHUNK_SIZE) -> float:
        """Average of several sampled reads — the RegionManager's warm-up probe."""
        if samples <= 0:
            raise ValueError("samples must be positive")
        total = sum(
            self.sample_backend_read(client_region, backend_region, size_bytes)
            for _ in range(samples)
        )
        return total / samples
