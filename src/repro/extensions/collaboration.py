"""Cache collaboration between nearby regions (paper §VI).

The paper sketches a first step towards collaborating caches: "Agar nodes
could broadcast their contents and workload statistics periodically, in order
to let nearby caches update the values of each cache option accordingly".

This extension implements that step:

* :class:`NeighborAnnouncement` — what a node broadcasts (its region and the
  chunk ids its current configuration pins);
* :func:`discount_options` — re-values a node's caching options given what
  neighbours already cache: chunks available at a nearby cache can be fetched
  at the neighbour-cache latency instead of the backend latency, so caching
  them locally is worth less;
* :func:`reconfigure_node` — one node's share of a collaborative round: close
  the popularity period, generate options, discount them by the neighbours'
  announcements, solve the knapsack and install the result.  This is the unit
  the sharded engine executes inside per-region worker processes;
* :class:`CollaborationCoordinator` — wires several :class:`AgarNode` instances
  together, performing the periodic exchange and the discounted
  reconfiguration for each node.

The sharded execution path (``EventEngine.execute_sharded``) distributes the
coordinator's round over per-region workers: the parent collects every
worker's announcement, then walks the regions in order, sending each worker
its neighbours' *current* announcements and applying :func:`reconfigure_node`
worker-side — the exact staggered-round semantics of
:meth:`CollaborationCoordinator.reconfigure_all`, with pipes instead of
shared memory.  See ``docs/collaboration.md``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping, Sequence

from repro.core.agar_node import AgarNode
from repro.core.options import CachingOption
from repro.erasure.chunk import ChunkId


@dataclass(frozen=True)
class NeighborAnnouncement:
    """One node's periodic broadcast to its neighbours."""

    region: str
    pinned_chunks: frozenset[ChunkId]

    def has_chunk(self, key: str, index: int) -> bool:
        """True if the announcing cache pins this chunk."""
        return ChunkId(key=key, index=index) in self.pinned_chunks


def discount_options(options_by_key: Mapping[str, Sequence[CachingOption]],
                     announcements: Sequence[NeighborAnnouncement],
                     neighbor_read_ms: float,
                     local_backend_floor_ms: float = 0.0) -> dict[str, list[CachingOption]]:
    """Re-value caching options given what neighbouring caches already hold.

    For each option, the chunks that a neighbour already pins could be read
    from that neighbour at ``neighbor_read_ms`` instead of from the backend.
    The option's latency improvement is therefore reduced in proportion to the
    fraction of its chunks already available nearby (they were going to be
    cheap anyway), but never below ``local_backend_floor_ms`` of improvement.

    The discount *strength* is modulated by the neighbour's cost relative to
    the option's own latencies: an option improves the read from
    ``residual + improvement`` (the furthest source contacted with no local
    caching) down to ``residual``; a neighbour can only deliver the part of
    that improvement its read latency actually undercuts, so the per-chunk
    strength is::

        strength = clamp((residual + improvement - neighbor_read_ms)
                         / improvement, 0, 1)

    A free neighbour (``neighbor_read_ms`` at or below the residual) gives the
    full proportional discount; a neighbour as slow as the un-cached read path
    gives none — very expensive neighbours no longer suppress local caching of
    chunks they cannot serve competitively.  Strength is monotonically
    non-increasing in ``neighbor_read_ms`` (asserted in the unit tests).

    Args:
        options_by_key: the node's locally generated options.
        announcements: the latest broadcast of every neighbour.
        neighbor_read_ms: estimated latency of reading a chunk from a
            neighbouring region's cache.
        local_backend_floor_ms: lower bound on the per-option improvement kept
            after discounting (0 keeps pure proportional discounting).

    Returns:
        A new options map with adjusted ``latency_improvement_ms`` values.
    """
    if neighbor_read_ms < 0:
        raise ValueError("neighbor_read_ms must be non-negative")

    discounted: dict[str, list[CachingOption]] = {}
    for key, options in options_by_key.items():
        new_options = []
        for option in options:
            improvement = option.latency_improvement_ms
            if option.weight == 0 or improvement <= 0.0:
                new_options.append(option)
                continue
            covered = sum(
                1
                for index in option.chunk_indices
                if any(announcement.has_chunk(key, index) for announcement in announcements)
            )
            if covered == 0:
                new_options.append(option)
                continue
            coverage = covered / option.weight
            headroom = option.residual_latency_ms + improvement - neighbor_read_ms
            strength = min(max(headroom / improvement, 0.0), 1.0)
            adjusted = max(improvement * (1.0 - coverage * strength),
                           local_backend_floor_ms)
            new_options.append(replace(option, latency_improvement_ms=adjusted))
        discounted[key] = new_options
    return discounted


def announcement_of(node: AgarNode) -> NeighborAnnouncement:
    """The announcement ``node`` would broadcast right now."""
    return NeighborAnnouncement(
        region=node.local_region,
        pinned_chunks=node.current_configuration.chunk_ids(),
    )


def reconfigure_node(node: AgarNode, neighbours: Sequence[NeighborAnnouncement],
                     neighbor_read_ms: float) -> int:
    """Run one node's share of a collaborative reconfiguration round.

    Closes the node's popularity period and runs a regular
    :meth:`CacheManager.reconfigure` — the node's solver settings, a
    :class:`ReconfigurationRecord` in its history — with the generated options
    discounted by the neighbours' announcements.  Both the in-process coordinator
    and the sharded engine's per-region workers call exactly this function,
    which is what keeps the two execution paths bit-identical.

    Returns the number of configured (pinned) chunks.
    """
    popularity = node.request_monitor.end_period()
    record = node.cache_manager.reconfigure(
        popularity, lambda options: discount_options(options, neighbours, neighbor_read_ms))
    return record.configured_chunks


def overlap_between(announcements: Sequence[NeighborAnnouncement]
                    ) -> dict[tuple[str, str], int]:
    """Identical pinned chunks per region pair (lower = better use of space)."""
    report: dict[tuple[str, str], int] = {}
    for i, first in enumerate(announcements):
        for second in announcements[i + 1:]:
            shared = len(first.pinned_chunks & second.pinned_chunks)
            report[(first.region, second.region)] = shared
    return report


class CollaborationCoordinator:
    """Periodic content exchange between the Agar nodes of nearby regions.

    Args:
        nodes: the participating Agar nodes (typically regions of the same
            continent, e.g. Frankfurt and Dublin).
        neighbor_read_ms: latency of a cross-region cache read used when
            discounting option values — either a single flat estimate or a
            per-region mapping (each node discounts with its own entry, the
            expected latency of reading from its nearest partner's cache).
    """

    def __init__(self, nodes: Sequence[AgarNode],
                 neighbor_read_ms: float | Mapping[str, float] = 120.0) -> None:
        if not nodes:
            raise ValueError("at least one node is required")
        regions = [node.local_region for node in nodes]
        if len(set(regions)) != len(regions):
            raise ValueError("each node must serve a distinct region")
        self._nodes = list(nodes)
        self._neighbor_read_ms = neighbor_read_ms
        self._announcements: dict[str, NeighborAnnouncement] = {}

    def _discount_for(self, region: str) -> float:
        """The neighbour-read estimate ``region``'s node discounts with."""
        estimate = self._neighbor_read_ms
        if isinstance(estimate, Mapping):
            return estimate[region]
        return estimate

    @property
    def regions(self) -> list[str]:
        """Regions participating in the collaboration."""
        return [node.local_region for node in self._nodes]

    def announcements(self) -> list[NeighborAnnouncement]:
        """The latest announcement of every node."""
        return list(self._announcements.values())

    def broadcast(self) -> list[NeighborAnnouncement]:
        """Collect every node's current configuration into announcements."""
        self._announcements = {
            node.local_region: announcement_of(node) for node in self._nodes
        }
        return self.announcements()

    def install_announcements(self, announcements: Sequence[NeighborAnnouncement]) -> None:
        """Record externally collected announcements (replaces the current set).

        The sharded engine uses this to publish the final configurations its
        per-region workers reported, so a caller holding the (cold) parent
        deployment can still inspect the run's overlap via
        :meth:`latest_overlap`.
        """
        self._announcements = {
            announcement.region: announcement for announcement in announcements
        }

    def reconfigure_all(self, now: float) -> dict[str, int]:
        """Run one collaborative reconfiguration round.

        Nodes reconfigure one at a time (a staggered round, which is how the
        30-second periods of independent nodes interleave in practice): each
        node closes its popularity period, generates options, discounts them by
        the *current* configuration of every other node — including nodes that
        already reconfigured earlier in this round — solves the knapsack and
        installs the result.  Processing nodes sequentially avoids the
        oscillation that simultaneous mutual discounting would cause.

        Returns the number of configured chunks per region.
        """
        configured: dict[str, int] = {}
        for node in self._nodes:
            neighbours = [
                announcement_of(other)
                for other in self._nodes
                if other.local_region != node.local_region
            ]
            configured[node.local_region] = reconfigure_node(
                node, neighbours, self._discount_for(node.local_region)
            )
        self.broadcast()
        return configured

    def overlap_report(self) -> dict[tuple[str, str], int]:
        """Number of identical pinned chunks per region pair (lower = better use of space)."""
        return overlap_between(self.broadcast())

    def latest_overlap(self) -> dict[tuple[str, str], int]:
        """Overlap of the latest *recorded* announcements, without re-broadcasting.

        Unlike :meth:`overlap_report` this does not read the nodes' live
        configurations, so it reflects announcements installed via
        :meth:`install_announcements` — what a sharded run's workers last
        reported — rather than the parent's untouched node copies.
        """
        return overlap_between(self.announcements())
