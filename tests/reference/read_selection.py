"""Which chunks one read fetches from the backend, written out plainly.

The rule of ``_ReadPlan.select`` (paper §V-A, with any ``k`` of the ``k + m``
chunks decoding): every position indexes the object's placed chunks nearest
first.  A read holds its cache hits and its neighbour chunks; it fetches the
hinted chunks its cache missed first, then the nearest chunks it does not
hold, until it has ``k``.  If any chunk of that plan sits in a down region
the read plans again over the reachable chunks only (``replanned``), and
fails when fewer than ``k`` are left.  A hedge races the nearest reachable
chunk the read neither holds nor fetches.

``tests/client/test_resilient_compose_oracle.py`` compares the shipped,
memoised selection with this one on every generated read.
"""

from __future__ import annotations


def select_reference(regions: list[str], data_chunks: int, hits, missed,
                     neighbors, down) -> tuple[tuple[int, ...], bool, bool, int]:
    """``(positions nearest first, replanned, failed, hedge position)``.

    ``regions[p]`` is the bucket region of the ``p``-th nearest placed chunk.
    """
    held = set(hits) | set(neighbors)
    need = data_chunks - len(held)

    def plan(reachable) -> list[int]:
        fetch = [position for position in missed
                 if position not in held and reachable(position)][:need]
        for position in range(len(regions)):
            if len(fetch) >= need:
                break
            if position not in held and position not in fetch and reachable(position):
                fetch.append(position)
        return fetch

    fetch = plan(lambda position: True)
    replanned = failed = False
    if any(regions[position] in down for position in fetch):
        fetch = plan(lambda position: regions[position] not in down)
        failed = len(fetch) < need
        replanned = not failed
        if failed:
            fetch = []
    spares = [position for position in range(len(regions))
              if position not in held and position not in fetch
              and regions[position] not in down]
    return tuple(sorted(fetch)), replanned, failed, spares[0] if spares else -1
