"""Extensions sketched in the paper's discussion section (§VI).

* :mod:`repro.extensions.collaboration` — content exchange between nearby caches.
* :mod:`repro.extensions.writes` — write-through writes with cache coherence.
"""

from repro.extensions.collaboration import (
    CollaborationCoordinator,
    NeighborAnnouncement,
    discount_options,
)
from repro.extensions.writes import (
    CoherenceStats,
    StaleWriteError,
    WriteCoordinator,
    WriteRecord,
)

__all__ = [
    "CoherenceStats",
    "CollaborationCoordinator",
    "NeighborAnnouncement",
    "StaleWriteError",
    "WriteCoordinator",
    "WriteRecord",
    "discount_options",
]
