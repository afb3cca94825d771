"""Region definitions for the geo-distributed deployment.

The paper's deployment (Fig. 1) spans six AWS regions, each hosting an S3
bucket (persistent backend) and a memcached server (cache).  Regions here are
lightweight value objects; the latency between them lives in
:mod:`repro.geo.latency` and the full deployment in :mod:`repro.geo.topology`.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class Region:
    """One geographic deployment region.

    Attributes:
        name: canonical short name, e.g. ``"frankfurt"``.
        aws_name: the AWS region identifier the paper deployed in.
        continent: coarse geographic grouping, used by the collaboration
            extension to find nearby caches.
    """

    name: str
    aws_name: str
    continent: str

    def __str__(self) -> str:
        return self.name


# The six regions of the paper's deployment (Fig. 1).
FRANKFURT = Region("frankfurt", "eu-central-1", "europe")
DUBLIN = Region("dublin", "eu-west-1", "europe")
N_VIRGINIA = Region("n_virginia", "us-east-1", "north_america")
SAO_PAULO = Region("sao_paulo", "sa-east-1", "south_america")
TOKYO = Region("tokyo", "ap-northeast-1", "asia")
SYDNEY = Region("sydney", "ap-southeast-2", "oceania")

#: The regions of Fig. 1, in the paper's listing order.
PAPER_REGIONS: tuple[Region, ...] = (
    FRANKFURT,
    DUBLIN,
    N_VIRGINIA,
    SAO_PAULO,
    TOKYO,
    SYDNEY,
)

_REGIONS_BY_NAME = {region.name: region for region in PAPER_REGIONS}


def region_names(regions: tuple[Region, ...] | list[Region] = PAPER_REGIONS) -> list[str]:
    """Return the names of the given regions (defaults to the paper's six)."""
    return [region.name for region in regions]
