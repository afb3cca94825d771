"""One wire form for a fault window, written by chaos and read by the gateway.

``repro.sim.faults`` owns the JSON object a ``POST /admin/fault`` body
carries.  These properties hold it to both of its readers: every fault the
constructors accept reaches a gateway's dynamic schedule unchanged, and
``ChaosSchedule.compile`` renders the same bytes as the renderer chaos used
to spell out itself (kept below as the oracle).
"""

from __future__ import annotations

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geo import default_topology
from repro.serve.chaos import ChaosSchedule
from repro.serve.gateway import ServeCluster
from repro.serve.protocol import parse_request, render_request
from repro.sim.faults import (AZFailure, BackendBrownout, FaultSchedule,
                              RegionOutage, fault_from_dict, fault_to_dict)

from serve_helpers import tiny_config

REGIONS = default_topology().region_names

_times = st.one_of(st.integers(0, 10**6),
                   st.floats(0.0, 1e9, allow_nan=False, allow_infinity=False))
_lengths = st.one_of(st.integers(1, 10**6),
                     st.floats(1e-6, 1e9, allow_nan=False,
                               allow_infinity=False))
_multipliers = st.floats(0.0, 1e9, exclude_min=True, allow_nan=False)


@st.composite
def faults(draw):
    """Any fault window the constructors accept."""
    region = draw(st.sampled_from(REGIONS))
    start_s = draw(_times)
    end_s = start_s + draw(_lengths)
    if draw(st.booleans()):
        end_s = float(end_s)
    kind = draw(st.sampled_from((RegionOutage, BackendBrownout, AZFailure)))
    if kind is BackendBrownout:
        return kind(region, start_s, end_s, multiplier=draw(_multipliers))
    return kind(region, start_s, end_s)


@settings(max_examples=200, deadline=None)
@given(faults())
def test_a_fault_reaches_the_gateway_unchanged(fault):
    gateway = ServeCluster.from_config(tiny_config()).gateways["frankfurt"]
    body = json.dumps(fault_to_dict(fault)).encode()
    request, _ = parse_request(render_request(
        "POST", "/admin/fault?at=0", "t", body=body))
    head, receipt = gateway._dispatch(request)
    assert head.startswith(b"HTTP/1.1 200 "), (head, receipt)
    assert gateway._dynamic_faults == [fault]
    assert fault_from_dict(json.loads(body),
                           default_topology().has_region) == fault


def _chaos_body_before(fault) -> str:
    """The body ``ChaosSchedule.compile`` rendered before the wire form
    moved into ``repro.sim.faults``."""
    body = {"kind": {"RegionOutage": "outage", "BackendBrownout": "brownout",
                     "AZFailure": "az"}[type(fault).__name__],
            "region": fault.region,
            "start_s": fault.start_s,
            "end_s": fault.end_s}
    multiplier = getattr(fault, "multiplier", None)
    if multiplier is not None:
        body["multiplier"] = multiplier
    return json.dumps(body)


@settings(max_examples=200, deadline=None)
@given(faults())
def test_compile_renders_the_bodies_it_rendered_before(fault):
    [action] = ChaosSchedule(fault_schedule=FaultSchedule([fault])).compile()
    assert action.fault_body == _chaos_body_before(fault)


def test_the_wire_form_spells_every_field():
    assert fault_to_dict(BackendBrownout("tokyo", 5, 25.0, 2.5)) == {
        "kind": "brownout", "region": "tokyo", "start_s": 5, "end_s": 25.0,
        "multiplier": 2.5}
    assert json.dumps(fault_to_dict(AZFailure("dublin", 6.0, 20.0))) == (
        '{"kind": "az", "region": "dublin", "start_s": 6.0, "end_s": 20.0}')
