"""Fixtures for the erasure-coding tests."""

from __future__ import annotations

import pytest

from reference.codec import check_every_apply


@pytest.fixture
def kernel(request, monkeypatch):
    """How a codec test runs the GF(256) kernel, parametrised indirectly:
    ``numpy`` as shipped, ``naive`` with every ``PackedGFMatrix.apply``
    checked against the scalar definition."""
    if request.param == "naive":
        check_every_apply(monkeypatch)
    return request.param
