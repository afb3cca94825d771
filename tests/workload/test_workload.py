"""Tests for workload specifications and request generation."""

import pytest

from repro.workload.workload import (
    ARRIVAL_CLOSED,
    ARRIVAL_POISSON,
    PAPER_WORKLOAD,
    ArrivalSpec,
    WorkloadSpec,
    generate_requests,
    poisson_arrivals,
    request_frequency,
    uniform_workload,
    zipfian_workload,
)


class TestWorkloadSpec:
    def test_paper_defaults(self):
        assert PAPER_WORKLOAD.object_count == 300
        assert PAPER_WORKLOAD.object_size == 1024 * 1024
        assert PAPER_WORKLOAD.request_count == 1000
        assert PAPER_WORKLOAD.distribution == "zipfian"
        assert PAPER_WORKLOAD.skew == pytest.approx(1.1)

    def test_key_for_rank(self):
        assert PAPER_WORKLOAD.key_for_rank(0) == "object-0"
        with pytest.raises(ValueError):
            PAPER_WORKLOAD.key_for_rank(300)

    def test_builders(self):
        uniform = uniform_workload(request_count=10)
        assert uniform.distribution == "uniform"
        zipf = zipfian_workload(0.9)
        assert zipf.name == "zipf-0.9"
        assert zipf.skew == pytest.approx(0.9)

    def test_validation(self):
        with pytest.raises(ValueError):
            WorkloadSpec(object_count=0)
        with pytest.raises(ValueError):
            WorkloadSpec(distribution="pareto")
        with pytest.raises(ValueError):
            WorkloadSpec(request_count=-1)


class TestRequestGeneration:
    def test_deterministic_per_seed(self):
        spec = zipfian_workload(1.1, request_count=50, object_count=30)
        assert generate_requests(spec, seed=3) == generate_requests(spec, seed=3)
        assert generate_requests(spec, seed=3) != generate_requests(spec, seed=4)

    def test_sequence_numbers_and_operations(self):
        spec = uniform_workload(request_count=20, object_count=10)
        requests = generate_requests(spec)
        assert [request.sequence for request in requests] == list(range(20))
        assert all(request.operation == "read" for request in requests)
        assert all(request.key.startswith("object-") for request in requests)

    def test_request_frequency(self):
        spec = zipfian_workload(1.4, request_count=300, object_count=20, seed=2)
        counts = request_frequency(generate_requests(spec))
        assert sum(counts.values()) == 300
        # The most popular object should dominate under a 1.4 skew.
        assert counts.get("object-0", 0) >= max(counts.values()) * 0.9

    def test_zipf_keys_within_population(self):
        spec = zipfian_workload(1.1, request_count=200, object_count=25, seed=1)
        ranks = {int(request.key.split("-")[1]) for request in generate_requests(spec)}
        assert max(ranks) < 25


class TestArrivalSpec:
    def test_defaults_to_closed_loop(self):
        spec = ArrivalSpec()
        assert spec.process == ARRIVAL_CLOSED
        assert not spec.is_open_loop
        with pytest.raises(ValueError):
            spec.mean_interarrival_s  # noqa: B018

    def test_poisson(self):
        spec = poisson_arrivals(4.0)
        assert spec.process == ARRIVAL_POISSON
        assert spec.is_open_loop
        assert spec.mean_interarrival_s == pytest.approx(0.25)

    def test_validation(self):
        with pytest.raises(ValueError):
            ArrivalSpec(process="uniform")
        with pytest.raises(ValueError):
            ArrivalSpec(process=ARRIVAL_POISSON)
        with pytest.raises(ValueError):
            ArrivalSpec(process=ARRIVAL_POISSON, rate_rps=0.0)
        with pytest.raises(ValueError):
            ArrivalSpec(process=ARRIVAL_CLOSED, rate_rps=1.0)

    @pytest.mark.parametrize("rate", [float("nan"), float("inf")])
    def test_non_finite_rate_rejected(self, rate):
        """A NaN rate passed ``rate <= 0`` and never let a run end."""
        with pytest.raises(ValueError, match="finite"):
            poisson_arrivals(rate)


class TestGenerateRequestRanks:
    """The struct-of-arrays stream must mirror generate_requests exactly."""

    def test_ranks_match_request_keys(self):
        from repro.workload.workload import generate_request_ranks

        spec = zipfian_workload(1.1, request_count=200, object_count=25, seed=7)
        ranks = generate_request_ranks(spec, seed=3)
        requests = generate_requests(spec, seed=3)
        assert len(ranks) == len(requests) == 200
        assert [spec.key_for_rank(int(rank)) for rank in ranks] == \
            [request.key for request in requests]

    def test_uniform_ranks_match(self):
        from repro.workload.workload import generate_request_ranks, uniform_workload

        spec = uniform_workload(request_count=100, object_count=10, seed=4)
        ranks = generate_request_ranks(spec, seed=4)
        assert [spec.key_for_rank(int(rank)) for rank in ranks] == \
            [request.key for request in generate_requests(spec, seed=4)]
