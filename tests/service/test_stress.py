"""Tests for the offered-load stress harness."""

import pytest

from repro.config import paper_machine
from repro.errors import ConfigError
from repro.service import (
    ArrivalConfig,
    FifoAdmission,
    QueryService,
    estimate_capacity,
    format_sweep,
    sweep,
)


@pytest.fixture
def machine():
    return paper_machine()


@pytest.fixture
def config():
    return ArrivalConfig(n_submissions=16)


class TestEstimateCapacity:
    def test_positive_and_deterministic(self, machine, config):
        first = estimate_capacity(seed=0, config=config, machine=machine)
        second = estimate_capacity(seed=0, config=config, machine=machine)
        assert first > 0
        assert first == second

    def test_probe_never_sheds(self, machine, config):
        # Even a service with a tiny queue measures capacity over the
        # whole probe batch.
        service = QueryService(machine, queue_capacity=1)
        mu = estimate_capacity(
            seed=0, config=config, machine=machine, service=service
        )
        assert mu > 0


class TestSweep:
    def test_knee_table_is_reproducible(self, machine, config):
        kwargs = dict(
            rhos=(0.5, 0.9), seed=0, config=config, machine=machine
        )
        first = format_sweep(sweep(**kwargs))
        second = format_sweep(sweep(**kwargs))
        assert first == second

    def test_latency_grows_with_offered_load(self, machine, config):
        rows = sweep(
            rhos=(0.3, 1.5),
            seed=0,
            config=config,
            machine=machine,
            service=QueryService(machine, admission=FifoAdmission()),
        )
        (__, light_rate, light), (__, heavy_rate, heavy) = rows
        assert heavy.overall.p95 >= light.overall.p95
        assert heavy_rate > light_rate

    def test_sweep_row_counts_are_consistent(self, machine, config):
        service = QueryService(machine)
        mu = estimate_capacity(
            seed=1, config=config, machine=machine, service=service
        )
        ((rho, rate, metrics),) = sweep(
            rhos=(0.5,),
            seed=1,
            config=config,
            machine=machine,
            service=service,
        )
        assert (rho, rate) == (0.5, 0.5 * mu)
        overall = metrics.overall
        assert overall.offered == config.n_submissions
        assert overall.completed + overall.rejected == overall.offered
        assert metrics.throughput == overall.completed / metrics.elapsed

    def test_sweep_validation(self, machine, config):
        with pytest.raises(ConfigError):
            sweep(rhos=(), config=config, machine=machine)
        with pytest.raises(ConfigError):
            sweep(rhos=(0.5, -1.0), config=config, machine=machine)

    def test_format_sweep_has_header_and_rows(self, machine, config):
        rows = sweep(rhos=(0.5,), seed=0, config=config, machine=machine)
        table = format_sweep(rows, title="knee")
        assert "knee" in table
        assert "p95 (s)" in table
        assert "0.50" in table
