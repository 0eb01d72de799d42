"""Property-based tests for the page-level micro engine."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import paper_machine
from repro.core import (
    InterWithAdjPolicy,
    InterWithoutAdjPolicy,
    IntraOnlyPolicy,
)
from repro.core.task import IOPattern
from repro.sim import MicroSimulator, spec_for_io_rate

MACHINE = paper_machine()


def specs_strategy():
    """Random small workloads, mixed patterns and partitionings."""
    seq_spec = st.tuples(
        st.floats(min_value=2.0, max_value=58.0),
        st.integers(min_value=5, max_value=250),
        st.just(IOPattern.SEQUENTIAL),
    )
    random_spec = st.tuples(
        st.floats(min_value=2.0, max_value=33.0),
        st.integers(min_value=5, max_value=250),
        st.just(IOPattern.RANDOM),
    )
    return st.lists(st.one_of(seq_spec, random_spec), min_size=1, max_size=5)


@settings(max_examples=25, deadline=None)
@given(specs=specs_strategy(), policy_index=st.integers(min_value=0, max_value=2))
def test_work_conservation_under_any_policy(specs, policy_index):
    """Every page is served exactly once, whatever the scheduler does."""
    policies = [
        IntraOnlyPolicy(integral=True),
        InterWithoutAdjPolicy(integral=True),
        InterWithAdjPolicy(integral=True),
    ]
    scan_specs = []
    for i, (rate, pages, pattern) in enumerate(specs):
        partitioning = "range" if pattern == IOPattern.RANDOM and i % 2 else "page"
        scan_specs.append(
            spec_for_io_rate(
                f"t{i}",
                MACHINE,
                io_rate=rate,
                n_pages=pages,
                pattern=pattern,
                partitioning=partitioning,
            )
        )
    result = MicroSimulator(MACHINE).run(scan_specs, policies[policy_index])
    assert result.io_served == sum(s.n_pages for s in scan_specs)
    assert len(result.records) == len(scan_specs)


@settings(max_examples=20, deadline=None)
@given(specs=specs_strategy())
def test_elapsed_bounded_by_resource_lower_bounds(specs):
    """No schedule can beat the CPU-work or io-capacity lower bounds."""
    scan_specs = [
        spec_for_io_rate(f"t{i}", MACHINE, io_rate=rate, n_pages=pages, pattern=pattern)
        for i, (rate, pages, pattern) in enumerate(specs)
    ]
    result = MicroSimulator(MACHINE).run(
        list(scan_specs), InterWithAdjPolicy(integral=True)
    )
    cpu_lower = sum(
        s.n_pages * s.cpu_per_page for s in scan_specs
    ) / MACHINE.processors
    # Micro flattens each disk's sequential rate to the almost-sequential
    # one, so it serves at most B ios/s.
    io_lower = sum(s.n_pages for s in scan_specs) / MACHINE.io_bandwidth
    assert result.elapsed >= max(cpu_lower, io_lower) - 1e-9


@settings(max_examples=15, deadline=None)
@given(
    rate=st.floats(min_value=5.0, max_value=55.0),
    pages=st.integers(min_value=50, max_value=400),
)
def test_determinism(rate, pages):
    """Same seed, same workload, same policy => identical elapsed."""
    spec = spec_for_io_rate("t", MACHINE, io_rate=rate, n_pages=pages)
    a = MicroSimulator(MACHINE, seed=3).run([spec], IntraOnlyPolicy(integral=True))
    b = MicroSimulator(MACHINE, seed=3).run([spec], IntraOnlyPolicy(integral=True))
    assert a.elapsed == b.elapsed


def test_random_seed_changes_random_pattern_timing():
    spec = spec_for_io_rate(
        "t", MACHINE, io_rate=20.0, n_pages=300, pattern=IOPattern.RANDOM
    )
    a = MicroSimulator(MACHINE, seed=1).run([spec], IntraOnlyPolicy(integral=True))
    b = MicroSimulator(MACHINE, seed=2).run([spec], IntraOnlyPolicy(integral=True))
    # Different shuffles, near-identical service totals.
    assert a.elapsed == pytest.approx(b.elapsed, rel=0.1)
