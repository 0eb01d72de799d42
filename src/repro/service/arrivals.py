"""Open-loop arrival processes over the Section-3 workload mixes.

The closed batch of ``optimizer/multiquery.py`` answers "how fast does
this fixed set finish"; the serving-mode questions — throughput
ceilings, tail latency, overload — need an *open* system where work
keeps arriving regardless of progress.  This module turns the existing
:mod:`repro.workloads` mixes into deterministic submission streams:

* :func:`poisson_stream` — memoryless arrivals at offered rate λ
  (exponential inter-arrival times), the standard open-loop model;
* :func:`onoff_stream` — a bursty on-off (interrupted Poisson)
  process: ON periods arriving at a boosted rate alternate with silent
  OFF gaps, stressing the admission queue far harder than the same
  average λ spread evenly.

Both are seeded and fully deterministic: the same ``(seed, λ, mix)``
always yields byte-identical streams.  Each submission bundles one or
more tasks drawn from the mix; multi-task bundles are chained with
order-dependencies (fragment pipelines) on the ids the arrival stamp
gives them.  To submit an optimized plan instead, build its tasks with
:meth:`FragmentGraph.to_tasks(name=, arrival_time=)
<repro.plans.fragments.FragmentGraph.to_tasks>`, which names, stamps
and wires them in one pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import MachineConfig, paper_machine
from ..core.balance import intra_time
from ..core.ids import id_scope, restore_counters, snapshot_counters
from ..errors import ConfigError
from ..workloads import (
    RateBands,
    WorkloadConfig,
    WorkloadKind,
    generate_tasks,
    poisson_times,
)
from .queue import ServiceSubmission

#: Section-3 mix a tenant without its own ``tenant_kinds`` entry draws from.
DEFAULT_KIND = WorkloadKind.RANDOM
#: Task-length cap (pages) of a tenant without a ``tenant_max_pages`` entry.
DEFAULT_MAX_PAGES = 2000


@dataclass(frozen=True)
class ArrivalConfig:
    """Knobs of the submission-stream generators.

    Each bundle is wired as a dependency chain (a fragment pipeline).

    Attributes:
        n_submissions: length of the stream.
        tenants: tenant labels, assigned in blocks of ``tenant_block``
            consecutive submissions.
        tenant_kinds: optional per-tenant workload kinds (positionally
            matching ``tenants``); lets one tenant submit IO-heavy
            scans while another submits CPU-heavy joins — the *mixed*
            multi-tenant traffic balance-aware admission exists for.
            ``None`` draws every tenant from :data:`DEFAULT_KIND`.
        tenant_bands: optional per-tenant io-rate bands (positionally
            matching ``tenants``), e.g. the Section-3 *extreme* bands
            for an ETL tenant; ``None`` uses the default bands.
        tenant_max_pages: optional per-tenant task-length caps
            (positionally matching ``tenants``).  A task's sequential
            time is roughly ``pages / io_rate``, so at equal page
            counts a CPU-bound tenant (low rate) submits far *longer*
            tasks than an IO-bound one; per-tenant caps let the two
            classes carry comparable work.  ``None`` uses
            :data:`DEFAULT_MAX_PAGES` for every tenant.
        tenant_block: consecutive submissions per tenant before
            rotating to the next.  1 interleaves tenants perfectly;
            larger values model the bursty reality where one tenant's
            jobs arrive back-to-back.
        max_bundle: largest number of fragments per submission
            (bundle sizes are drawn uniformly from ``[1, max_bundle]``).
        slo_stretch: response-time SLO as a multiple of the
            submission's ideal service time (the sum of its fragments'
            ``T_intra`` run alone); ``None`` disables SLO tagging.
    """

    n_submissions: int = 50
    tenants: tuple[str, ...] = ("t0", "t1")
    tenant_kinds: tuple[WorkloadKind, ...] | None = None
    tenant_bands: tuple[RateBands, ...] | None = None
    tenant_max_pages: tuple[int, ...] | None = None
    tenant_block: int = 1
    max_bundle: int = 2
    slo_stretch: float | None = 6.0

    def __post_init__(self) -> None:
        if self.n_submissions < 1:
            raise ConfigError("n_submissions must be >= 1")
        if not self.tenants:
            raise ConfigError("at least one tenant is required")
        if self.tenant_kinds is not None and len(self.tenant_kinds) != len(
            self.tenants
        ):
            raise ConfigError("tenant_kinds must match tenants in length")
        if self.tenant_bands is not None and len(self.tenant_bands) != len(
            self.tenants
        ):
            raise ConfigError("tenant_bands must match tenants in length")
        if self.tenant_max_pages is not None:
            if len(self.tenant_max_pages) != len(self.tenants):
                raise ConfigError(
                    "tenant_max_pages must match tenants in length"
                )
            if any(p < 1 for p in self.tenant_max_pages):
                raise ConfigError("tenant_max_pages entries must be >= 1")
        if self.tenant_block < 1:
            raise ConfigError("tenant_block must be >= 1")
        if self.max_bundle < 1:
            raise ConfigError("max_bundle must be >= 1")
        if self.slo_stretch is not None and self.slo_stretch <= 0:
            raise ConfigError("slo_stretch must be positive")

    def tenant_of(self, index: int) -> int:
        """Tenant index of the ``index``-th submission (block rotation)."""
        return (index // self.tenant_block) % len(self.tenants)

    def kind_of(self, tenant_index: int) -> WorkloadKind:
        """Workload kind a tenant draws its tasks from."""
        if self.tenant_kinds is None:
            return DEFAULT_KIND
        return self.tenant_kinds[tenant_index]

    def bands_of(self, tenant_index: int) -> RateBands:
        """Io-rate bands a tenant draws its tasks from."""
        if self.tenant_bands is None:
            return RateBands()
        return self.tenant_bands[tenant_index]

    def max_pages_of(self, tenant_index: int) -> int:
        """Task-length cap (pages) for a tenant's drawn tasks."""
        if self.tenant_max_pages is None:
            return DEFAULT_MAX_PAGES
        return self.tenant_max_pages[tenant_index]


def mixed_tenant_config(n_submissions: int = 80) -> ArrivalConfig:
    """The two-tenant ETL/OLAP mix the serving benchmarks use.

    An *etl* tenant submits extremely IO-bound scans and an *olap*
    tenant submits nearly-pure CPU-bound joins, in blocks of five
    back-to-back submissions per tenant.  Three properties make this
    the canonical stress mix for balance-aware admission:

    * same-class bursts — a FIFO gate admits whole blocks of one class,
      leaving the scheduler nothing to pair;
    * nearly-pure CPU tasks (io rate 2-6) — pairing them with an
      extreme-IO scan steals almost no disk bandwidth, so cross-class
      overlap is nearly free (an io rate near the ``B/N`` threshold
      would slow the IO class instead);
    * per-tenant page caps sized so both classes carry comparable
      sequential work (``seq_time ≈ pages / io_rate``), keeping
      cross-class pairing available through most of the timeline.
    """
    return ArrivalConfig(
        n_submissions=n_submissions,
        tenants=("etl", "olap"),
        tenant_kinds=(WorkloadKind.ALL_IO, WorkloadKind.ALL_CPU),
        tenant_bands=(
            RateBands(io_low=52.0, io_high=58.0),
            RateBands(cpu_low=2.0, cpu_high=6.0),
        ),
        tenant_max_pages=(2000, 180),
        tenant_block=5,
        max_bundle=1,
    )


def _build_submissions(
    arrival_times: list[float],
    *,
    config: ArrivalConfig,
    machine: MachineConfig,
    seed: int,
) -> list[ServiceSubmission]:
    """Bundle mix tasks and stamp one arrival time per submission."""
    with id_scope():
        return _build_submissions_scoped(
            arrival_times, config=config, machine=machine, seed=seed
        )


#: Memoized bundle sizes and tenant task pools, keyed by everything the
#: pool build depends on.  Bounded small: a λ sweep reuses one key many
#: times, it does not accumulate many keys.
_POOL_CACHE: dict[tuple, tuple[list[int], list, dict[str, int]]] = {}
_POOL_CACHE_LIMIT = 32


def clear_pool_cache() -> None:
    """Empty the task-pool memo (benchmarks time cold starts)."""
    _POOL_CACHE.clear()


def _sized_pools(
    *, config: ArrivalConfig, machine: MachineConfig, seed: int
) -> tuple[list[int], list]:
    """Bundle sizes and per-tenant task pools, memoized across rates.

    Neither the bundle sizes (first ``n_submissions`` draws of the
    stream RNG) nor the task pools depend on the offered rate λ, so a
    load sweep that rebuilds its stream at every ρ point was paying the
    full task-generation cost — by far the dominant setup term — once
    per point for identical pools.  The memo key carries every input of
    the build; the id-counter snapshot taken right after the cold build
    is replayed on each hit so the ids allocated by the caller's
    arrival stamping come out identical to a cold run's.  Pool tasks
    are immutable (stamping copies them), so sharing is safe.
    """
    key = (seed, config, machine)
    hit = _POOL_CACHE.get(key)
    if hit is not None:
        sizes, pools, counters = hit
        restore_counters(counters)
        return sizes, pools
    rng = np.random.default_rng(seed)
    sizes = [
        int(rng.integers(1, config.max_bundle + 1))
        for __ in range(config.n_submissions)
    ]
    # One task pool per tenant so each tenant can draw from its own
    # workload kind; pool seeds are derived deterministically.
    needed = [0] * len(config.tenants)
    for i, size in enumerate(sizes):
        needed[config.tenant_of(i)] += size
    pools = [
        generate_tasks(
            config.kind_of(t),
            seed=seed + 7919 * t,
            machine=machine,
            config=WorkloadConfig(
                n_tasks=max(count, 1),
                min_pages=min(100, config.max_pages_of(t)),
                max_pages=config.max_pages_of(t),
                bands=config.bands_of(t),
            ),
        )
        for t, count in enumerate(needed)
    ]
    if len(_POOL_CACHE) >= _POOL_CACHE_LIMIT:
        _POOL_CACHE.pop(next(iter(_POOL_CACHE)))
    _POOL_CACHE[key] = (sizes, pools, snapshot_counters())
    return sizes, pools


def _build_submissions_scoped(
    arrival_times: list[float],
    *,
    config: ArrivalConfig,
    machine: MachineConfig,
    seed: int,
) -> list[ServiceSubmission]:
    # Task and submission ids restart at zero inside the enclosing
    # id_scope, making a stream a pure function of (seed, rate, config)
    # even within one process — retry jitter keys on submission ids, so
    # this is what makes two in-process runs byte-identical.
    sizes, pools = _sized_pools(config=config, machine=machine, seed=seed)
    cursors = [0] * len(config.tenants)
    submissions: list[ServiceSubmission] = []
    for i, (arrival, size) in enumerate(zip(arrival_times, sizes)):
        tenant_index = config.tenant_of(i)
        cursor = cursors[tenant_index]
        # Stamping re-keys ids in stream order; chain on the stamped ids.
        stamped = [
            task.with_arrival(arrival)
            for task in pools[tenant_index][cursor : cursor + size]
        ]
        cursors[tenant_index] = cursor + size
        stamped = [
            task if j == 0 else task.with_dependencies({stamped[j - 1].task_id})
            for j, task in enumerate(stamped)
        ]
        deadline = None
        if config.slo_stretch is not None:
            ideal = sum(intra_time(t, machine) for t in stamped)
            deadline = arrival + config.slo_stretch * ideal
        submissions.append(
            ServiceSubmission(
                name=f"q{i}",
                tenant=config.tenants[tenant_index],
                tasks=tuple(stamped),
                arrival_time=arrival,
                deadline=deadline,
            )
        )
    return submissions


def poisson_stream(
    *,
    rate: float,
    seed: int,
    config: ArrivalConfig | None = None,
    machine: MachineConfig | None = None,
) -> list[ServiceSubmission]:
    """A Poisson arrival stream of submissions at offered rate λ.

    Args:
        rate: offered load λ in submissions/second (must be positive).
        seed: RNG seed; the stream is a pure function of
            ``(seed, rate, config)``.
        config: stream shape knobs.
        machine: machine the tasks are calibrated against.
    """
    if rate <= 0:
        raise ConfigError("arrival rate must be positive")
    config = config or ArrivalConfig()
    machine = machine or paper_machine()
    arrivals = poisson_times(config.n_submissions, rate=rate, seed=seed)
    return _build_submissions(
        arrivals, config=config, machine=machine, seed=seed
    )


def onoff_stream(
    *,
    rate: float,
    seed: int,
    on_fraction: float = 0.5,
    period: float = 20.0,
    config: ArrivalConfig | None = None,
    machine: MachineConfig | None = None,
) -> list[ServiceSubmission]:
    """A bursty on-off (interrupted Poisson) stream averaging rate λ.

    Time alternates between ON windows of length
    ``on_fraction * period`` and silent OFF windows; during ON windows
    arrivals are Poisson at ``rate / on_fraction``, so the long-run
    average offered load is still λ while the instantaneous load during
    bursts exceeds it by ``1 / on_fraction`` — stressing the admission
    queue far harder than the same λ spread evenly.

    Args:
        rate: long-run average offered rate λ (submissions/second).
        seed: RNG seed (deterministic stream).
        on_fraction: fraction of each period that is ON, in (0, 1];
            smaller values mean burstier traffic.
        period: seconds per ON+OFF cycle.
        config: stream shape knobs.
        machine: machine the tasks are calibrated against.
    """
    if rate <= 0:
        raise ConfigError("arrival rate must be positive")
    if not 0.0 < on_fraction <= 1.0:
        raise ConfigError("on_fraction must be in (0, 1]")
    if period <= 0:
        raise ConfigError("period must be positive")
    config = config or ArrivalConfig()
    machine = machine or paper_machine()
    rng = np.random.default_rng(seed)
    on_len = on_fraction * period
    burst_rate = rate / on_fraction
    clock = 0.0
    arrivals: list[float] = []
    while len(arrivals) < config.n_submissions:
        clock += float(rng.exponential(1.0 / burst_rate))
        # Skip OFF windows: fold the clock forward to the next ON window.
        phase = clock % period
        if phase > on_len:
            clock += period - phase
            continue
        arrivals.append(clock)
    return _build_submissions(
        arrivals, config=config, machine=machine, seed=seed
    )
