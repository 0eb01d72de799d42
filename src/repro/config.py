"""Machine configuration for the simulated XPRS environment.

The paper runs XPRS on a Sequent Symmetry with 12 processors and a
4-disk array, using 8 processors in the experiments.  All relations are
striped block-by-block, round-robin, across the disk array (Figure 1).
The measured disk constants (Section 3) are, per disk and after file
system overhead:

* 97 ios/second for sequential reads,
* 60 ios/second for *almost sequential* reads (what parallel sequential
  scans actually see, because parallel backends reorder requests),
* 35 ios/second for random reads.

With 4 disks and the almost-sequential rate the paper uses a total disk
bandwidth of ``B = 4 * 60 = 240`` ios/second, and with 8 processors the
IO-bound / CPU-bound threshold is ``B / N = 30`` ios/second.

:class:`MachineConfig` bundles these constants; :func:`paper_machine`
returns the exact configuration used in the paper's experiments.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

from .errors import ConfigError

#: Disk page size used by XPRS (Section 3: "the disk page size is 8K bytes").
PAGE_SIZE = 8192


@dataclass(frozen=True)
class DiskProfile:
    """Per-disk bandwidth profile, in io-requests per second.

    The micro simulator charges no separate seek: it classifies each
    request into one of the three regimes below
    (:meth:`~repro.storage.disk.Disk.service_time`) and serves it at
    that regime's rate.

    Attributes:
        seq_ios_per_sec: bandwidth for strictly sequential reads.
        almost_seq_ios_per_sec: bandwidth seen by parallel sequential
            scans whose requests arrive slightly out of order.
        random_ios_per_sec: bandwidth for random reads.
    """

    seq_ios_per_sec: float = 97.0
    almost_seq_ios_per_sec: float = 60.0
    random_ios_per_sec: float = 35.0

    def __post_init__(self) -> None:
        rates = (
            self.seq_ios_per_sec,
            self.almost_seq_ios_per_sec,
            self.random_ios_per_sec,
        )
        if any(r <= 0 for r in rates):
            raise ConfigError("disk bandwidths must be positive")
        if not (
            self.random_ios_per_sec
            <= self.almost_seq_ios_per_sec
            <= self.seq_ios_per_sec
        ):
            raise ConfigError(
                "expected random <= almost-sequential <= sequential bandwidth"
            )


@dataclass(frozen=True)
class MachineConfig:
    """A shared-memory multiprocessor with a striped disk array.

    Attributes:
        processors: number of processors available to query processing.
        disks: number of disks in the array.
        disk: per-disk bandwidth profile.
        page_size: disk page size in bytes.
        signal_latency: one-way master/slave signalling delay in seconds
            (tiny on shared memory; the dynamic-adjustment ablation
            sweeps it).
        work_memory_bytes: shared working memory available to
            concurrently running tasks (hash tables, sort buffers).
            The paper defers memory constraints to future work ("we
            cannot run two hashjoins in parallel unless there is enough
            memory for both hash tables"); this implements them.
            Defaults to unlimited, which reproduces the paper's
            memory-oblivious behaviour.
    """

    processors: int = 8
    disks: int = 4
    disk: DiskProfile = field(default_factory=DiskProfile)
    page_size: int = PAGE_SIZE
    signal_latency: float = 1e-4
    work_memory_bytes: float = float("inf")

    def __post_init__(self) -> None:
        if self.processors < 1:
            raise ConfigError("need at least one processor")
        if self.disks < 1:
            raise ConfigError("need at least one disk")
        if self.page_size < 64:
            raise ConfigError("page_size is unrealistically small")
        if self.signal_latency < 0:
            raise ConfigError("signal_latency must be non-negative")
        if self.work_memory_bytes <= 0:
            raise ConfigError("work_memory_bytes must be positive")

    # -- aggregate bandwidths -------------------------------------------------
    #
    # Cached: the config is frozen, so these are constants per instance,
    # and the schedulers read them on every policy consult.
    # ``cached_property`` stores straight into ``__dict__`` (bypassing the
    # frozen ``__setattr__``) and does not participate in eq/hash.

    @cached_property
    def total_almost_seq_bandwidth(self) -> float:
        """Aggregate almost-sequential bandwidth, ios/second.

        This is the paper's working definition of the sequential
        bandwidth ``Bs`` seen by parallel executions ("we at most see
        the almost sequential read bandwidth").
        """
        return self.disks * self.disk.almost_seq_ios_per_sec

    @cached_property
    def total_random_bandwidth(self) -> float:
        """Aggregate random bandwidth ``Br``, ios/second."""
        return self.disks * self.disk.random_ios_per_sec

    @cached_property
    def io_bandwidth(self) -> float:
        """The paper's default total bandwidth ``B`` (almost sequential)."""
        return self.total_almost_seq_bandwidth

    @cached_property
    def bound_threshold(self) -> float:
        """``B / N`` — tasks with a higher sequential io rate are IO-bound."""
        return self.io_bandwidth / self.processors

    def with_disk_scale(self, scale: float) -> "MachineConfig":
        """A copy whose three per-disk bandwidths are multiplied by
        ``scale`` — the machine as *measured* under degradation."""
        disk = self.disk
        return replace(
            self,
            disk=replace(
                disk,
                seq_ios_per_sec=disk.seq_ios_per_sec * scale,
                almost_seq_ios_per_sec=disk.almost_seq_ios_per_sec * scale,
                random_ios_per_sec=disk.random_ios_per_sec * scale,
            ),
        )


def paper_machine() -> MachineConfig:
    """The configuration of the paper's experiments (Section 3).

    Sequent Symmetry: 8 of 12 processors used, 4 disks, per-disk
    bandwidth 97/60/35 ios/second, 8 KB pages.  ``B = 240`` ios/second
    and the IO/CPU threshold is 30 ios/second.
    """
    return MachineConfig(processors=8, disks=4, disk=DiskProfile())
