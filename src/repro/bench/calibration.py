"""Calibration: re-measure the paper's Section-3 constants (tbl2).

The paper measures, on its real hardware:

* the r_min sequential-scan io rate — 5 ios/second;
* the r_max sequential-scan io rate — 70 ios/second;
* disk bandwidth: 97 ios/s sequential, 60 almost sequential, 35 random.

We re-measure the same quantities against our storage layer and cost
model: scans run through the real executor, their simulated io and CPU
time are taken from the cost model, and the disk regimes are measured
by driving the disk model with the three access patterns.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..catalog import Catalog
from ..config import MachineConfig, paper_machine
from ..errors import ConfigError
from ..plans.costing import estimate_plan
from ..plans.nodes import SeqScanNode
from ..storage import DiskArray
from ..workloads.tables import build_r_max, build_r_min
from .report import format_table

#: Rows of the calibration's r_min and r_max.
N_ROWS_MIN = 4000
N_ROWS_MAX = 400


@dataclass(frozen=True)
class ScanMeasurement:
    """Measured behaviour of one sequential scan."""

    relation: str
    pages: int
    rows: int
    io_rate: float  # ios per second of (modelled) sequential execution
    seq_time: float


@dataclass(frozen=True)
class CalibrationResult:
    """All re-measured constants."""

    machine: MachineConfig
    r_min: ScanMeasurement
    r_max: ScanMeasurement
    disk_sequential: float
    disk_almost_sequential: float
    disk_random: float

    def to_table(self) -> str:
        """Render the measured-vs-paper constants as an ASCII table."""
        rows = [
            ("r_min scan io rate", f"{self.r_min.io_rate:.1f} ios/s", "5 ios/s"),
            ("r_max scan io rate", f"{self.r_max.io_rate:.1f} ios/s", "70 ios/s"),
            ("disk sequential", f"{self.disk_sequential:.1f} ios/s", "97 ios/s"),
            (
                "disk almost sequential",
                f"{self.disk_almost_sequential:.1f} ios/s",
                "60 ios/s",
            ),
            ("disk random", f"{self.disk_random:.1f} ios/s", "35 ios/s"),
            (
                "total bandwidth B",
                f"{self.machine.io_bandwidth:.0f} ios/s",
                "240 ios/s",
            ),
            (
                "IO/CPU threshold B/N",
                f"{self.machine.bound_threshold:.0f} ios/s",
                "30 ios/s",
            ),
        ]
        return format_table(
            ["Quantity", "Measured", "Paper"],
            rows,
            title="Section 3 calibration (measured on this storage layer)",
        )


def measure_scan(
    catalog: Catalog,
    relation: str,
    *,
    machine: MachineConfig,
) -> ScanMeasurement:
    """Measure a relation's sequential-scan profile.

    The *row/page counts* come from really draining the executor; the
    *time* comes from the cost model (this host's wall clock says
    nothing about a 1992 Sequent), giving the io rate the schedulers
    would see.
    """
    entry = catalog.table(relation)
    plan = SeqScanNode(relation)
    rows = len(plan.to_operator(catalog, charge_io=False).run())
    estimate = estimate_plan(plan, catalog, machine=machine)
    node = estimate.by_node[plan.node_id]
    # Sequential execution at the working (almost-sequential) rate.
    io_time = node.ios / machine.disk.almost_seq_ios_per_sec
    seq_time = node.cpu_time + io_time
    if seq_time <= 0:
        raise ConfigError("degenerate scan measurement")
    return ScanMeasurement(
        relation=relation,
        pages=entry.heap.page_count,
        rows=rows,
        io_rate=node.ios / seq_time,
        seq_time=seq_time,
    )


#: Requests per access pattern in :func:`measure_disk_regimes`.
_REGIME_IOS = 500


def measure_disk_regimes(machine: MachineConfig) -> tuple[float, float, float]:
    """Drive one disk with the three access patterns; return the rates."""
    from ..storage.disk import Disk

    # Strictly sequential.
    disk = Disk(0, machine.disk)
    disk.service_time(0)
    seq = _REGIME_IOS / sum(disk.service_time(b) for b in range(1, _REGIME_IOS + 1))
    # Almost sequential: a parallel scan's slightly reordered stream.
    disk = Disk(0, machine.disk)
    order = []
    for base in range(0, _REGIME_IOS, 4):
        order.extend([base + 2, base, base + 3, base + 1])
    disk.service_time(order[0])
    almost = (len(order) - 1) / sum(disk.service_time(b) for b in order[1:])
    # Random: scattered blocks far beyond any stream memory.
    disk = Disk(0, machine.disk)
    stride = 10_000
    blocks = [((i * 7919) % _REGIME_IOS) * stride for i in range(_REGIME_IOS)]
    random_rate = len(blocks) / sum(disk.service_time(b) for b in blocks)
    return seq, almost, random_rate


def calibrate(*, machine: MachineConfig | None = None) -> CalibrationResult:
    """Build r_min / r_max, measure everything, return the table data."""
    machine = machine or paper_machine()
    array = DiskArray(machine)
    catalog = Catalog()
    build_r_min(catalog, array, n_rows=N_ROWS_MIN)
    build_r_max(catalog, array, n_rows=N_ROWS_MAX, machine=machine)
    r_min = measure_scan(catalog, "r_min", machine=machine)
    r_max = measure_scan(catalog, "r_max", machine=machine)
    seq, almost, random_rate = measure_disk_regimes(machine)
    return CalibrationResult(
        machine=machine,
        r_min=r_min,
        r_max=r_max,
        disk_sequential=seq,
        disk_almost_sequential=almost,
        disk_random=random_rate,
    )
