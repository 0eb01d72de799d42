"""Concrete benchmark relations on the real storage layer.

The paper's experiment schema: "All relations in the workloads have the
same schema: r1(a = int4, b = text), where attribute b is a
variable-size string and is used to adjust the tuple sizes."

* ``r_min`` — b is NULL in every tuple, so tuples are minimal and a
  page holds many of them: the most CPU-bound task (~5 ios/s).
* ``r_max`` — b is sized so each 8K page holds exactly one tuple: the
  most IO-bound task (~70 ios/s in the paper's measurement).

:func:`build_rate_relation` interpolates: it chooses a payload size so
a sequential scan of the relation has a target io rate under a given
cost model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..catalog import Catalog, Schema
from ..config import MachineConfig, paper_machine
from ..core.classify import io_service_time
from ..core.task import IOPattern
from ..errors import ConfigError
from ..plans.costing import CPU_PAGE_TIME, CPU_TUPLE_TIME, analyze_table
from ..storage import BTreeIndex, DiskArray, HeapFile
from ..storage.page import SlottedPage

#: The experiment schema (Section 3).
R1_SCHEMA = Schema.of(("a", "int4"), ("b", "text"))

#: Encoded overhead of one row: int4 (5) + text length prefix (4).
_ROW_OVERHEAD = 9


@dataclass(frozen=True)
class BuiltRelation:
    """A populated relation plus its unclustered index on ``a``."""

    name: str
    heap: HeapFile
    index: BTreeIndex
    payload_size: int


def build_relation(
    catalog: Catalog,
    array: DiskArray,
    name: str,
    *,
    n_rows: int,
    payload_size: int | None,
    seed: int = 0,
) -> BuiltRelation:
    """Create, populate, index and ANALYZE one ``r(a, b)`` relation.

    ``a`` is drawn uniformly from ``[0, n_rows)`` (mostly-unique keys)
    and carries an unclustered B+tree.

    Args:
        payload_size: bytes of ``b`` per row; None stores NULL (r_min).
    """
    if n_rows < 1:
        raise ConfigError("n_rows must be >= 1")
    rng = np.random.default_rng(seed)
    heap = HeapFile(R1_SCHEMA, array, name=name)
    payload = None if payload_size is None else "x" * payload_size
    keys = rng.integers(0, n_rows, size=n_rows).tolist()
    rids = heap.insert_many((key, payload) for key in keys)
    catalog.create_table(name, R1_SCHEMA, heap)
    index = BTreeIndex()
    for key, rid in zip(keys, rids):
        index.insert(key, rid)
    catalog.add_index(name, f"{name}_a_idx", "a", index)
    analyze_table(catalog, name)
    return BuiltRelation(
        name=name, heap=heap, index=index, payload_size=payload_size or 0
    )


def build_r_min(
    catalog: Catalog, array: DiskArray, *, n_rows: int = 5000, seed: int = 0
) -> BuiltRelation:
    """The most CPU-bound relation: ``b`` NULL in every tuple."""
    return build_relation(
        catalog, array, "r_min", n_rows=n_rows, payload_size=None, seed=seed
    )


def build_r_max(
    catalog: Catalog,
    array: DiskArray,
    *,
    n_rows: int = 500,
    seed: int = 0,
    machine: MachineConfig | None = None,
) -> BuiltRelation:
    """The most IO-bound relation: one tuple per page."""
    machine = machine or paper_machine()
    payload = one_tuple_per_page_payload(machine.page_size)
    return build_relation(
        catalog, array, "r_max", n_rows=n_rows, payload_size=payload, seed=seed
    )


def one_tuple_per_page_payload(page_size: int) -> int:
    """Payload size of ``b`` so exactly one tuple fits per page."""
    capacity = SlottedPage.max_record_size(page_size)
    # Two rows fit iff each row <= capacity - (row + slot); make one
    # row larger than half the capacity (minus slot overhead margin).
    return capacity // 2 + 1 - _ROW_OVERHEAD


def payload_for_io_rate(io_rate: float) -> int | None:
    """Payload size whose sequential scan has ``io_rate`` ios/second
    on the paper machine.

    Under the cost model, a page with ``k`` tuples costs
    ``io_service + cpu_page + k * cpu_tuple`` seconds, so the io rate is
    ``1 / that``.  Solving for ``k`` and converting to a payload size
    gives the paper's tuple-size knob.  Returns None (NULL payload)
    when even minimal tuples cannot make the scan that CPU-bound.
    """
    machine = paper_machine()
    if io_rate <= 0:
        raise ConfigError("io_rate must be positive")
    service = io_service_time(machine, IOPattern.SEQUENTIAL)
    page_budget = 1.0 / io_rate - service - CPU_PAGE_TIME
    if page_budget < 0:
        raise ConfigError(f"io rate {io_rate} is not achievable by a scan")
    tuples_per_page = page_budget / CPU_TUPLE_TIME
    if tuples_per_page < 1:
        tuples_per_page = 1.0
    usable = SlottedPage.max_record_size(machine.page_size)
    row_bytes = usable / tuples_per_page
    payload = int(row_bytes) - _ROW_OVERHEAD - 4  # 4: slot entry
    if payload <= 0:
        return None
    return min(payload, one_tuple_per_page_payload(machine.page_size))
