"""Concrete benchmark relations on the real storage layer.

The paper's experiment schema: "All relations in the workloads have the
same schema: r1(a = int4, b = text), where attribute b is a
variable-size string and is used to adjust the tuple sizes."

* ``r_min`` — b is NULL in every tuple, so tuples are minimal and a
  page holds many of them: the most CPU-bound task (~5 ios/s).
* ``r_max`` — b is sized so each 8K page holds exactly one tuple: the
  most IO-bound task (~70 ios/s in the paper's measurement).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..catalog import Catalog, Schema
from ..config import MachineConfig, paper_machine
from ..errors import ConfigError
from ..plans.costing import analyze_table
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
