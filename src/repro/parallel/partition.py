"""Partitioning arithmetic for parallel scans.

XPRS parallelizes operators two ways (Section 2.4):

* **page partitioning** — "given n processors, processor i processes
  disk pages ``{p | p mod n = i}``"; used for sequential scans;
* **range partitioning** — partition by attribute value, balanced using
  "data distribution information in the system catalog or in the root
  node of an index"; used for index scans.

This module holds the pure arithmetic shared by the micro simulator and
the real multiprocessing executor: stride assignments, the maxpage
split, balanced range cuts and the repartitioning of leftover
intervals.  The simulator's slaves hold :class:`PageAssignment` strides
(dealt by :func:`page_assignments`) and both its initial range split
and its Figure-6 deal are :func:`repartition_intervals`; only its
per-page claim inlines :meth:`PageAssignment.first_at_or_after`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

from ..errors import SchedulingError


@dataclass(frozen=True)
class PageAssignment:
    """Pages ``{p | lo <= p <= hi and p mod stride == residue}``."""

    lo: int
    hi: int
    stride: int
    residue: int

    def __post_init__(self) -> None:
        if self.stride < 1:
            raise SchedulingError("stride must be >= 1")
        if not 0 <= self.residue < self.stride:
            raise SchedulingError("residue out of range")

    def pages(self) -> range:
        """The assigned page numbers, ascending."""
        first = self.first_at_or_after(self.lo)
        if first is None:
            return range(0)
        return range(first, self.hi + 1, self.stride)

    def first_at_or_after(self, p: int) -> int | None:
        """Smallest assigned page >= ``p``, or None when exhausted."""
        start = max(p, self.lo)
        offset = (start - self.residue) % self.stride
        candidate = start if offset == 0 else start + (self.stride - offset)
        return candidate if candidate <= self.hi else None

    def count(self) -> int:
        """Number of pages in this assignment."""
        return len(self.pages())


def page_assignments(n_pages: int, parallelism: int) -> list[PageAssignment]:
    """Initial page partition of ``n_pages`` over ``parallelism`` slaves."""
    if n_pages < 0:
        raise SchedulingError("n_pages must be >= 0")
    if parallelism < 1:
        raise SchedulingError("parallelism must be >= 1")
    return [
        PageAssignment(lo=0, hi=n_pages - 1, stride=parallelism, residue=i)
        for i in range(parallelism)
    ]


def maxpage_split(
    cursors: Sequence[int], n_pages: int
) -> int:
    """Figure 5: the adjustment boundary from the slaves' cursors.

    Each cursor is a slave's next-unclaimed page.  Every page below the
    returned boundary stays with the old strides; pages at or above it
    move to the new strides.
    """
    if not cursors:
        return n_pages
    return min(max(cursors), n_pages)


def adjusted_assignments(
    old: Sequence[PageAssignment],
    cursors: Sequence[int],
    n_pages: int,
    new_parallelism: int,
) -> tuple[int, list[list[PageAssignment]]]:
    """Apply the Figure-5 protocol to a set of page assignments.

    Args:
        old: current assignment of slave i at index i.
        cursors: slave i's next-unclaimed page.
        n_pages: total pages of the scan.
        new_parallelism: the new degree ``n'``.

    Returns ``(maxpage, per_slave)`` where ``per_slave[i]`` is the new
    assignment list for slave ``i`` (``max(len(old), n')`` entries —
    shrunk slaves keep only their old remainder, new slaves get only a
    post-maxpage stride).
    """
    if len(old) != len(cursors):
        raise SchedulingError("one cursor per old assignment required")
    maxpage = maxpage_split(cursors, n_pages)
    total_slaves = max(len(old), new_parallelism)
    per_slave: list[list[PageAssignment]] = []
    for i in range(total_slaves):
        assignments: list[PageAssignment] = []
        if i < len(old) and maxpage - 1 >= old[i].lo:
            clamped = PageAssignment(
                lo=old[i].lo,
                hi=min(old[i].hi, maxpage - 1),
                stride=old[i].stride,
                residue=old[i].residue,
            )
            assignments.append(clamped)
        if i < new_parallelism and maxpage <= n_pages - 1:
            assignments.append(
                PageAssignment(
                    lo=maxpage, hi=n_pages - 1, stride=new_parallelism, residue=i
                )
            )
        per_slave.append(assignments)
    return maxpage, per_slave


def readjust_assignments(
    current: Sequence[Sequence[PageAssignment]],
    cursors: Sequence[int],
    n_pages: int,
    new_parallelism: int,
) -> tuple[int, list[list[PageAssignment]]]:
    """Generalized Figure-5 step for slaves holding *segment lists*.

    After one adjustment a slave owns several stride segments, so a
    second adjustment must clamp every remaining segment at
    ``maxpage - 1`` and append the new post-maxpage stride.  Returns
    ``(maxpage, per_slave)`` with ``max(len(current), n')`` entries;
    entry ``i`` is the full new segment list for the slave at position
    ``i`` (new positions beyond ``len(current)`` are fresh slaves).
    """
    if len(current) != len(cursors):
        raise SchedulingError("one cursor per live slave required")
    maxpage = maxpage_split(cursors, n_pages)
    total = max(len(current), new_parallelism)
    per_slave: list[list[PageAssignment]] = []
    for i in range(total):
        segments: list[PageAssignment] = []
        if i < len(current):
            for seg in current[i]:
                if seg.lo <= maxpage - 1:
                    segments.append(
                        PageAssignment(
                            lo=seg.lo,
                            hi=min(seg.hi, maxpage - 1),
                            stride=seg.stride,
                            residue=seg.residue,
                        )
                    )
        if i < new_parallelism and maxpage <= n_pages - 1:
            segments.append(
                PageAssignment(
                    lo=maxpage, hi=n_pages - 1, stride=new_parallelism, residue=i
                )
            )
        per_slave.append(segments)
    return maxpage, per_slave


# ---------------------------------------------------------------------------
# range partitioning


def balanced_ranges(
    separators: Sequence[Any], parallelism: int
) -> list[tuple[Any, Any] | None]:
    """Cut balanced key ranges from ordered separator keys.

    ``separators`` come from an equi-depth histogram or a B+tree root;
    adjacent separators bound roughly equal row counts, so slicing them
    evenly yields a balanced partition.  Returns ``parallelism``
    ``(low, high)`` interval bounds (high of slot i = low of slot i+1;
    scan i uses ``low <= key < high`` except the last, which is
    unbounded above).  ``None`` entries mean "no work" (more slaves
    than separators).
    """
    if parallelism < 1:
        raise SchedulingError("parallelism must be >= 1")
    keys = list(separators)
    if not keys:
        return [None] * parallelism
    out: list[tuple[Any, Any] | None] = []
    n = len(keys)
    for i in range(parallelism):
        lo_index = (i * n) // parallelism
        hi_index = ((i + 1) * n) // parallelism
        if lo_index >= hi_index:
            out.append(None)
            continue
        low = keys[lo_index] if i > 0 else None
        high = keys[hi_index] if i < parallelism - 1 else None
        out.append((low, high))
    return out


def intervals_from_separators(
    low: int,
    high: int,
    separators: Sequence[int],
    parallelism: int,
) -> list[list[tuple[int, int]]]:
    """Initial range partition of ``[low, high]`` using distribution info.

    "We try to find a balanced range partition with data distribution
    information in the system catalog or in the root node of an index"
    (Section 2.4).  ``separators`` are ordered keys bounding roughly
    equal row counts (a B+tree root's separator keys or an equi-depth
    histogram); the cut points are chosen from them so each slave gets
    a near-equal *row* share even when keys are skewed.  Falls back to
    an even key-space split when no separators land inside the range.
    """
    if parallelism < 1:
        raise SchedulingError("parallelism must be >= 1")
    if low > high:
        raise SchedulingError("low must be <= high")
    inside = sorted({int(k) for k in separators if low < k <= high})
    if not inside or parallelism == 1:
        return repartition_intervals([(low, high)], parallelism)
    cut_points = []
    for i in range(1, parallelism):
        cut = inside[(i * len(inside)) // parallelism]
        if not cut_points or cut > cut_points[-1]:
            cut_points.append(cut)
    shares: list[list[tuple[int, int]]] = []
    start = low
    for cut in cut_points:
        shares.append([(start, cut - 1)] if start <= cut - 1 else [])
        start = cut
    shares.append([(start, high)] if start <= high else [])
    while len(shares) < parallelism:
        shares.append([])
    return shares


def repartition_intervals(
    remaining: Sequence[tuple[int, int]], parallelism: int
) -> list[list[tuple[int, int]]]:
    """Figure 6: deal leftover ``(lo, hi)`` key intervals to n' slaves.

    Intervals are integer-keyed and inclusive.  Each slave receives a
    near-equal share of the remaining keys and "may get more than one
    intervals to scan instead of only one contiguous interval".
    """
    if parallelism < 1:
        raise SchedulingError("parallelism must be >= 1")
    ordered = sorted((lo, hi) for lo, hi in remaining if lo <= hi)
    total = sum(hi - lo + 1 for lo, hi in ordered)
    shares: list[list[tuple[int, int]]] = [[] for __ in range(parallelism)]
    if not total:
        return shares
    base, extra = divmod(total, parallelism)
    quotas = [base + (1 if i < extra else 0) for i in range(parallelism)]
    slot = 0
    for lo, hi in ordered:
        while lo <= hi:
            while slot < parallelism and quotas[slot] == 0:
                slot += 1
            if slot >= parallelism:  # pragma: no cover - quotas sum to total
                raise SchedulingError("interval accounting error")
            take = min(quotas[slot], hi - lo + 1)
            shares[slot].append((lo, lo + take - 1))
            quotas[slot] -= take
            lo += take
    return shares
