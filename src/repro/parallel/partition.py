"""Partitioning arithmetic for parallel scans.

XPRS parallelizes operators two ways (Section 2.4):

* **page partitioning** — "given n processors, processor i processes
  disk pages ``{p | p mod n = i}``"; used for sequential scans;
* **range partitioning** — partition by attribute value, balanced using
  "data distribution information in the system catalog or in the root
  node of an index"; used for index scans.

This module holds the pure arithmetic shared by the micro simulator and
the real multiprocessing executor: stride assignments, the Figure-5
round, balanced range cuts and the repartitioning of leftover
intervals.  Both engines deal strides with :func:`page_assignments`,
run every Figure-5 round through :func:`maxpage_round` and every
Figure-6 deal through :func:`repartition_intervals`; only the
simulator's per-page claim inlines
:meth:`PageAssignment.first_at_or_after`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

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


def maxpage_round(
    strides: Sequence[Sequence[PageAssignment]],
    cursors: Sequence[int],
    n_pages: int,
    new_parallelism: int,
) -> tuple[int, list[list[PageAssignment]]]:
    """One Figure-5 round: ``maxpage`` and every position's new strides.

    Args:
        strides: the stride list of each live slave, by position.
        cursors: the next-unclaimed page of *every* slave that ever held
            a stride.  A finished slave's final cursor must be here, or
            the new strides would re-cover the pages it already read.
        n_pages: total pages of the scan.
        new_parallelism: the new degree ``n'``.

    Every page below ``maxpage`` stays with the old strides, each
    clamped at ``maxpage - 1``; pages from ``maxpage`` on go to the new
    ``mod n'`` strides, residue ``i`` to position ``i``.  Returns
    ``(maxpage, per_position)``: one entry per live slave, plus one per
    fresh slave to spawn (``n'`` positions in all when pages remain past
    ``maxpage``, none beyond the live slaves otherwise).
    """
    if len(cursors) < len(strides):
        raise SchedulingError("every live slave must report a cursor")
    maxpage = min(max(cursors, default=n_pages), n_pages)
    per_position = [
        [
            PageAssignment(seg.lo, min(seg.hi, maxpage - 1), seg.stride, seg.residue)
            for seg in held
            if seg.lo < maxpage
        ]
        for held in strides
    ]
    if maxpage < n_pages:
        per_position.extend([] for __ in range(len(strides), new_parallelism))
        for residue in range(new_parallelism):
            per_position[residue].append(
                PageAssignment(maxpage, n_pages - 1, new_parallelism, residue)
            )
    return maxpage, per_position


# ---------------------------------------------------------------------------
# range partitioning


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
