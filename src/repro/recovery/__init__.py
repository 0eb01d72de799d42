"""Checkpoint/resume for the micro engine.

The XPRS adjustment protocol gives the engine natural *round
boundaries* — instants where no protocol leg is in flight and every
slave is either reading a page or retired.  :class:`RecoveryManager`
snapshots the micro engine's schedule state (:class:`Checkpoint`) at
those boundaries, so an injected ``master-crash`` resumes from the last
checkpoint instead of re-reading every page (:func:`run_with_recovery`).

The heavy pieces (the manager and the benchmark harness import the
simulators) load lazily so ``repro.sim.micro`` can import the light
checkpoint module without a cycle.
"""

from .checkpoint import (
    Checkpoint,
    DiskSnapshot,
    RecordSnapshot,
    SlaveSnapshot,
    TaskSnapshot,
)

__all__ = [
    "Checkpoint",
    "DiskSnapshot",
    "RecordSnapshot",
    "RecoveryManager",
    "RecoveryRun",
    "SlaveSnapshot",
    "TaskSnapshot",
    "run_with_recovery",
]


def __getattr__(name: str):
    # RecoveryManager / run_with_recovery live in .manager, which
    # imports the micro engine; the engine in turn imports .checkpoint
    # from this package.  Lazy loading keeps that edge acyclic.
    if name in ("RecoveryManager", "RecoveryRun", "run_with_recovery"):
        from . import manager

        return getattr(manager, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
