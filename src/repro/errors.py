"""Exception hierarchy for the XPRS reproduction.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch one type at the boundary.  Sub-hierarchies mirror the
subsystems: storage, catalog, execution, optimization and scheduling.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this library."""


class ConfigError(ReproError):
    """An invalid machine or system configuration was supplied."""


# --------------------------------------------------------------------------
# catalog


class CatalogError(ReproError):
    """Base class for catalog errors."""


class UnknownRelationError(CatalogError):
    """A relation name was not found in the catalog."""

    def __init__(self, name: str) -> None:
        super().__init__(f"unknown relation: {name!r}")
        self.name = name


class UnknownColumnError(CatalogError):
    """A column name was not found in a schema."""

    def __init__(self, name: str) -> None:
        super().__init__(f"unknown column: {name!r}")
        self.name = name


class DuplicateRelationError(CatalogError):
    """A relation with the same name already exists."""

    def __init__(self, name: str) -> None:
        super().__init__(f"relation already exists: {name!r}")
        self.name = name


class SchemaError(CatalogError):
    """A schema definition or a tuple/schema mismatch is invalid."""


# --------------------------------------------------------------------------
# storage


class StorageError(ReproError):
    """Base class for storage-layer errors."""


class PageFullError(StorageError):
    """A record does not fit into the remaining free space of a page."""


class RecordTooLargeError(StorageError):
    """A record cannot fit into any page, even an empty one."""


class InvalidSlotError(StorageError):
    """A slot id does not exist (or was deleted) on a page."""


class BufferPoolError(StorageError):
    """The buffer pool cannot satisfy a request (e.g. all pages pinned)."""


class BTreeError(StorageError):
    """A B+tree invariant was violated or a bad key was supplied."""


# --------------------------------------------------------------------------
# execution


class ExecutionError(ReproError):
    """Base class for executor errors."""


class ExpressionError(ExecutionError):
    """An expression could not be evaluated against a tuple."""


class OperatorStateError(ExecutionError):
    """An operator was used outside its open/next/close protocol."""


# --------------------------------------------------------------------------
# plans and optimization


class PlanError(ReproError):
    """A plan tree is malformed (e.g. wrong arity for an operator)."""


class OptimizerError(ReproError):
    """The optimizer could not produce a plan for a query."""


# --------------------------------------------------------------------------
# scheduling and simulation


class SchedulingError(ReproError):
    """Base class for scheduler errors."""


class SimulationError(ReproError):
    """The discrete-event simulator reached an inconsistent state."""


class ProtocolError(ReproError):
    """A master/slave message violated the adjustment protocol."""


# --------------------------------------------------------------------------
# fault injection


class FaultError(ReproError):
    """A fault schedule is malformed or a fault could not be applied."""


# --------------------------------------------------------------------------
# recovery


class RecoveryError(ReproError):
    """A checkpoint could not be captured, serialized or restored."""


class MasterCrashError(ReproError):
    """The whole engine crashed at a scheduled instant (fault injection).

    Raised out of :meth:`MicroSimulator.run` when a ``master-crash``
    fault fires; :func:`repro.recovery.run_with_recovery` catches it and
    resumes from the last checkpoint.

    Attributes:
        at: simulated time of the crash.
        checkpoint_at: time of the newest checkpoint taken before the
            crash, or ``None`` when no checkpoint exists yet.
    """

    def __init__(self, at: float, checkpoint_at: float | None = None) -> None:
        tail = (
            f"; last checkpoint at t={checkpoint_at:.3f}"
            if checkpoint_at is not None
            else "; no checkpoint yet"
        )
        super().__init__(f"master crashed at t={at:.3f}{tail}")
        self.at = at
        self.checkpoint_at = checkpoint_at


# --------------------------------------------------------------------------
# observability


class ObsError(ReproError):
    """An invalid tracing or metrics operation (repro.obs)."""


# --------------------------------------------------------------------------
# checking (repro.check)


class CheckError(ReproError):
    """Base class for correctness-checking errors (repro.check)."""


class InvariantViolation(CheckError):
    """A runtime invariant failed inside an engine.

    Attributes:
        site: the hook site that tripped, e.g. ``micro:adjust``.
        detail: what was violated, with the offending numbers.
    """

    def __init__(self, site: str, detail: str) -> None:
        super().__init__(f"[{site}] {detail}")
        self.site = site
        self.detail = detail


# --------------------------------------------------------------------------
# serving


class ServiceError(ReproError):
    """Base class for query-service (serving mode) errors."""


class AdmissionError(ServiceError):
    """The admission controller reached an inconsistent state.

    Attributes:
        submission_id: id of the submission the controller choked on,
            or ``-1`` when the error is not about one submission (the
            id is then left out of the message).
    """

    def __init__(self, submission_id: int, reason: str) -> None:
        prefix = f"submission {submission_id}: " if submission_id >= 0 else ""
        super().__init__(prefix + reason)
        self.submission_id = submission_id
