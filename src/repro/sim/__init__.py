"""Simulation engines: the fluid-rate engine and the page-level micro
engine, two event loops over one task ledger and one action path
(:mod:`repro.sim.ledger`)."""

from .fluid import FluidSimulator
from .ledger import ScheduleResult, ShedRecord, TaskRecord
from .micro import MicroSimulator, ScanSpec, spec_for_io_rate

__all__ = [
    "FluidSimulator",
    "MicroSimulator",
    "ScanSpec",
    "ScheduleResult",
    "ShedRecord",
    "TaskRecord",
    "spec_for_io_rate",
]
