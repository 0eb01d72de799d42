"""Reproduction of *Exploiting Inter-Operation Parallelism in XPRS*
(Wei Hong, UCB/ERL M92/3, January 1992).

The package implements the paper's adaptive scheduling algorithm — pair
the most IO-bound with the most CPU-bound task at their IO-CPU balance
point and keep the machine there by dynamically adjusting degrees of
intra-operation parallelism — together with every substrate it needs: a
striped storage layer, a relational executor, plan fragmentation, a
two-phase query optimizer with the Section-4 ``parcost`` extension, two
simulation engines and a real multiprocessing master/slave executor.

Quickstart::

    from repro import run_figure7

    result = run_figure7(engine="micro", seeds=(0, 1, 2))
    print(result.to_table())

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record.
"""

from .bench import calibrate, run_figure7
from .config import DiskProfile, MachineConfig, paper_machine
from .core import (
    BalancePoint,
    IOPattern,
    InterWithAdjPolicy,
    InterWithoutAdjPolicy,
    IntraOnlyPolicy,
    Task,
    balance_point,
    intra_time,
    is_io_bound,
    make_task,
    max_parallelism,
)
from .errors import ReproError
from .faults import (
    CircuitBreaker,
    FaultSchedule,
    RetryPolicy,
    load_schedule,
    preset_schedule,
)
from .optimizer import JoinPredicate, OptimizerMode, Query, TwoPhaseOptimizer, parcost
from .plans import fragment_plan
from .service import QueryService, mixed_tenant_config, poisson_stream
from .sim import FluidSimulator, MicroSimulator, ScanSpec, spec_for_io_rate
from .sql import run_sql, translate as translate_sql
from .system import ExplainReport, XprsSystem
from .workloads import WorkloadKind, generate_specs, generate_tasks

__version__ = "1.0.0"

__all__ = [
    "BalancePoint",
    "CircuitBreaker",
    "DiskProfile",
    "FaultSchedule",
    "FluidSimulator",
    "IOPattern",
    "InterWithAdjPolicy",
    "InterWithoutAdjPolicy",
    "IntraOnlyPolicy",
    "JoinPredicate",
    "MachineConfig",
    "MicroSimulator",
    "OptimizerMode",
    "Query",
    "QueryService",
    "ReproError",
    "RetryPolicy",
    "ScanSpec",
    "ExplainReport",
    "Task",
    "TwoPhaseOptimizer",
    "XprsSystem",
    "WorkloadKind",
    "__version__",
    "balance_point",
    "calibrate",
    "fragment_plan",
    "generate_specs",
    "generate_tasks",
    "intra_time",
    "is_io_bound",
    "load_schedule",
    "make_task",
    "max_parallelism",
    "mixed_tenant_config",
    "paper_machine",
    "parcost",
    "poisson_stream",
    "preset_schedule",
    "run_figure7",
    "run_sql",
    "spec_for_io_rate",
    "translate_sql",
]
