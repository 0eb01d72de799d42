"""Scheduling core: the paper's adaptive inter-operation parallelism.

Tasks, IO/CPU-bound classification, the IO-CPU balance point, and the
three scheduling policies compared in Section 3.
"""

from .balance import (
    BalancePoint,
    balance_point,
    effective_bandwidth,
    intra_time,
)
from .classify import (
    classification_line,
    is_io_bound,
    max_parallelism,
    pattern_bandwidth,
    split_by_bound,
)
from .recursion import RecursionStep, elapsed_time_recursion
from .schedulers import (
    memory_fits,
    Action,
    Adjust,
    EngineState,
    InterWithAdjPolicy,
    InterWithoutAdjPolicy,
    IntraOnlyPolicy,
    SchedulingPolicy,
    Shed,
    Start,
    policy_by_name,
)
from .task import IOPattern, Task, make_task

__all__ = [
    "Action",
    "Adjust",
    "RecursionStep",
    "BalancePoint",
    "EngineState",
    "IOPattern",
    "InterWithAdjPolicy",
    "InterWithoutAdjPolicy",
    "IntraOnlyPolicy",
    "SchedulingPolicy",
    "Shed",
    "Start",
    "Task",
    "balance_point",
    "classification_line",
    "effective_bandwidth",
    "intra_time",
    "is_io_bound",
    "elapsed_time_recursion",
    "make_task",
    "max_parallelism",
    "memory_fits",
    "pattern_bandwidth",
    "policy_by_name",
    "split_by_bound",
]
