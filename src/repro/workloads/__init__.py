"""Benchmark workload generators (Section 3 and Section 4)."""

from .mixes import (
    RateBands,
    WorkloadConfig,
    WorkloadKind,
    generate_specs,
    generate_tasks,
    poisson_arrivals,
    poisson_times,
)
from .queries import JoinSchema, chain_join, star_join
from .tables import (
    R1_SCHEMA,
    BuiltRelation,
    build_r_max,
    build_r_min,
    build_relation,
    one_tuple_per_page_payload,
)

__all__ = [
    "BuiltRelation",
    "JoinSchema",
    "R1_SCHEMA",
    "RateBands",
    "WorkloadConfig",
    "WorkloadKind",
    "build_r_max",
    "build_r_min",
    "build_relation",
    "chain_join",
    "generate_specs",
    "generate_tasks",
    "one_tuple_per_page_payload",
    "poisson_arrivals",
    "poisson_times",
    "star_join",
]
