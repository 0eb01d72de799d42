"""Optimizer subsystem: query specs, enumeration, parcost, two-phase."""

from .cache import CacheStats, OptimizerCaches
from .enumeration import (
    JOIN_METHODS,
    access_paths,
    enumerate_all_bushy,
    enumerate_space,
    join_candidates,
    plan_shape_key,
)
from .multiquery import (
    MultiQueryResult,
    MultiQueryScheduler,
    QueryOutcome,
    QuerySubmission,
    rewire_dependencies,
)
from .parcost import (
    ParallelCost,
    ParcostObjective,
    parallel_cost,
    parcost,
)
from .query import JoinPredicate, Query
from .twophase import OptimizedQuery, OptimizerMode, TwoPhaseOptimizer

__all__ = [
    "JOIN_METHODS",
    "CacheStats",
    "JoinPredicate",
    "MultiQueryResult",
    "MultiQueryScheduler",
    "OptimizedQuery",
    "OptimizerCaches",
    "OptimizerMode",
    "ParallelCost",
    "ParcostObjective",
    "Query",
    "QueryOutcome",
    "QuerySubmission",
    "TwoPhaseOptimizer",
    "access_paths",
    "enumerate_all_bushy",
    "enumerate_space",
    "join_candidates",
    "parallel_cost",
    "parcost",
    "plan_shape_key",
    "rewire_dependencies",
]
