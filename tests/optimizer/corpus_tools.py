"""The golden-plan corpus' workloads and cell builders.

The corpus (``tests/optimizer/data/plan_corpus.json``) freezes the plan
the *reference* optimizer — the uncached, unpruned search — chooses for
seeded workloads in all three plan spaces, with its ``parcost``.

The ``served/…`` entries are the shapes the serving path plans: every
connected 3–6-relation sub-query of the two ``serve_queries`` schemas
(56 star + 14 chain per seed), searched in ``LEFT_DEEP_SEQ`` and frozen
as plan shape plus ``seqcost`` hex.  Unlike the parcost entries these
are full of exact and ulp-near cost ties (merge join is symmetric, the
chain's relations have equal cardinalities), so they are what notices a
reordered float sum or a changed tie-break.

The ``batch/…`` and ``explain/…`` entries freeze what comes *after*
phase 1 — plan → fragments → named, arrival-stamped, wired tasks →
schedule — for :meth:`MultiQueryScheduler.run` and
:meth:`XprsSystem.explain`.  Tasks are stored by name (dependencies as
names too) with every time as ``float.hex``; task ids are not stored,
because how many ids a path draws is not behaviour.

The blocks and the commits that froze them are registered in
``tests/corpus.py``; regenerate (only when a plan change is *intended*
and reviewed) with ``PYTHONPATH=src python -m tests.corpus plan``.
"""

from __future__ import annotations

from functools import cache, partial
from itertools import combinations

import numpy as np

from repro.catalog import Catalog, Schema
from repro.config import paper_machine
from repro.core import IntraOnlyPolicy
from repro.core.ids import id_scope
from repro.executor import between
from repro.optimizer import (
    JoinPredicate,
    MultiQueryScheduler,
    OptimizerCaches,
    OptimizerMode,
    ParcostObjective,
    Query,
    QuerySubmission,
    TwoPhaseOptimizer,
    enumerate_space,
    parcost,
    plan_shape_key,
)
from repro.plans import analyze_table
from repro.plans.costing import estimate_plan
from repro.storage import BTreeIndex, DiskArray, HeapFile
from repro.system import XprsSystem
from repro.workloads import build_relation, one_tuple_per_page_payload
from repro.workloads.queries import chain_join, star_join

SPACES = ("left-deep", "right-deep", "bushy")

#: (label, factory) — the corpus workloads.  Small enough that the
#: replay test re-optimizes each one twice in well under a second, but
#: covering both topologies, several seeds and cost-tied symmetric
#: subplans (the star shapes), which is where tie-breaking and pruning
#: could silently change the choice.
WORKLOADS = (
    ("chain3/seed0", lambda: chain_join(3, rows_per_relation=300, seed=0)),
    ("chain3/seed1", lambda: chain_join(3, rows_per_relation=300, seed=1)),
    ("chain4/seed0", lambda: chain_join(4, rows_per_relation=300, seed=0)),
    ("star3/seed0", lambda: star_join(3, fact_rows=400, dimension_rows=80, seed=0)),
    ("star3/seed1", lambda: star_join(3, fact_rows=400, dimension_rows=80, seed=1)),
    # Added with repro.check: one deeper chain and one wider star, the
    # shapes the differential fuzzer exercises most.
    ("chain4/seed1", lambda: chain_join(4, rows_per_relation=300, seed=1)),
    ("star4/seed0", lambda: star_join(4, fact_rows=400, dimension_rows=80, seed=0)),
)


def choose(factory, space, *, fast_path=False):
    """Run one phase-1 search on a fresh schema; returns its plan's
    shape key and parcost."""
    schema = factory()
    caches = OptimizerCaches() if fast_path else None
    objective = ParcostObjective(schema.catalog, caches=caches)
    stats = caches.stats if caches is not None else None
    plan = enumerate_space(
        schema.query, schema.catalog, objective, space=space, stats=stats
    )
    return {"shape": plan_shape_key(plan), "parcost": parcost(plan, schema.catalog)}


def golden_cells(workloads=WORKLOADS):
    """``<workload>/<space>`` -> the reference search, as a zero-argument
    :func:`choose`."""
    return {
        f"{label}/{space}": partial(choose, factory, space)
        for label, factory in workloads
        for space in SPACES
    }


#: (label, factory) — the two ``serve_queries`` schemas of
#: ``benchmarks/e2e``, one per seed.
SERVED_SCHEMAS = tuple(
    (f"{label}/seed{seed}", factory)
    for seed in range(3)
    for label, factory in (
        ("star6", lambda seed=seed: star_join(6, payload=2000, seed=seed)),
        (
            "chain7",
            lambda seed=seed: chain_join(7, payload=40, key_range=400, seed=seed),
        ),
    )
)


def served_queries(label, schema):
    """Every connected 3–6-relation sub-query of a served schema.

    Star: the fact table plus any 2–5 dimensions; chain: every
    contiguous run.  Relations and joins keep the full query's order,
    as ``benchmarks/e2e`` draws them.  Yields ``(key, Query)``.
    """
    full = schema.query
    for k in range(3, 7):
        if label.startswith("star"):
            picks = [
                [full.relations[0], *dims]
                for dims in combinations(full.relations[1:], k - 1)
            ]
        else:
            picks = [
                list(full.relations[start : start + k])
                for start in range(len(full.relations) - k + 1)
            ]
        for relations in picks:
            inside = set(relations)
            joins = [
                j
                for j in full.joins
                if j.left_rel in inside and j.right_rel in inside
            ]
            yield (
                f"served/{label}/{'+'.join(relations)}",
                Query(relations=relations, joins=joins),
            )


def choose_served(optimizer, query):
    """One ``LEFT_DEEP_SEQ`` search; returns its plan's shape key and
    seqcost."""
    plan = optimizer.choose_plan(query, OptimizerMode.LEFT_DEEP_SEQ)
    # A fresh, cache-free estimate: the frozen float is the plan's own
    # cost, whatever memo the optimizer under test consulted.
    cost = estimate_plan(plan, optimizer.catalog, machine=optimizer.machine)
    return {"shape": plan_shape_key(plan), "seqcost": cost.seqcost()}


def served_cells():
    """``served/…`` -> the reference search, as a zero-argument
    :func:`choose_served`, one per sub-query of each served schema."""
    cells = {}
    for label, factory in SERVED_SCHEMAS:
        schema = factory()
        reference = TwoPhaseOptimizer(schema.catalog, fast_path=False)
        for key, query in served_queries(label, schema):
            cells[key] = partial(choose_served, reference, query)
    return cells


def three_chain_catalog() -> Catalog:
    """r1 ⋈ r2 ⋈ r3 with an index on ``r1.a`` (the optimizer test fixture)."""
    machine = paper_machine()
    array = DiskArray(machine)
    cat = Catalog()
    rng = np.random.default_rng(11)

    def make_rel(name, int_cols, text_col, n, payload):
        schema = Schema.of(*[(c, "int4") for c in int_cols], (text_col, "text"))
        heap = HeapFile(schema, array, name=name)
        for __ in range(n):
            vals = tuple(int(rng.integers(0, n // 4 + 1)) for __ in int_cols)
            heap.insert(vals + ("x" * payload,))
        cat.create_table(name, schema, heap)
        analyze_table(cat, name)
        return heap

    heap1 = make_rel("r1", ["a", "b1"], "p1", 800, 40)
    make_rel("r2", ["b2", "c2"], "p2", 500, 40)
    make_rel("r3", ["c3", "d3"], "p3", 300, 40)

    index = BTreeIndex()
    for rid, row in heap1.scan():
        index.insert(row[0], rid)
    cat.add_index("r1", "r1_a_idx", "a", index)
    return cat


def three_chain_query() -> Query:
    return Query(
        relations=["r1", "r2", "r3"],
        joins=[
            JoinPredicate("r1", "b1", "r2", "b2"),
            JoinPredicate("r2", "c2", "r3", "c3"),
        ],
    )


def fixture_batch(chain_query: Query) -> list[QuerySubmission]:
    """The ``test_multiquery`` batch: the chain join plus two selections."""
    single = Query(relations=["r3"], selections={"r3": between("c3", 0, 60)})
    single2 = Query(relations=["r1"], selections={"r1": between("a", 0, 100)})
    return [
        QuerySubmission("join-query", chain_query),
        QuerySubmission("scan-r3", single),
        QuerySubmission("scan-r1", single2),
    ]


def example_batch():
    """The catalog and batch of ``examples/multi_query_batch.py``."""
    schema = chain_join(3, rows_per_relation=2000, seed=21)
    payload = one_tuple_per_page_payload(8192)
    build_relation(
        schema.catalog, schema.array, "wide_a", n_rows=4000, payload_size=payload
    )
    build_relation(
        schema.catalog, schema.array, "wide_b", n_rows=3000, payload_size=payload
    )
    return schema.catalog, [
        QuerySubmission("three-way-join", schema.query),
        QuerySubmission("bulk-scan-a", Query(relations=["wide_a"])),
        QuerySubmission("bulk-scan-b", Query(relations=["wide_b"]), arrival_time=2.0),
    ]


#: (label, factory -> (catalog, submissions)) — the frozen batches.
BATCHES = (
    ("example", example_batch),
    ("fixture", lambda: (three_chain_catalog(), fixture_batch(three_chain_query()))),
)
BATCH_MODES = (OptimizerMode.LEFT_DEEP_SEQ, OptimizerMode.BUSHY_SEQ)
BATCH_POLICIES = (("adaptive", lambda: None), ("intra-only", IntraOnlyPolicy))


def run_batch(catalog, submissions, mode, policy) -> dict:
    """One ``MultiQueryScheduler.run``, rendered id-free.

    Each task row is ``[name, sorted dependency names, started_at,
    finished_at]``, in submission then fragment order.
    """
    with id_scope():
        result = MultiQueryScheduler(catalog, mode=mode).run(
            submissions, policy=policy
        )
    tasks = [task for outcome in result.outcomes for task in outcome.tasks]
    name_of = {task.task_id: task.name for task in tasks}
    rows = []
    for task in tasks:
        record = result.schedule.record_for(task)
        deps = sorted(name_of[d] for d in task.depends_on)
        rows.append([task.name, deps, record.started_at, record.finished_at])
    return {"elapsed": result.elapsed, "tasks": rows}


def explain_system() -> XprsSystem:
    """The ``tests/test_system.py`` emp/dept database."""
    system = XprsSystem()
    system.create_table(
        "emp",
        [("eid", "int4"), ("dept", "int4"), ("salary", "int4"), ("ename", "text")],
        [(i, i % 5, 1000 + (i * 13) % 500, f"emp-{i}") for i in range(200)],
    )
    system.create_table(
        "dept",
        [("did", "int4"), ("budget", "int4"), ("dname", "text")],
        [(i, 10_000 * (i + 1), f"dept-{i}") for i in range(5)],
    )
    return system


#: (label, SQL) — one single-table query and one join.
EXPLAINED = (
    ("one-table", "SELECT count(*) FROM emp WHERE salary > 1200"),
    ("join", "SELECT count(*) FROM emp, dept WHERE dept = did"),
)


def run_explain(system, sql) -> dict:
    """``system.explain(sql)``'s tasks and predicted schedule, id-free.

    A task row is ``[name, T, D, pattern, memory, dependency names]``; a
    schedule row is ``[name, started_at, finished_at, parallelism
    history]``, in record order.
    """
    with id_scope():
        report = system.explain(sql)
    name_of = {task.task_id: task.name for task in report.tasks}
    return {
        "elapsed": report.schedule.elapsed,
        "adjustments": report.schedule.adjustments,
        "tasks": [
            [t.name, t.seq_time, t.io_count, t.io_pattern.value, t.memory_bytes]
            + [sorted(name_of[d] for d in t.depends_on)]
            for t in report.tasks
        ],
        "schedule": [
            [r.task.name, r.started_at, r.finished_at, r.parallelism_history]
            for r in report.schedule.records
        ],
    }


def schedule_cells():
    """``batch/<batch>/<mode>/<policy>`` -> :func:`run_batch` and
    ``explain/<label>`` -> :func:`run_explain` builders.  The cells of one
    batch share its catalog, and the explain cells one system, built on
    first use."""
    cells = {}
    for label, factory in BATCHES:
        built = cache(factory)
        for mode in BATCH_MODES:
            for policy_label, policy in BATCH_POLICIES:
                cells[f"batch/{label}/{mode.name}/{policy_label}"] = (
                    lambda built=built, mode=mode, policy=policy: run_batch(
                        *built(), mode, policy()
                    )
                )
    system = cache(explain_system)
    for label, sql in EXPLAINED:
        cells[f"explain/{label}"] = lambda sql=sql: run_explain(system(), sql)
    return cells
