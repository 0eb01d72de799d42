"""Shared fixtures for the golden-plan corpus.

The corpus (``tests/optimizer/data/plan_corpus.json``) freezes the plan
the *reference* optimizer — the uncached, unpruned search — chooses for
a fixed set of seeded workloads across all three plan spaces, together
with each plan's ``parcost`` serialized via ``float.hex()`` so the
comparison is exact to the last bit.  The replay test in
``test_plan_corpus.py`` re-runs every configuration with the fast path
off *and* on and asserts both reproduce the frozen plan exactly, which
is the plan-identical guarantee the optimizer fast path promises.

The ``served/…`` entries are the shapes the serving path plans: every
connected 3–6-relation sub-query of the two ``serve_queries`` schemas
(56 star + 14 chain per seed), searched in ``LEFT_DEEP_SEQ`` and frozen
as plan shape plus ``seqcost`` hex.  Unlike the parcost entries these
are full of exact and ulp-near cost ties (merge join is symmetric, the
chain's relations have equal cardinalities), so they are what notices a
reordered float sum or a changed tie-break.

Regenerate (only when a plan change is *intended* and reviewed)::

    PYTHONPATH=src python -m tests.optimizer.corpus_tools
"""

from __future__ import annotations

import json
from pathlib import Path

from itertools import combinations

from repro.optimizer import (
    OptimizerCaches,
    OptimizerMode,
    ParcostObjective,
    Query,
    TwoPhaseOptimizer,
    enumerate_space,
    parcost,
    plan_shape_key,
)
from repro.plans.costing import estimate_plan
from repro.workloads.queries import chain_join, star_join

CORPUS_PATH = Path(__file__).parent / "data" / "plan_corpus.json"

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


def choose(schema, space, *, fast_path):
    """Run one phase-1 search; returns (shape key, parcost float)."""
    caches = OptimizerCaches() if fast_path else None
    objective = ParcostObjective(schema.catalog, caches=caches)
    stats = caches.stats if caches is not None else None
    plan = enumerate_space(
        schema.query, schema.catalog, objective, space=space, stats=stats
    )
    return plan_shape_key(plan), parcost(plan, schema.catalog)


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
    """One ``LEFT_DEEP_SEQ`` search; returns (shape key, seqcost hex)."""
    plan = optimizer.choose_plan(query, OptimizerMode.LEFT_DEEP_SEQ)
    # A fresh, cache-free estimate: the frozen float is the plan's own
    # cost, whatever memo the optimizer under test consulted.
    cost = estimate_plan(plan, optimizer.catalog, machine=optimizer.machine)
    return plan_shape_key(plan), cost.seqcost().hex()


def build_corpus():
    """All golden plans from the reference (uncached) search."""
    corpus = {}
    for label, factory in SERVED_SCHEMAS:
        schema = factory()
        reference = TwoPhaseOptimizer(schema.catalog, fast_path=False)
        for key, query in served_queries(label, schema):
            shape, cost = choose_served(reference, query)
            corpus[key] = {"shape": shape, "seqcost": cost}
    for label, factory in WORKLOADS:
        schema = factory()
        for space in SPACES:
            shape, cost = choose(schema, space, fast_path=False)
            corpus[f"{label}/{space}"] = {
                "shape": shape,
                "parcost": cost.hex(),
            }
    return corpus


def main():
    """Regenerate the corpus file from the current reference search."""
    CORPUS_PATH.parent.mkdir(parents=True, exist_ok=True)
    corpus = build_corpus()
    CORPUS_PATH.write_text(json.dumps(corpus, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(corpus)} golden plans to {CORPUS_PATH}")


if __name__ == "__main__":
    main()
