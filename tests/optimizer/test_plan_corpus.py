"""Golden-plan replay: the fast path chooses byte-identical plans.

The corpus freezes the reference optimizer's choices (plan shape plus
``parcost`` to ``float.hex`` exactness).  Every configuration is
replayed twice — fast path off and on — and both must reproduce the
frozen plan exactly.  A failure here means either the reference search
drifted (intended plan changes require a reviewed corpus regeneration,
see ``tests/corpus.py``) or the fast path's caching/pruning changed a
choice, which its safety argument says can never happen.

The ``served/…`` entries (left-deep/seqcost sub-queries of the serving
schemas) are replayed by four arms — a cold optimizer per query, one
warm optimizer, a warm optimizer fed the queries in a shuffled order,
and ``fast_path=False`` — because what one optimizer remembers from
earlier queries must never change what it answers for a later one.

The ``batch/…`` and ``explain/…`` entries replay the step after phase
1 — fragments become named, arrival-stamped, wired tasks and are
scheduled — through ``MultiQueryScheduler.run`` and
``XprsSystem.explain``, compared by task name and ``float.hex``.
"""

from __future__ import annotations

import random

import pytest

from repro.optimizer import TwoPhaseOptimizer
from tests.corpus import canon, corpora

from .corpus_tools import (
    BATCH_MODES,
    BATCH_POLICIES,
    BATCHES,
    EXPLAINED,
    SERVED_SCHEMAS,
    SPACES,
    WORKLOADS,
    choose,
    choose_served,
    explain_system,
    run_batch,
    run_explain,
    served_queries,
)

CORPUS = corpora()["plan"].read()

CONFIGS = [
    (label, factory, space)
    for label, factory in WORKLOADS
    for space in SPACES
]


@pytest.mark.parametrize(
    "label, factory, space",
    CONFIGS,
    ids=[f"{label}/{space}" for label, __, space in CONFIGS],
)
class TestGoldenPlans:
    def test_reference_path_matches_corpus(self, label, factory, space):
        assert canon(choose(factory, space)) == CORPUS[f"{label}/{space}"]

    def test_fast_path_matches_corpus(self, label, factory, space):
        golden = CORPUS[f"{label}/{space}"]
        assert canon(choose(factory, space, fast_path=True)) == golden


@pytest.mark.parametrize(
    "label, factory", SERVED_SCHEMAS, ids=[label for label, __ in SERVED_SCHEMAS]
)
class TestServedPlans:
    """The serving path's sub-queries, float.hex-exact on every arm."""

    @staticmethod
    def _replay(queries, optimizer_for):
        for key, query in queries:
            assert canon(choose_served(optimizer_for(), query)) == CORPUS[key], key

    def test_cold_optimizer_per_query(self, label, factory):
        schema = factory()
        self._replay(
            served_queries(label, schema),
            lambda: TwoPhaseOptimizer(schema.catalog),
        )

    def test_one_warm_optimizer(self, label, factory):
        schema = factory()
        warm = TwoPhaseOptimizer(schema.catalog)
        # Twice: the second round is answered by whatever the first left.
        for __ in range(2):
            self._replay(served_queries(label, schema), lambda: warm)

    @pytest.mark.parametrize("shuffle_seed", [0, 1, 2])
    def test_warm_optimizer_shuffled(self, label, factory, shuffle_seed):
        schema = factory()
        queries = list(served_queries(label, schema))
        random.Random(shuffle_seed).shuffle(queries)
        warm = TwoPhaseOptimizer(schema.catalog)
        self._replay(queries, lambda: warm)

    def test_reference_path(self, label, factory):
        schema = factory()
        reference = TwoPhaseOptimizer(schema.catalog, fast_path=False)
        self._replay(served_queries(label, schema), lambda: reference)


@pytest.mark.parametrize("label, factory", BATCHES, ids=[label for label, __ in BATCHES])
def test_batch_schedule_matches_corpus(label, factory):
    """Plan → named, stamped, wired tasks → pooled schedule, to the bit."""
    catalog, submissions = factory()
    for mode in BATCH_MODES:
        for policy_label, policy in BATCH_POLICIES:
            key = f"batch/{label}/{mode.name}/{policy_label}"
            batch = run_batch(catalog, submissions, mode, policy())
            assert canon(batch) == CORPUS[key], key


def test_explain_matches_corpus():
    system = explain_system()
    for label, sql in EXPLAINED:
        assert canon(run_explain(system, sql)) == CORPUS[f"explain/{label}"], label
