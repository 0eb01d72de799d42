"""What a relation build produces, pinned byte for byte.

Every relation the workload builders make is hashed three ways: its
page images (each page's ``SlottedPage.buffer``, in page order),
the ``repr`` of the ``RelationStats`` ANALYZE stored for it, and the
``(key, rid)`` order of its load-time index.  The pins cover the
optimizer schemas ``optimize_bushy`` builds, the two ``serve_queries``
schemas and ``r_min`` / ``r_max``, each at seeds 0 and 1.  A slip in
the order keys are drawn, rows are laid out or statistics are summed
shows here, per relation, before it shows as a plan digest.

The pins are the ``build`` corpus of ``tests/corpus.py``; regenerate
(only when a build change is *intended* and reviewed) with
``PYTHONPATH=src python -m tests.corpus build``.
"""

from __future__ import annotations

from functools import partial

import numpy as np
import pytest

from repro.catalog import Catalog
from repro.config import paper_machine
from repro.storage import DiskArray
from repro.workloads import build_r_max, build_r_min, chain_join, star_join

from tests.corpus import corpora, sha

SEEDS = (0, 1)


def _star(d: int):
    return lambda seed: star_join(d, fact_rows=400, dimension_rows=80, seed=seed)


def _chain(n: int):
    return lambda seed: chain_join(n, rows_per_relation=300, seed=seed)


def _r(build):
    def make(seed):
        catalog = Catalog()
        build(catalog, DiskArray(paper_machine()), seed=seed)
        return catalog

    return make


#: label -> seed -> a Catalog or a JoinSchema.
BUILDS = {
    "star3": _star(3),
    "star5": _star(5),
    "star7": _star(7),
    "chain4": _chain(4),
    "chain6": _chain(6),
    "chain8": _chain(8),
    "serve_wide": lambda seed: star_join(6, payload=2000, seed=seed),
    "serve_narrow": lambda seed: chain_join(
        7, payload=40, key_range=400, seed=seed + 1
    ),
    "r_min": _r(build_r_min),
    "r_max": _r(build_r_max),
}


def relation_pins(catalog: Catalog) -> dict:
    """Per relation: page-image, statistics and index-order hashes.

    The catalog's final ``stats_epoch`` rides along: it counts the
    create / index / ANALYZE calls the build made.
    """
    pins = {}
    for entry in catalog.tables():
        heap = entry.heap
        pages = b"".join(heap.page(p).buffer for p in range(heap.page_count))
        indexes = {
            label: sha(repr(list(ix.index.range_scan())).encode())
            for label, ix in sorted(entry.indexes.items())
        }
        pins[entry.name] = {
            "pages": heap.page_count,
            "page_bytes": sha(pages),
            "stats": sha(repr(entry.stats).encode()),
            "indexes": indexes,
        }
    return {"stats_epoch": catalog.stats_epoch, "relations": pins}


def build_pins(label: str, seed: int) -> dict:
    built = BUILDS[label](seed)
    return relation_pins(getattr(built, "catalog", built))


def pin_cells() -> dict:
    """``<build>/seed<n>`` -> zero-argument :func:`build_pins` builder."""
    return {
        f"{label}/seed{seed}": partial(build_pins, label, seed)
        for label in sorted(BUILDS)
        for seed in SEEDS
    }


@pytest.fixture(scope="module")
def frozen():
    return corpora()["build"].read()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("label", sorted(BUILDS))
def test_build_matches_frozen_pins(frozen, label, seed):
    assert build_pins(label, seed) == frozen[f"{label}/seed{seed}"]


@pytest.mark.parametrize("key_range", [80, 100, 120, 400])
def test_one_draw_equals_a_draw_per_key(key_range):
    # What lets a builder draw a relation's keys in one call: the same
    # values in the same order, and the generator left in the same state
    # for the relations drawn after it.
    one, per_key = np.random.default_rng(3), np.random.default_rng(3)
    drawn = one.integers(0, key_range, size=(500, 3)).tolist()
    scalar = [
        [int(per_key.integers(0, key_range)) for __ in range(3)] for __ in range(500)
    ]
    assert drawn == scalar
    assert one.bit_generator.state == per_key.bit_generator.state
