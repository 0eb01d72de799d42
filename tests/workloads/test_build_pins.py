"""What a relation build produces, pinned byte for byte.

Every relation the workload builders make is hashed three ways: its
page images (``SlottedPage.to_bytes()`` of every page, in page order),
the ``repr`` of the ``RelationStats`` ANALYZE stored for it, and the
``(key, rid)`` order of its load-time index.  The pins cover the
optimizer schemas ``optimize_bushy`` builds, the two ``serve_queries``
schemas and ``r_min`` / ``r_max``, each at seeds 0 and 1.  A slip in
the order keys are drawn, rows are laid out or statistics are summed
shows here, per relation, before it shows as a plan digest.

Regenerate (only when a build change is *intended* and reviewed)::

    PYTHONPATH=src python -m tests.workloads.test_build_pins
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.catalog import Catalog
from repro.config import paper_machine
from repro.storage import DiskArray
from repro.workloads import build_r_max, build_r_min, chain_join, star_join

PINS_PATH = Path(__file__).with_name("data") / "build_pins.json"

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


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def relation_pins(catalog: Catalog) -> dict:
    """Per relation: page-image, statistics and index-order hashes.

    The catalog's final ``stats_epoch`` rides along: it counts the
    create / index / ANALYZE calls the build made.
    """
    pins = {}
    for entry in catalog.tables():
        heap = entry.heap
        pages = b"".join(heap.page(p).to_bytes() for p in range(heap.page_count))
        indexes = {
            label: _sha(repr(list(ix.index.range_scan())).encode())
            for label, ix in sorted(entry.indexes.items())
        }
        pins[entry.name] = {
            "pages": heap.page_count,
            "page_bytes": _sha(pages),
            "stats": _sha(repr(entry.stats).encode()),
            "indexes": indexes,
        }
    return {"stats_epoch": catalog.stats_epoch, "relations": pins}


def build_pins(label: str, seed: int) -> dict:
    built = BUILDS[label](seed)
    return relation_pins(getattr(built, "catalog", built))


def _frozen() -> dict:
    return json.loads(PINS_PATH.read_text())


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("label", sorted(BUILDS))
def test_build_matches_frozen_pins(label, seed):
    assert build_pins(label, seed) == _frozen()[f"{label}/seed{seed}"]


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


def test_pins_cover_every_build():
    assert sorted(_frozen()) == sorted(f"{l}/seed{s}" for l in BUILDS for s in SEEDS)


def regenerate() -> None:
    cells = {f"{l}/seed{s}": build_pins(l, s) for l in sorted(BUILDS) for s in SEEDS}
    PINS_PATH.parent.mkdir(exist_ok=True)
    PINS_PATH.write_text(json.dumps(cells, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    regenerate()
