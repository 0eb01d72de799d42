"""Replay the frozen serve-digest corpus on the admission gate.

The corpus (see ``corpus_tools.py``) pins twelve serving runs as
``float.hex``-exact digests and 288 more gate configurations as the
sha256 of theirs, all generated from the seed-era reference gate
before it was deleted.  The incremental gate — the only one left —
must keep reproducing them byte for byte.
"""

import json

import pytest

from .corpus_tools import (
    CORPUS_PATH,
    STATUSES,
    corpus_case,
    corpus_cells,
    extra_cells,
    summarize,
)

#: Every replayed cell, ``test id -> corpus_case keyword arguments``.
REPLAY = {
    f"{seed}-{admission}-{policy}": dict(
        seed=seed, admission=admission, deadline_policy=policy
    )
    for seed, admission, policy in corpus_cells()
} | extra_cells()


@pytest.fixture(scope="module")
def document():
    with CORPUS_PATH.open() as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def corpus(document):
    return {
        f"{case['seed']}-{case['admission']}-{case['deadline_policy']}": case[
            "digest"
        ]
        for case in document["cases"]
    }


@pytest.fixture(scope="module")
def cells(document):
    return {
        cell["cell"]: {"sha256": cell["sha256"], "counts": cell["counts"]}
        for cell in document["cells"]
    }


def test_corpus_covers_the_full_grid(corpus, cells):
    assert set(cells) == set(extra_cells())
    assert set(corpus) == set(REPLAY) - set(cells)


@pytest.mark.parametrize("label", REPLAY)
def test_fast_path_matches_frozen_digest(corpus, cells, label):
    digest = corpus_case(**REPLAY[label])
    if label in cells:
        assert summarize(digest) == cells[label]
    else:
        assert digest == corpus[label]


def test_corpus_exercises_every_outcome_kind(corpus, cells):
    # The grid is only a meaningful anchor if the mechanisms it is
    # meant to pin actually fire somewhere in it.
    statuses = {
        row[2]
        for digest in corpus.values()
        for row in digest
        if isinstance(row, list)
    }
    assert {"completed", "rejected", "deadline"} <= statuses
    for status in STATUSES:
        assert any(cell["counts"][status] for cell in cells.values())
