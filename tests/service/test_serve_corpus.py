"""Replay the frozen serve-digest corpus on the admission gate.

The corpus (see ``corpus_tools.py``) pins twelve serving runs as
``float.hex``-exact digests and 288 more gate configurations as the
sha256 of theirs, all generated from the seed-era reference gate
before it was deleted.  The incremental gate — the only one left —
must keep reproducing them byte for byte.  Its ``records`` block pins,
for the same 300 labels, what the digest leaves out: decide rounds,
tenant counters, the breaker timeline, the metrics registry, the
gate's trace events and the cancel/shed records.
"""

import json

import pytest

from .corpus_tools import (
    CORPUS_PATH,
    STATUSES,
    all_cells,
    corpus_case,
    corpus_record,
    extra_cells,
    summarize,
)

#: Every replayed cell, ``test id -> corpus_case keyword arguments``.
REPLAY = all_cells()


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


@pytest.fixture(scope="module")
def records(document):
    return {row["record"]: row["sha256"] for row in document["records"]}


def test_corpus_covers_the_full_grid(corpus, cells, records):
    assert set(cells) == set(extra_cells())
    assert set(corpus) == set(REPLAY) - set(cells)
    assert list(records) == list(REPLAY)


@pytest.mark.parametrize("label", REPLAY)
def test_fast_path_matches_frozen_digest(corpus, cells, label):
    digest = corpus_case(**REPLAY[label])
    if label in cells:
        assert summarize(digest) == cells[label]
    else:
        assert digest == corpus[label]


@pytest.mark.parametrize("label", REPLAY)
def test_traced_run_matches_frozen_record(records, label):
    assert corpus_record(**REPLAY[label]) == records[label]


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
