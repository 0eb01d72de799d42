"""Replay the frozen serve-digest corpus on the admission gate.

The incremental gate — the only one left — must reproduce every block
that ``corpus_tools`` describes byte for byte.
"""

import pytest

from tests.corpus import corpora, sha

from .corpus_tools import CASES, EXTRA, STATUSES, corpus_case, corpus_record, summarize

#: Every replayed cell, ``test id -> corpus_case keyword arguments``.
REPLAY = CASES | EXTRA


@pytest.fixture(scope="module")
def frozen():
    return corpora()["serve"].load()


@pytest.mark.parametrize("label", REPLAY)
def test_fast_path_matches_frozen_digest(frozen, label):
    digest = corpus_case(**REPLAY[label])
    if label in EXTRA:
        assert summarize(digest) == frozen["cells"][label]
    else:
        assert digest == frozen["cases"][label]


@pytest.mark.parametrize("label", REPLAY)
def test_traced_run_matches_frozen_record(frozen, label):
    assert sha(corpus_record(**REPLAY[label])) == frozen["records"][label]


def test_corpus_exercises_every_outcome_kind(frozen):
    # The grid is only a meaningful anchor if the mechanisms it is
    # meant to pin actually fire somewhere in it.
    statuses = {
        row[2]
        for digest in frozen["cases"].values()
        for row in digest
        if isinstance(row, list)
    }
    assert {"completed", "rejected", "deadline"} <= statuses
    for status in STATUSES:
        assert any(cell["counts"][status] for cell in frozen["cells"].values())
