"""Replay the frozen serve-digest corpus on both gate implementations.

The corpus (see ``corpus_tools.py``) pins twelve serving runs as
``float.hex``-exact digests and 288 more gate configurations as the
sha256 of theirs.  Both arms must reproduce them: the reference arm
anchors against its own frozen history, and the fast path proves
byte-identical behaviour to the reference — together the
behaviour-identity guarantee the servebench speedups stand on.
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


@pytest.fixture(scope="module")
def document():
    with CORPUS_PATH.open() as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def corpus(document):
    return {
        (case["seed"], case["admission"], case["deadline_policy"]): case[
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
    assert set(corpus) == set(corpus_cells())
    assert set(cells) == set(extra_cells())


@pytest.mark.parametrize("seed,admission,deadline_policy", corpus_cells())
def test_reference_gate_matches_frozen_digest(
    corpus, seed, admission, deadline_policy
):
    digest = corpus_case(seed, admission, deadline_policy, fast_path=False)
    assert digest == corpus[(seed, admission, deadline_policy)]


@pytest.mark.parametrize("seed,admission,deadline_policy", corpus_cells())
def test_fast_path_matches_frozen_digest(
    corpus, seed, admission, deadline_policy
):
    digest = corpus_case(seed, admission, deadline_policy, fast_path=True)
    assert digest == corpus[(seed, admission, deadline_policy)]


@pytest.mark.parametrize("fast_path", (False, True), ids=("reference", "fast"))
@pytest.mark.parametrize("label", extra_cells())
def test_gate_matches_frozen_cell(cells, label, fast_path):
    digest = corpus_case(**extra_cells()[label], fast_path=fast_path)
    assert summarize(digest) == cells[label]


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
