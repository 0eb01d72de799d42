"""The corpus library: registry, layouts and the regenerate command.

The replays (``tests/*/test_*corpus.py``, ``test_build_pins.py``) check
each cell's value; these check that the files hold exactly the
registered cells, that the library writes them byte for byte, and that
a regeneration reports every label it changes.
"""

import json
from dataclasses import replace

import pytest

from tests.corpus import corpora, regenerate

NAMES = tuple(corpora())


@pytest.mark.parametrize("name", NAMES)
def test_frozen_labels_are_the_registered_labels(name):
    corpus = corpora()[name]
    frozen = corpus.load()
    assert None not in frozen, f"unregistered labels: {sorted(frozen[None])}"
    for block in corpus.blocks:
        registered = list(block.cells())
        assert list(frozen[block.name]) == registered, block.name
        assert len(registered) == block.size, block.name


@pytest.mark.parametrize("name", NAMES)
def test_layout_round_trips_the_committed_bytes(name):
    corpus = corpora()[name]
    assert corpus.render(corpus.load()).encode() == corpus.path.read_bytes()


def test_regenerate_reports_each_moved_added_and_removed_label(tmp_path):
    committed = corpora()["build"]
    (block,) = committed.blocks
    stars = {
        label: build
        for label, build in block.cells().items()
        if label.startswith("star")
    }
    corpus = replace(
        committed,
        path=tmp_path / committed.path.name,
        blocks=(replace(block, size=len(stars), cells=lambda: stars),),
    )
    document = {label: committed.read()[label] for label in stars}
    expected = dict(document)
    document["star3/seed0"] = dict(document["star3/seed0"], stats_epoch=-1)
    del document["star5/seed1"]
    document["star9/seed0"] = document["star7/seed0"]
    corpus.path.write_text(json.dumps(document))

    changes = [(change, label) for change, __, label in regenerate(corpus)]
    assert sorted(changes) == [
        ("added", "star5/seed1"),
        ("moved", "star3/seed0"),
        ("removed", "star9/seed0"),
    ]
    assert corpus.read() == expected
    assert regenerate(corpus) == []
