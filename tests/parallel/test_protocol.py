"""Tests for the master/slave wire protocol types."""

import pickle

from repro.parallel import PageAssignment
from repro.parallel import protocol as msg


class TestMessages:
    def test_all_messages_picklable(self):
        messages = [
            msg.Signal(),
            msg.NewPageAssignment(
                10, 3, (PageAssignment(0, 9, 3, 0),), generation=2
            ),
            msg.NewIntervals(2, ((0, 5), (9, 12)), generation=1),
            msg.Shutdown(),
            msg.CurPage(1, 42),
            msg.RemainingIntervals(0, ((3, 7),)),
            msg.Rows(2, ((1, "x"),), pages_read=4),
            msg.SlaveDone(1, 100, 40, generation=3),
            msg.SlaveError(0, "trace"),
        ]
        for message in messages:
            assert pickle.loads(pickle.dumps(message)) == message

    def test_generation_defaults_to_zero(self):
        done = msg.SlaveDone(0, 10, 5)
        assert done.generation == 0
