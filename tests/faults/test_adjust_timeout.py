"""The adjustment-round timeout, pinned directly.

A page-scan adjustment whose first protocol leg is dropped hangs until
the master's deadline fires: the round aborts exactly
:data:`~repro.sim.micro.ADJUST_TIMEOUT` after it began, and the fault
log counts one timeout resolved by one abort.
"""

from dataclasses import replace

from repro.config import paper_machine
from repro.core import Adjust, SchedulingPolicy, Start
from repro.faults import FaultSchedule, MessageFault
from repro.obs import Tracer
from repro.sim.micro import ADJUST_TIMEOUT, MicroSimulator, spec_for_io_rate

MACHINE = paper_machine()


class _GrowOnce(SchedulingPolicy):
    """Start the scan at 2 slaves; at the first tick past 1 s, ask for 6."""

    name = "grow-once"

    def __init__(self):
        self.round_started_at = None

    def reset(self):
        self.round_started_at = None

    def decide(self, state):
        if state.pending and not state.running:
            return [Start(state.pending[0], 2)]
        if state.running and self.round_started_at is None and state.now >= 1.0:
            self.round_started_at = state.now
            return [Adjust(state.running[0].task, 6)]
        return []


def test_a_hung_page_round_aborts_after_the_timeout():
    spec = spec_for_io_rate("t", MACHINE, io_rate=10.0, n_pages=600)
    policy = _GrowOnce()
    tracer = Tracer()
    result = MicroSimulator(
        MACHINE,
        consult_interval=0.25,
        # The first protocol leg sent: the signal that opens the round.
        faults=FaultSchedule((MessageFault(at=0.0, kind="drop"),)),
        tracer=tracer,
    ).run([spec], policy)

    aborts = [e for e in tracer.events if e.name == "adjust:abort"]
    assert len(aborts) == 1
    assert policy.round_started_at is not None
    assert aborts[0].start == policy.round_started_at + ADJUST_TIMEOUT
    assert aborts[0].args == {"timeout": ADJUST_TIMEOUT}
    log = result.fault_log
    assert log.messages_dropped == 1
    assert log.adjust_timeouts == log.adjust_aborts == 1
    assert result.io_served == 600  # the aborted round lost no page


def test_a_healthy_round_slower_than_the_timeout_aborts_the_same_way():
    """The timer is armed on every run: with legs slower than a third
    of the timeout a round cannot finish in time, injector or not."""
    machine = replace(MACHINE, signal_latency=0.2)
    spec = spec_for_io_rate("t", machine, io_rate=10.0, n_pages=600)
    policy = _GrowOnce()
    tracer = Tracer()
    result = MicroSimulator(
        machine, consult_interval=0.25, tracer=tracer
    ).run([spec], policy)

    aborts = [e for e in tracer.events if e.name == "adjust:abort"]
    assert len(aborts) == 1
    assert aborts[0].start == policy.round_started_at + ADJUST_TIMEOUT
    assert result.fault_log is None
    assert result.adjustments == 1
    assert result.io_served == 600
