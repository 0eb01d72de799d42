"""Admission control: which waiting query enters the scheduler next.

The controller bounds the number of *in-flight fragments* (admitted but
not yet completed tasks) and, when a slot frees up, picks the next
submission from the waiting queues.  Two policies:

* **FIFO** — admit in global arrival order; the control arm.
* **BALANCE** — the paper's Section-2.2 IO/CPU classification applied
  at admission time: classify the work already in flight and admit the
  waiting submission whose task mix best *complements* it — the most
  IO-bound waiting query when the machine is CPU-saturated, the most
  CPU-bound one when it is disk-saturated.
  This keeps the scheduler's two queues (``S_io``/``S_cpu``) populated
  so INTER-WITH-ADJ can always pair tasks at a balance point, which a
  FIFO gate cannot guarantee under bursty mixes.
"""

from __future__ import annotations

from ..config import MachineConfig
from ..core.classify import is_io_bound
from ..core.task import Task
from ..errors import ServiceError
from .queue import ServiceSubmission


class AdmissionPolicy:
    """Base class: picks the next submission to admit.

    ``head_window`` declares how many leading entries of ``waiting``
    the policy can ever pick from; every policy sets it, and the
    admission gate builds no candidate list deeper than that.
    """

    name = "abstract"
    head_window: int

    def select(
        self,
        waiting: list[ServiceSubmission],
        inflight: list[Task],
        machine: MachineConfig,
    ) -> ServiceSubmission | None:
        """Choose one waiting submission, or ``None`` to admit nothing.

        Args:
            waiting: waiting submissions in global FIFO order.
            inflight: admitted-but-not-completed tasks (running or
                visible to the scheduler).
            machine: the machine configuration (for the ``B/N``
                classification threshold).
        """
        raise NotImplementedError


class FifoAdmission(AdmissionPolicy):
    """Admit strictly in global arrival order (the control arm)."""

    name = "FIFO"
    head_window = 1

    def select(
        self,
        waiting: list[ServiceSubmission],
        inflight: list[Task],
        machine: MachineConfig,
    ) -> ServiceSubmission | None:
        """The head of the global FIFO order."""
        if not waiting:
            return None
        return waiting[0]


class BalanceAwareAdmission(AdmissionPolicy):
    """Admit the submission that best complements the in-flight mix.

    Every in-flight fragment is classified with the paper's Section-2.2
    rule (:func:`repro.core.classify.is_io_bound`: ``C_i > B/N``) and
    the two classes' in-flight sequential work is compared.  When the
    machine is CPU-saturated (more CPU-bound than IO-bound work in
    flight) the most IO-bound waiting submission is admitted, and vice
    versa — the admission-time analogue of the scheduler's
    most-IO-with-most-CPU pairing, keeping both of its queues
    (``S_io``/``S_cpu``) populated so a balance-point pair always
    exists.  With nothing in flight the head of the queue is taken, as
    FIFO would.

    Unbounded complement-seeking would starve whichever class the
    machine already has plenty of, trading tail latency for
    utilization, so the pick is limited to the ``head_window`` oldest
    waiting submissions — bounded unfairness: nobody is overtaken by
    more than ``head_window - 1`` younger submissions.  Ties (identical
    io rates) break on arrival order, keeping the policy deterministic.
    """

    name = "BALANCE"
    #: How many of the oldest waiting submissions compete (``1`` would
    #: degenerate to FIFO).
    head_window = 6

    def select(
        self,
        waiting: list[ServiceSubmission],
        inflight: list[Task],
        machine: MachineConfig,
    ) -> ServiceSubmission | None:
        """The windowed complement-seeking pick described on the class."""
        if not waiting:
            return None
        head = waiting[: self.head_window]
        io_load = sum(
            t.seq_time for t in inflight if is_io_bound(t, machine)
        )
        cpu_load = sum(
            t.seq_time for t in inflight if not is_io_bound(t, machine)
        )
        if io_load == cpu_load:
            # Empty or perfectly split in-flight mix: take the head.
            return head[0]
        if io_load < cpu_load:
            # CPU-saturated machine: feed it the most IO-bound query.
            best = max(
                enumerate(head),
                key=lambda iw: (iw[1].io_rate, -iw[0]),
            )
        else:
            # Disk-saturated machine: feed it the most CPU-bound query.
            best = min(
                enumerate(head),
                key=lambda iw: (iw[1].io_rate, iw[0]),
            )
        return best[1]


#: The admission policies by CLI name (``name`` lower-cased), in the
#: order ``serve --admission`` lists them.
ADMISSION_POLICIES: dict[str, type[AdmissionPolicy]] = {
    cls.name.lower(): cls for cls in (BalanceAwareAdmission, FifoAdmission)
}


def admission_by_name(name: str) -> AdmissionPolicy:
    """Construct an admission policy from its CLI name."""
    try:
        cls = ADMISSION_POLICIES[name.lower()]
    except KeyError:
        raise ServiceError(f"unknown admission policy: {name!r}") from None
    return cls()
