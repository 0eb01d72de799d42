"""A circuit breaker for the admission gate.

Classic three-state machine driven by simulated time:

* **closed** — submissions flow; consecutive shed events are counted,
  and reaching :data:`FAILURE_THRESHOLD` opens the breaker.
* **open** — every offer is rejected immediately (no queueing work,
  no retry churn against a saturated service) until :data:`COOLDOWN`
  seconds pass.
* **half-open** — one probe submission is let through; success closes
  the breaker, failure re-opens it for another cooldown.

Every transition is appended to :attr:`CircuitBreaker.timeline`, the
breaker-state series the robustness metrics report.
"""

from __future__ import annotations

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"

#: Consecutive failures that open the breaker.
FAILURE_THRESHOLD = 4
#: Seconds the breaker stays open before half-opening.
COOLDOWN = 30.0


class CircuitBreaker:
    """Admission-gate circuit breaker (see the module docstring).

    Args:
        tracer: a :class:`~repro.obs.Tracer`; every state transition is
            additionally emitted as an instant on the ``breaker`` track.
            ``None`` records nothing.  The :attr:`timeline` attribute is
            kept either way, so existing consumers are unaffected.
    """

    def __init__(self, *, tracer=None) -> None:
        self.tracer = tracer
        self.reset()

    def reset(self) -> None:
        """Return to a fresh closed breaker with an empty timeline."""
        self.state = CLOSED
        self.timeline: list[tuple[float, str]] = [(0.0, CLOSED)]
        self.open_rejections = 0
        self._failures = 0
        self._opened_at = 0.0
        self._probe_inflight = False

    # -- transitions --------------------------------------------------------------

    def _transition(self, now: float, state: str) -> None:
        if state != self.state:
            self.state = state
            self.timeline.append((now, state))
            if self.tracer is not None:
                self.tracer.instant(
                    f"breaker {state}",
                    t=now,
                    track="breaker",
                    cat="fault",
                )

    def _open(self, now: float) -> None:
        self._transition(now, OPEN)
        self._opened_at = now
        self._failures = 0
        self._probe_inflight = False

    # -- gate interface -----------------------------------------------------------

    def allow(self, now: float) -> bool:
        """May a submission be offered right now?

        In the open state, returns ``False`` until the cooldown ends,
        then half-opens and admits exactly one probe at a time.
        """
        if self.state == CLOSED:
            return True
        if self.state == OPEN:
            if now - self._opened_at < COOLDOWN:
                self.open_rejections += 1
                return False
            self._transition(now, HALF_OPEN)
        # Half-open: one probe in flight at a time.
        if self._probe_inflight:
            self.open_rejections += 1
            return False
        self._probe_inflight = True
        return True

    def record_success(self, now: float) -> None:
        """An offered submission was accepted by the queues."""
        self._failures = 0
        if self.state == HALF_OPEN:
            self._probe_inflight = False
            self._transition(now, CLOSED)

    def record_failure(self, now: float) -> None:
        """An offered submission was shed (queue full)."""
        if self.state == HALF_OPEN:
            self._open(now)
            return
        self._failures += 1
        if self._failures >= FAILURE_THRESHOLD:
            self._open(now)
