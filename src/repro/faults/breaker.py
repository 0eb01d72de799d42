"""A circuit breaker for the admission gate.

Classic three-state machine driven by simulated time:

* **closed** — submissions flow; consecutive shed events are counted,
  and reaching ``failure_threshold`` opens the breaker.
* **open** — every offer is rejected immediately (no queueing work,
  no retry churn against a saturated service) until ``cooldown``
  seconds pass.
* **half-open** — one probe submission is let through; success closes
  the breaker, failure re-opens it for another cooldown.

Beyond the reactive failure count, the breaker *proactively* opens
under sustained degradation: :meth:`observe_bandwidth` is fed the
measured-to-nominal bandwidth ratio each gate round, and a ratio below
``degraded_fraction`` lasting ``degraded_grace`` seconds trips it —
shedding load before the queues overflow, which is exactly when a
degraded machine needs relief.  Every transition is appended to
:attr:`timeline`, the breaker-state series the robustness metrics
report.
"""

from __future__ import annotations

from ..errors import FaultError

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"


class CircuitBreaker:
    """Admission-gate circuit breaker (see the module docstring).

    Args:
        failure_threshold: consecutive failures that open the breaker.
        cooldown: seconds the breaker stays open before half-opening.
        degraded_fraction: measured/nominal bandwidth ratio below which
            the machine counts as degraded.
        degraded_grace: seconds of sustained degradation that trip the
            breaker proactively.
        tracer: a :class:`~repro.obs.Tracer`; every state transition is
            additionally emitted as an instant on the ``breaker`` track.
            ``None`` records nothing.  The :attr:`timeline` attribute is
            kept either way, so existing consumers are unaffected.
    """

    def __init__(
        self,
        *,
        failure_threshold: int = 4,
        cooldown: float = 30.0,
        degraded_fraction: float = 0.6,
        degraded_grace: float = 15.0,
        tracer=None,
    ) -> None:
        if failure_threshold < 1:
            raise FaultError("failure_threshold must be >= 1")
        if cooldown <= 0:
            raise FaultError("cooldown must be positive")
        if not 0.0 < degraded_fraction <= 1.0:
            raise FaultError("degraded_fraction must be in (0, 1]")
        if degraded_grace < 0:
            raise FaultError("degraded_grace must be >= 0")
        self.failure_threshold = failure_threshold
        self.cooldown = cooldown
        self.degraded_fraction = degraded_fraction
        self.degraded_grace = degraded_grace
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
        self._degraded_since: float | None = None

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
            if now - self._opened_at < self.cooldown:
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
        if self._failures >= self.failure_threshold:
            self._open(now)

    def observe_bandwidth(self, now: float, fraction: float) -> None:
        """Feed the measured/nominal bandwidth ratio; trip if sustained low."""
        if fraction >= self.degraded_fraction:
            self._degraded_since = None
            return
        if self._degraded_since is None:
            self._degraded_since = now
            return
        if (
            self.state == CLOSED
            and now - self._degraded_since >= self.degraded_grace
        ):
            self._open(now)
