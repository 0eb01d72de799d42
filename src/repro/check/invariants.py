"""Runtime invariant checker for both execution engines.

The engines accept an ``invariants=`` argument (default ``None``) and
call back into it only from *cold* sites — task start, adjustment
apply, task completion, end of run for the micro engine; once per
event for the fluid engine, whose events are coarse.  With the checker
off every hook is a single ``is not None`` test, following the same
zero-cost-when-off idiom as the tracer, so corpus byte-identity and
the perf benches are untouched.

Invariant catalogue (see docs/CHECKING.md for the derivations):

* **page conservation** — across any number of adjustment rounds,
  crashes and resumes, ``pages_done + inflight + unclaimed ==
  n_pages`` and no page (or key) is claimable by two slaves.
* **virtual-clock monotonicity** — the engine clock never runs
  backwards between hook sites.
* **queue non-negativity** — ``0 <= free_processors <= N``.
* **parallelism bounds** — every running degree satisfies
  ``1 <= x <= N`` and ``x <= maxp`` (pattern-aware bandwidth wall,
  with half-a-processor slack for the micro engine's integral
  rounding).
* **processor allocation** — every fluid interval ran ``sum(x) <= N``,
  which bounds a fluid run's CPU utilization too.
* **utilization** — IO (and micro CPU) utilization of a finished run
  is ``<= 1 + 1e-6``.
* **protocol-generation monotonicity** — a run's ``adjust_epoch``
  only ever grows.

The checker holds one run's state; the micro engine calls
:meth:`new_run` when built, so one checker spans ``run_with_recovery``.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain

from ..core.classify import max_parallelism
from ..errors import InvariantViolation

_ABS_EPS = 1e-9
#: Relative slack on utilization and bounds checks.
_REL_EPS = 1e-6


class InvariantChecker:
    """Collects or raises invariant violations from engine hook sites.

    Args:
        collect: record violations in :attr:`violations` instead of
            raising :class:`~repro.errors.InvariantViolation` at the
            first one (the fuzzer collects; tests usually raise).
    """

    def __init__(self, *, collect: bool = False) -> None:
        self.collect = collect
        self.violations: list[str] = []
        self.checks = 0
        self._last_clock = float("-inf")
        self._last_epoch: dict[int, int] = {}

    def reset(self) -> None:
        """Clear violations, counters and all per-run state."""
        self.violations.clear()
        self.checks = 0
        self.new_run()

    def new_run(self) -> None:
        """Forget per-run state (clock, epochs) but keep violations.  The
        micro engine calls it when it is built."""
        self._last_clock = float("-inf")
        self._last_epoch.clear()

    @property
    def ok(self) -> bool:
        return not self.violations

    def _fail(self, site: str, detail: str) -> None:
        if self.collect:
            self.violations.append(f"[{site}] {detail}")
            return
        raise InvariantViolation(site, detail)

    def _clock(self, site: str, now: float) -> None:
        if now < self._last_clock - _ABS_EPS:
            self._fail(
                site,
                f"clock went backwards: {now!r} after {self._last_clock!r}",
            )
        self._last_clock = max(self._last_clock, now)

    # -- micro engine ---------------------------------------------------------

    def micro_site(self, engine, run, site: str) -> None:
        """Hook for the micro engine's cold sites.

        ``engine`` is a ``_MicroEngine`` and ``run`` the ``_TaskRun``
        the site acted on (``None`` for engine-wide sites); both are
        duck-typed so this module imports nothing from ``repro.sim``.
        """
        self.checks += 1
        label = f"micro:{site}"
        self._clock(label, engine.clock)
        machine = engine.machine
        n = machine.processors
        free = engine.free_processors
        if not 0 <= free <= n:
            self._fail(label, f"free_processors={free} outside [0, {n}]")
        for other in engine.runs.values():
            self._check_parallelism(
                label, other, machine, integral_slack=0.5
            )
        if run is not None:
            epoch = run.adjust_epoch
            last = self._last_epoch.get(run.task.task_id, -1)
            if epoch < last:
                self._fail(
                    label,
                    f"{run.task.name}: adjust_epoch regressed {last} -> {epoch}",
                )
            self._last_epoch[run.task.task_id] = max(last, epoch)
            if not run.adjusting:
                self._check_conservation(label, run)

    def micro_end(self, engine, result) -> None:
        """Hook at the end of a micro run, with its ScheduleResult."""
        self.checks += 1
        label = "micro:end"
        if result.cpu_utilization > 1.0 + _REL_EPS:
            self._fail(
                label, f"cpu_utilization={result.cpu_utilization!r} > 1"
            )
        if result.io_utilization > 1.0 + _REL_EPS:
            self._fail(label, f"io_utilization={result.io_utilization!r} > 1")
        elapsed = result.elapsed
        for disk in engine.disks:
            if disk.busy_time > elapsed * (1.0 + _REL_EPS) + _ABS_EPS:
                self._fail(
                    label,
                    f"disk {disk.disk_id} busy {disk.busy_time!r}s in an "
                    f"{elapsed!r}s run",
                )

    def _check_parallelism(
        self, label: str, run, machine, *, integral_slack: float
    ) -> None:
        x = run.parallelism
        n = machine.processors
        if not 1.0 - _REL_EPS <= x <= n + _REL_EPS:
            self._fail(
                label, f"{run.task.name}: parallelism {x!r} outside [1, {n}]"
            )
        task = run.task
        if task.io_rate > 0:
            # The pattern-aware bandwidth wall.  The micro engine rounds
            # continuous degrees to integers, so allow half a processor
            # of rounding slack.
            maxp = max_parallelism(task, machine)
            if x > maxp * (1.0 + _REL_EPS) + integral_slack:
                self._fail(
                    label,
                    f"{task.name}: parallelism {x!r} exceeds maxp {maxp!r}",
                )

    def _check_conservation(self, label: str, run) -> None:
        """pages_done + inflight + unclaimed == n_pages, no double claim;
        claims are ``range``s, so a double claim makes their union short."""
        name = run.task.name
        n_pages = run.spec.n_pages
        inflight: list[int] = []
        spans: list[range] = []
        for slave in sorted(run.slaves.values(), key=lambda s: s.slave_id):
            if slave.crashed:
                continue
            if slave.busy and slave.inflight_page is not None:
                inflight.append(slave.inflight_page)
            if run.page_mode:
                pos = slave.cursor
                for seg in slave.segments:
                    page = seg.first_at_or_after(pos)
                    if page is not None:
                        span = range(page, seg.hi + 1, seg.stride)
                        spans.append(span)
                        pos = span[-1] + 1
            else:
                spans += [range(lo, hi + 1) for lo, hi in slave.intervals]
        for intervals in (getattr(run, "harvest", None) or {}).values():
            spans += [range(lo, hi + 1) for lo, hi in intervals]
        claims = set().union(*spans)
        if len(claims) != sum(map(len, spans)):
            counts = Counter(chain.from_iterable(spans))
            doubled = sorted(p for p, c in counts.items() if c > 1)
            self._fail(
                label,
                f"{name}: pages claimable by two slaves: {doubled[:8]}",
            )
        overlap = sorted(claims.intersection(inflight))
        if overlap:
            self._fail(
                label,
                f"{name}: in-flight pages still claimable: {overlap[:8]}",
            )
        if len(inflight) != len(set(inflight)):
            self._fail(label, f"{name}: page in flight twice: {inflight}")
        total = run.pages_done + len(inflight) + len(claims)
        if total != n_pages:
            self._fail(
                label,
                f"{name}: page conservation violated — done={run.pages_done} "
                f"inflight={len(inflight)} unclaimed={len(claims)} "
                f"!= n_pages={n_pages}",
            )

    # -- fluid engine ---------------------------------------------------------

    def fluid_event(self, state, *, machine, rates) -> None:
        """Hook after each fluid event's advance+settle.  ``rates`` is the
        solve the interval ran on, ``(run, rate, ...)`` per task: a task
        that completed at its end is no longer in the settled set."""
        self.checks += 1
        label = "fluid:event"
        self._clock(label, state.clock)
        n = machine.processors
        allocated = sum(run.parallelism for run, *__ in rates)
        if allocated > n * (1.0 + _REL_EPS):
            seats = ", ".join(f"{r.task.name}={r.parallelism!r}" for r, *__ in rates)
            self._fail(label, f"{allocated!r} processors ran on {n}: {seats}")
        for run in state.running:
            self._check_parallelism(label, run, machine, integral_slack=0.0)
            if run.remaining < -1e-6:
                self._fail(
                    label,
                    f"{run.task.name}: remaining work {run.remaining!r} < 0",
                )

    def fluid_end(self, result) -> None:
        """Hook at the end of a fluid run, with its ScheduleResult."""
        self.checks += 1
        label = "fluid:end"
        if result.io_utilization > 1.0 + _REL_EPS:
            self._fail(label, f"io_utilization={result.io_utilization!r} > 1")
