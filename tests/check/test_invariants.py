"""Tests for the runtime invariant checker and its engine hooks."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check import InvariantChecker
from repro.config import paper_machine
from repro.core import InterWithAdjPolicy, IntraOnlyPolicy, make_task
from repro.core.schedulers import SchedulingPolicy, Start
from repro.core.task import IOPattern
from repro.errors import InvariantViolation
from repro.faults import FaultSchedule, MasterCrash, random_schedule
from repro.faults.chaos import chaos_workload
from repro.parallel.partition import PageAssignment
from repro.recovery import RecoveryManager, run_with_recovery
from repro.sim.fluid import FluidSimulator
from repro.sim.micro import MicroSimulator, spec_for_io_rate
from repro.workloads.mixes import WorkloadKind, generate_tasks

MACHINE = paper_machine()


def specs():
    return [
        spec_for_io_rate("io", MACHINE, io_rate=45.0, n_pages=200),
        spec_for_io_rate("cpu", MACHINE, io_rate=10.0, n_pages=150),
        spec_for_io_rate(
            "rng", MACHINE, io_rate=25.0, n_pages=120, pattern=IOPattern.RANDOM
        ),
        spec_for_io_rate(
            "rangy", MACHINE, io_rate=30.0, n_pages=100, partitioning="range"
        ),
    ]


class TestEngineHooks:
    def test_micro_hooks_fire_and_stay_clean(self):
        inv = InvariantChecker()
        MicroSimulator(MACHINE, invariants=inv).run(
            specs(), InterWithAdjPolicy(integral=True)
        )
        assert inv.checks > 0
        assert inv.ok

    def test_fluid_hooks_fire_and_stay_clean(self):
        inv = InvariantChecker()
        tasks = [s.to_task(MACHINE) for s in specs()]
        FluidSimulator(MACHINE, invariants=inv).run(
            tasks, IntraOnlyPolicy(integral=True)
        )
        assert inv.checks > 0
        assert inv.ok

    def test_micro_hooks_survive_faults(self):
        # Crashes, stalls and aborted rounds must not break page
        # conservation or epoch monotonicity.
        inv = InvariantChecker(collect=True)
        schedule = random_schedule(
            3, task_names=tuple(s.name for s in specs())
        )
        MicroSimulator(MACHINE, faults=schedule, invariants=inv).run(
            specs(), InterWithAdjPolicy(integral=True)
        )
        assert inv.checks > 0
        assert inv.violations == []

    def test_off_by_default(self):
        sim = MicroSimulator(MACHINE)
        assert sim.invariants is None
        fluid = FluidSimulator(MACHINE)
        assert fluid.invariants is None


class TestPerSolveAllocation:
    """Every fluid interval's allocation holds at most N processors."""

    def test_an_over_allocation_ending_at_a_completion_is_reported(self):
        # Both tasks arrive after 5 s of idling, so ``cpu_busy <= N x
        # clock`` still holds when the pair's interval ends, and "short"
        # completes at its end: the settled running set ("long" at 7.5)
        # is within N.  Only the allocation that ran shows the 8.5.
        class Overbook(SchedulingPolicy):
            name = "overbook"

            def decide(self, state):
                degrees = {"long": 7.5, "short": 1.0}
                return [Start(t, degrees[t.name]) for t in state.pending]

        tasks = [
            make_task("long", io_rate=1.0, seq_time=70.0, arrival_time=5.0),
            make_task("short", io_rate=1.0, seq_time=1.0, arrival_time=5.0),
        ]
        inv = InvariantChecker(collect=True)
        FluidSimulator(MACHINE, invariants=inv).run(tasks, Overbook())
        assert len(inv.violations) == 1
        assert "8.5 processors ran on 8" in inv.violations[0]

    @pytest.mark.parametrize("seed", range(10))
    def test_the_continuous_figure7_grid_stays_within_n(self, seed):
        # The serving path's policy over the Figure-7 grid under a
        # raising checker: a per-degree clamp of a balance point with
        # x < 1 ran 1 + (N - x) > N here on RANDOM at seeds 1, 4 and 5.
        for kind in WorkloadKind:
            tasks = generate_tasks(kind, seed=seed, machine=MACHINE)
            FluidSimulator(MACHINE, invariants=InvariantChecker()).run(
                tasks, InterWithAdjPolicy()
            )


class _FakeTask:
    def __init__(self, name, io_rate=40.0):
        self.name = name
        self.task_id = 1
        self.io_rate = io_rate
        self.io_pattern = IOPattern.SEQUENTIAL


class _FakeRun:
    """Duck-typed stand-in for a fluid ``_Running`` entry."""

    def __init__(self, parallelism, remaining=1.0):
        self.task = _FakeTask("fake")
        self.parallelism = parallelism
        self.remaining = remaining


class _FakeState:
    def __init__(self, clock, running):
        self.clock = clock
        self.running = running


class TestViolationDetection:
    def test_clock_regression_raises(self):
        inv = InvariantChecker()
        inv.fluid_event(_FakeState(5.0, []), machine=MACHINE, rates=[])
        with pytest.raises(InvariantViolation, match="clock went backwards"):
            inv.fluid_event(_FakeState(4.0, []), machine=MACHINE, rates=[])

    def test_parallelism_above_processors_raises(self):
        inv = InvariantChecker()
        state = _FakeState(1.0, [_FakeRun(parallelism=9.0)])
        with pytest.raises(InvariantViolation, match="outside"):
            inv.fluid_event(state, machine=MACHINE, rates=[])

    def test_parallelism_above_maxp_raises(self):
        # io_rate 40 -> maxp = 240/40 = 6; degree 7 is infeasible.
        inv = InvariantChecker()
        state = _FakeState(1.0, [_FakeRun(parallelism=7.0)])
        with pytest.raises(InvariantViolation, match="exceeds maxp"):
            inv.fluid_event(state, machine=MACHINE, rates=[])

    def test_negative_remaining_raises(self):
        inv = InvariantChecker()
        state = _FakeState(1.0, [_FakeRun(parallelism=2.0, remaining=-0.5)])
        with pytest.raises(InvariantViolation, match="remaining"):
            inv.fluid_event(state, machine=MACHINE, rates=[])

    def test_cpu_oversubscription_raises(self):
        # The interval ran 4.5 + 4 processors on 8; the settled state
        # (no task left running) holds none.
        inv = InvariantChecker()
        rates = [(_FakeRun(4.5), 1.0), (_FakeRun(4.0), 1.0)]
        with pytest.raises(InvariantViolation, match="8.5 processors ran on 8"):
            inv.fluid_event(_FakeState(1.0, []), machine=MACHINE, rates=rates)

    def test_utilization_above_one_raises(self):
        class FakeResult:
            cpu_utilization = 0.5
            io_utilization = 1.5

        inv = InvariantChecker()
        with pytest.raises(InvariantViolation, match="io_utilization"):
            inv.fluid_end(FakeResult())

    def test_collect_mode_accumulates(self):
        inv = InvariantChecker(collect=True)
        inv.fluid_event(_FakeState(5.0, []), machine=MACHINE, rates=[])
        inv.fluid_event(_FakeState(4.0, []), machine=MACHINE, rates=[])
        assert not inv.ok
        assert len(inv.violations) == 1
        assert "clock went backwards" in inv.violations[0]

    def test_new_run_keeps_violations_reset_clears(self):
        inv = InvariantChecker(collect=True)
        inv.fluid_event(_FakeState(5.0, []), machine=MACHINE, rates=[])
        inv.fluid_event(_FakeState(4.0, []), machine=MACHINE, rates=[])
        inv.new_run()
        # A new run may legitimately restart the clock at zero.
        inv.fluid_event(_FakeState(0.0, []), machine=MACHINE, rates=[])
        assert len(inv.violations) == 1
        inv.reset()
        assert inv.ok
        assert inv.checks == 0


class _FakeSegment:
    def __init__(self, lo, hi, stride):
        self.lo = lo
        self.hi = hi
        self.stride = stride

    def first_at_or_after(self, pos):
        if pos > self.hi:
            return None
        if pos <= self.lo:
            return self.lo
        offset = (pos - self.lo + self.stride - 1) // self.stride
        page = self.lo + offset * self.stride
        return page if page <= self.hi else None


class _FakeSlave:
    def __init__(self, slave_id, segments, cursor=0):
        self.slave_id = slave_id
        self.segments = segments
        self.cursor = cursor
        self.intervals = []
        self.busy = False
        self.crashed = False
        self.inflight_page = None


class _FakeSpec:
    def __init__(self, n_pages):
        self.n_pages = n_pages


class _FakeMicroRun:
    def __init__(self, slaves, n_pages, pages_done=0):
        self.task = _FakeTask("cons")
        self.spec = _FakeSpec(n_pages)
        self.slaves = {s.slave_id: s for s in slaves}
        self.pages_done = pages_done
        self.page_mode = True
        self.adjusting = False
        self.adjust_epoch = 0
        self.harvest = {}


class TestConservation:
    def test_clean_partition_passes(self):
        # Two slaves striding residues 0 and 1 over 10 pages.
        inv = InvariantChecker()
        run = _FakeMicroRun(
            [
                _FakeSlave(0, [_FakeSegment(0, 8, 2)]),
                _FakeSlave(1, [_FakeSegment(1, 9, 2)]),
            ],
            n_pages=10,
        )
        inv._check_conservation("test", run)  # must not raise

    def test_double_claim_detected(self):
        inv = InvariantChecker()
        run = _FakeMicroRun(
            [
                _FakeSlave(0, [_FakeSegment(0, 9, 1)]),
                _FakeSlave(1, [_FakeSegment(4, 9, 1)]),
            ],
            n_pages=10,
        )
        with pytest.raises(InvariantViolation, match="two slaves"):
            inv._check_conservation("test", run)

    def test_lost_pages_detected(self):
        inv = InvariantChecker()
        run = _FakeMicroRun(
            [_FakeSlave(0, [_FakeSegment(0, 5, 1)])], n_pages=10
        )
        with pytest.raises(InvariantViolation, match="conservation violated"):
            inv._check_conservation("test", run)

    def test_inflight_overlap_detected(self):
        inv = InvariantChecker()
        slave = _FakeSlave(0, [_FakeSegment(0, 9, 1)])
        slave.busy = True
        slave.inflight_page = 3  # also still claimable from the segment
        run = _FakeMicroRun([slave], n_pages=11)
        with pytest.raises(InvariantViolation, match="in-flight"):
            inv._check_conservation("test", run)


def reference_conservation(run):
    """The page-by-page enumeration ``_check_conservation`` replaced,
    kept as its oracle: the violation details, in order."""
    name = run.task.name
    found = []
    inflight = []
    claims = {}
    for slave in sorted(run.slaves.values(), key=lambda s: s.slave_id):
        if slave.crashed:
            continue
        if slave.busy and slave.inflight_page is not None:
            inflight.append(slave.inflight_page)
        if run.page_mode:
            pos = slave.cursor
            for seg in slave.segments:
                page = seg.first_at_or_after(pos)
                while page is not None:
                    claims[page] = claims.get(page, 0) + 1
                    pos = page + 1
                    page = page + seg.stride
                    if page > seg.hi:
                        page = None
        else:
            for lo, hi in slave.intervals:
                for key in range(lo, hi + 1):
                    claims[key] = claims.get(key, 0) + 1
    for intervals in run.harvest.values():
        for lo, hi in intervals:
            for key in range(lo, hi + 1):
                claims[key] = claims.get(key, 0) + 1
    doubled = sorted(p for p, c in claims.items() if c > 1)
    if doubled:
        found.append(f"{name}: pages claimable by two slaves: {doubled[:8]}")
    overlap = sorted(set(inflight) & set(claims))
    if overlap:
        found.append(f"{name}: in-flight pages still claimable: {overlap[:8]}")
    if len(inflight) != len(set(inflight)):
        found.append(f"{name}: page in flight twice: {inflight}")
    if run.pages_done + len(inflight) + len(claims) != run.spec.n_pages:
        found.append(
            f"{name}: page conservation violated — done={run.pages_done} "
            f"inflight={len(inflight)} unclaimed={len(claims)} "
            f"!= n_pages={run.spec.n_pages}"
        )
    return found


@st.composite
def claim_layouts(draw):
    """A partition of ``n_pages`` (mod-k strides or contiguous key
    intervals) part-way through a scan, with ``pages_done`` and in-flight
    pages that add up; then, half the time, drawn damage: extra strides
    and intervals (double claims), moved cursors, stray in-flight pages
    (possibly still claimable or in flight twice), crashed slaves,
    harvested intervals and a miscounted ``pages_done``."""
    n_pages = draw(st.integers(1, 40))
    page_mode = draw(st.booleans())
    k = draw(st.integers(1, 5))
    slaves = []
    done = 0
    for i in range(k):
        slave = _FakeSlave(i, [])
        lo, hi = i * n_pages // k, (i + 1) * n_pages // k - 1
        if page_mode and i < n_pages:
            slave.segments = [PageAssignment(0, n_pages - 1, k, i)]
            slave.cursor = draw(st.integers(0, n_pages))
            read = len(range(i, slave.cursor, k))
        else:
            read = draw(st.integers(0, hi - lo + 1))
            slave.intervals = [(lo + read, hi)]
        slave.busy = read > 0 and draw(st.booleans())
        if slave.busy:  # the last page read is still in flight
            last = (slave.cursor - 1 - i) // k * k + i
            slave.inflight_page = last if page_mode else lo + read - 1
        done += read - slave.busy
        slaves.append(slave)
    run = _FakeMicroRun(slaves, n_pages, pages_done=done)
    run.page_mode = page_mode
    if not draw(st.booleans()):
        return run
    page = st.integers(0, n_pages + 2)
    interval = st.tuples(page, page)
    for slave in slaves:
        for lo, hi, stride in draw(
            st.lists(st.tuples(page, page, st.integers(1, 4)), max_size=2)
        ):
            slave.segments.append(PageAssignment(lo, hi, stride, lo % stride))
        slave.intervals += draw(st.lists(interval, max_size=2))
        slave.cursor = draw(st.just(slave.cursor) | st.integers(0, n_pages))
        slave.busy = draw(st.booleans())
        slave.inflight_page = draw(st.just(slave.inflight_page) | st.none() | page)
        slave.crashed = draw(st.integers(0, 4)) == 0
    run.pages_done += draw(st.integers(-1, 1))
    run.harvest = draw(
        st.dictionaries(st.integers(0, 5), st.lists(interval, max_size=2), max_size=2)
    )
    return run


class TestIncrementalConservation:
    @settings(max_examples=300, deadline=None)
    @given(run=claim_layouts())
    def test_same_verdict_and_text_as_the_page_enumeration(self, run):
        inv = InvariantChecker(collect=True)
        inv._check_conservation("site", run)
        assert inv.violations == [
            f"[site] {detail}" for detail in reference_conservation(run)
        ]


class TestCheckerSpansAResume:
    @pytest.mark.parametrize("enabled", [True, False], ids=["restore", "scratch"])
    def test_master_crashes_report_no_violation(self, enabled):
        # Each attempt is a fresh engine whose clock starts at its
        # checkpoint (or at zero): the checker must follow it.
        policy = lambda: InterWithAdjPolicy(integral=True, degradation_aware=True)
        workload = chaos_workload(MACHINE, scale=1.0)
        healthy = MicroSimulator(MACHINE, seed=0, consult_interval=1.0).run(
            workload, policy()
        )
        crashes = tuple(
            MasterCrash(at=share * healthy.elapsed) for share in (0.2, 0.6, 0.8)
        )
        checker = InvariantChecker(collect=True)
        run = run_with_recovery(
            MicroSimulator(
                MACHINE,
                seed=0,
                consult_interval=1.0,
                faults=FaultSchedule(crashes),
                invariants=checker,
            ),
            workload,
            policy(),
            manager=RecoveryManager(enabled=enabled, min_interval=5.0),
        )
        assert run.crashes == 3
        assert (run.restores > 0) == enabled
        assert checker.checks > 0
        assert checker.violations == []
