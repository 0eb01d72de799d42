"""Per-disk accounting of the inlined disk serve, pinned.

``_MicroEngine.run`` serves a request on an idle, unstalled disk with
an empty queue inline — the classification, the service time and the
stream update of ``Disk.service_time`` written out, no call per page.
No unit test reaches that copy, and the trace corpus hashes results,
not disks.  These pins hold every disk's regime counters (sequential,
almost sequential, random) and busy time (``float.hex``) on a reduced
Figure-7 grid: all four mixes, all three policies, seeds 0 and 1, with
page-partitioned sequential scans and range-partitioned index scans.
A change to how the page cycle classifies or times a request moves
them.
"""

import pytest

from repro.config import paper_machine
from repro.core import InterWithAdjPolicy, InterWithoutAdjPolicy, IntraOnlyPolicy
from repro.sim import MicroSimulator
from repro.workloads import WorkloadConfig, WorkloadKind
from repro.workloads.mixes import generate_specs

MACHINE = paper_machine()
CONFIG = WorkloadConfig(max_pages=600)

POLICIES = {
    "intra-only": lambda: IntraOnlyPolicy(integral=True),
    "inter-without-adj": lambda: InterWithoutAdjPolicy(integral=True),
    "inter-with-adj": lambda: InterWithAdjPolicy(integral=True),
}


class _EngineProbe:
    """Sits in the invariant-checker slot to see the finished engine
    (``ScheduleResult`` carries no per-disk state)."""

    engine = None

    def new_run(self):
        pass

    def micro_site(self, engine, run, site):
        pass

    def micro_end(self, engine, result):
        self.engine = engine


#: (mix, policy, seed) -> per disk (sequential, almost sequential,
#: random, busy_time.hex()).
PINS = {
    ("AllCPU", "intra-only", 0): (
        (923, 0, 10, "0x1.f568d68d68e2fp+3"),
        (920, 0, 10, "0x1.f3cf3cf3cf494p+3"),
        (919, 0, 10, "0x1.f346b46b46c0bp+3"),
        (917, 0, 10, "0x1.f235a35a35af9p+3"),
    ),
    ("AllCPU", "inter-without-adj", 0): (
        (923, 0, 10, "0x1.f568d68d68e2ep+3"),
        (920, 0, 10, "0x1.f3cf3cf3cf493p+3"),
        (919, 0, 10, "0x1.f346b46b46c0ap+3"),
        (917, 0, 10, "0x1.f235a35a35af8p+3"),
    ),
    ("AllCPU", "inter-with-adj", 0): (
        (923, 0, 10, "0x1.f568d68d68e2ep+3"),
        (920, 0, 10, "0x1.f3cf3cf3cf493p+3"),
        (919, 0, 10, "0x1.f346b46b46c0ap+3"),
        (917, 0, 10, "0x1.f235a35a35af8p+3"),
    ),
    ("AllIO", "intra-only", 0): (
        (927, 45, 68, "0x1.224924924928fp+4"),
        (925, 62, 52, "0x1.1ef8af8af8b42p+4"),
        (922, 49, 65, "0x1.20a5ca5ca5cedp+4"),
        (922, 55, 56, "0x1.1e2222222226cp+4"),
    ),
    ("AllIO", "inter-without-adj", 0): (
        (927, 45, 68, "0x1.2249249249276p+4"),
        (925, 62, 52, "0x1.1ef8af8af8b30p+4"),
        (922, 49, 65, "0x1.20a5ca5ca5cd6p+4"),
        (922, 55, 56, "0x1.1e22222222258p+4"),
    ),
    ("AllIO", "inter-with-adj", 0): (
        (927, 45, 68, "0x1.2249249249276p+4"),
        (925, 62, 52, "0x1.1ef8af8af8b30p+4"),
        (922, 49, 65, "0x1.20a5ca5ca5cd6p+4"),
        (922, 55, 56, "0x1.1e22222222258p+4"),
    ),
    ("Extreme", "intra-only", 0): (
        (923, 0, 10, "0x1.f568d68d68e2fp+3"),
        (920, 0, 10, "0x1.f3cf3cf3cf494p+3"),
        (919, 0, 10, "0x1.f346b46b46c0bp+3"),
        (917, 0, 10, "0x1.f235a35a35af9p+3"),
    ),
    ("Extreme", "inter-without-adj", 0): (
        (614, 309, 10, "0x1.f568d68d68e30p+3"),
        (612, 308, 10, "0x1.f3cf3cf3cf495p+3"),
        (609, 310, 10, "0x1.f346b46b46c0cp+3"),
        (609, 308, 10, "0x1.f235a35a35afap+3"),
    ),
    ("Extreme", "inter-with-adj", 0): (
        (730, 192, 11, "0x1.f5ca5ca5ca690p+3"),
        (819, 101, 10, "0x1.f3cf3cf3cf494p+3"),
        (818, 101, 10, "0x1.f346b46b46c0bp+3"),
        (726, 190, 11, "0x1.f29729729735bp+3"),
    ),
    ("Random", "intra-only", 0): (
        (789, 0, 10, "0x1.adf15f15f1679p+3"),
        (787, 0, 10, "0x1.ace04e04e0567p+3"),
        (785, 0, 10, "0x1.abcf3cf3cf455p+3"),
        (783, 0, 10, "0x1.aabe2be2be343p+3"),
    ),
    ("Random", "inter-without-adj", 0): (
        (557, 232, 10, "0x1.adf15f15f167ap+3"),
        (555, 232, 10, "0x1.ace04e04e0568p+3"),
        (555, 230, 10, "0x1.abcf3cf3cf456p+3"),
        (554, 229, 10, "0x1.aabe2be2be344p+3"),
    ),
    ("Random", "inter-with-adj", 0): (
        (696, 92, 11, "0x1.ae52e52e52edcp+3"),
        (695, 91, 11, "0x1.ad41d41d41dcap+3"),
        (693, 91, 11, "0x1.ac30c30c30cb8p+3"),
        (717, 66, 10, "0x1.aabe2be2be344p+3"),
    ),
    ("AllCPU", "intra-only", 1): (
        (884, 0, 10, "0x1.e09c09c09c14fp+3"),
        (880, 0, 10, "0x1.de79e79e79f2bp+3"),
        (878, 0, 10, "0x1.dd68d68d68e19p+3"),
        (877, 0, 10, "0x1.dce04e04e0590p+3"),
    ),
    ("AllCPU", "inter-without-adj", 1): (
        (884, 0, 10, "0x1.e09c09c09c14fp+3"),
        (880, 0, 10, "0x1.de79e79e79f2bp+3"),
        (878, 0, 10, "0x1.dd68d68d68e19p+3"),
        (877, 0, 10, "0x1.dce04e04e0590p+3"),
    ),
    ("AllCPU", "inter-with-adj", 1): (
        (884, 0, 10, "0x1.e09c09c09c14fp+3"),
        (880, 0, 10, "0x1.de79e79e79f2bp+3"),
        (878, 0, 10, "0x1.dd68d68d68e19p+3"),
        (877, 0, 10, "0x1.dce04e04e0590p+3"),
    ),
    ("AllIO", "intra-only", 1): (
        (745, 0, 10, "0x1.9679e79e79eeep+3"),
        (742, 0, 10, "0x1.94e04e04e0553p+3"),
        (741, 0, 10, "0x1.9457c57c57ccap+3"),
        (739, 0, 10, "0x1.9346b46b46bb8p+3"),
    ),
    ("AllIO", "inter-without-adj", 1): (
        (745, 0, 10, "0x1.9679e79e79eeep+3"),
        (742, 0, 10, "0x1.94e04e04e0553p+3"),
        (741, 0, 10, "0x1.9457c57c57ccap+3"),
        (739, 0, 10, "0x1.9346b46b46bb8p+3"),
    ),
    ("AllIO", "inter-with-adj", 1): (
        (745, 0, 10, "0x1.9679e79e79eeep+3"),
        (742, 0, 10, "0x1.94e04e04e0553p+3"),
        (741, 0, 10, "0x1.9457c57c57ccap+3"),
        (739, 0, 10, "0x1.9346b46b46bb8p+3"),
    ),
    ("Extreme", "intra-only", 1): (
        (884, 0, 10, "0x1.e09c09c09c14fp+3"),
        (880, 0, 10, "0x1.de79e79e79f2bp+3"),
        (878, 0, 10, "0x1.dd68d68d68e19p+3"),
        (877, 0, 10, "0x1.dce04e04e0590p+3"),
    ),
    ("Extreme", "inter-without-adj", 1): (
        (424, 460, 10, "0x1.e09c09c09c150p+3"),
        (424, 456, 10, "0x1.de79e79e79f2cp+3"),
        (424, 454, 10, "0x1.dd68d68d68e1ap+3"),
        (423, 454, 10, "0x1.dce04e04e0591p+3"),
    ),
    ("Extreme", "inter-with-adj", 1): (
        (738, 146, 10, "0x1.e09c09c09c150p+3"),
        (735, 145, 10, "0x1.de79e79e79f2cp+3"),
        (733, 145, 10, "0x1.dd68d68d68e1ap+3"),
        (733, 144, 10, "0x1.dce04e04e0591p+3"),
    ),
    ("Random", "intra-only", 1): (
        (895, 0, 10, "0x1.e679e79e79f32p+3"),
        (893, 0, 10, "0x1.e568d68d68e20p+3"),
        (890, 0, 10, "0x1.e3cf3cf3cf485p+3"),
        (888, 0, 10, "0x1.e2be2be2be373p+3"),
    ),
    ("Random", "inter-without-adj", 1): (
        (616, 279, 10, "0x1.e679e79e79f33p+3"),
        (615, 278, 10, "0x1.e568d68d68e21p+3"),
        (614, 276, 10, "0x1.e3cf3cf3cf486p+3"),
        (614, 274, 10, "0x1.e2be2be2be374p+3"),
    ),
    ("Random", "inter-with-adj", 1): (
        (792, 102, 11, "0x1.e6db6db6db795p+3"),
        (788, 104, 11, "0x1.e5ca5ca5ca683p+3"),
        (785, 104, 11, "0x1.e430c30c30ce8p+3"),
        (785, 102, 11, "0x1.e31fb1fb1fbd6p+3"),
    ),
}


def test_grid_has_both_partitionings():
    kinds = {
        spec.partitioning
        for seed in (0, 1)
        for kind in WorkloadKind
        for spec in generate_specs(kind, seed=seed, machine=MACHINE, config=CONFIG)
    }
    assert kinds == {"page", "range"}


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("policy_name", list(POLICIES))
@pytest.mark.parametrize("kind", list(WorkloadKind), ids=lambda k: k.value)
def test_per_disk_accounting_is_pinned(kind, policy_name, seed):
    specs = generate_specs(kind, seed=seed, machine=MACHINE, config=CONFIG)
    probe = _EngineProbe()
    MicroSimulator(MACHINE, seed=seed, invariants=probe).run(
        list(specs), POLICIES[policy_name]()
    )
    disks = tuple(
        (
            d.counters.sequential,
            d.counters.almost_sequential,
            d.counters.random,
            d.busy_time.hex(),
        )
        for d in probe.engine.disks
    )
    assert disks == PINS[kind.value, policy_name, seed]
