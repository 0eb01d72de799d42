"""The micro engine's collaborators are whole, and the seams hold.

Faults and recovery reach the engine through hooks (DESIGN.md, "Engine
contract"): the injector arms its own instants and the checkpoint
captures and restores itself, both duck-typed over the engine.  These
tests pin the seams rather than the behaviour — the behaviour is frozen
by the ``cold/`` cells of the trace corpus.
"""

import ast
import itertools
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import pytest

import repro
from repro.check import InvariantChecker
from repro.config import paper_machine
from repro.core.schedulers import InterWithAdjPolicy
from repro.errors import FaultError
from repro.faults import FaultSchedule, SlaveCrash
from repro.recovery import Checkpoint
from repro.sim.micro import MicroSimulator

from .corpus_tools import cold_specs

SRC = Path(repro.__file__).parent
SEAM_MODULES = ("repro.recovery.checkpoint", "repro.faults.injector", "repro.sim.micro")


@pytest.mark.parametrize("order", list(itertools.permutations(SEAM_MODULES)))
def test_seam_modules_import_in_every_order(order):
    done = subprocess.run(
        [sys.executable, "-c", "import " + ", ".join(order)],
        env={"PYTHONPATH": str(SRC.parent)},
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr


def _imported_names(path, module):
    tree = ast.parse(path.read_text())
    return {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == module
        for alias in node.names
    }


def test_engine_knows_one_name_of_each_collaborator():
    micro = SRC / "sim" / "micro.py"
    assert _imported_names(micro, "faults.schedule") == {"FaultSchedule"}
    assert _imported_names(micro, "recovery.checkpoint") == {"Checkpoint"}
    for path in (SRC / "sim").glob("*.py"):
        assert "isinstance(fault" not in path.read_text(), path
    for path in (SRC / "recovery" / "checkpoint.py", SRC / "faults" / "injector.py"):
        imported = {
            node.module
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.ImportFrom)
        }
        assert not any("sim" in (module or "") for module in imported), path


def test_checker_without_a_manager_captures_no_checkpoint(monkeypatch):
    """Only the recovery manager captures: a checked run with no manager
    takes no snapshot at any of its round boundaries."""
    captured = []
    real = Checkpoint.capture.__func__
    monkeypatch.setattr(
        Checkpoint,
        "capture",
        classmethod(lambda cls, engine: captured.append(engine) or real(cls, engine)),
    )
    machine = paper_machine()
    checker = InvariantChecker()
    result = MicroSimulator(machine, consult_interval=0.5, invariants=checker).run(
        cold_specs(machine), InterWithAdjPolicy(integral=True)
    )
    assert result.adjustments > 0 and checker.checks > 0
    assert captured == []


def test_unknown_fault_type_is_rejected_before_the_run_starts():
    @dataclass(frozen=True)
    class Earthquake:
        at: float = 1.0

    consulted = []

    class Spy(InterWithAdjPolicy):
        def decide(self, state):
            consulted.append(state.now)
            return super().decide(state)

    machine = paper_machine()
    schedule = FaultSchedule((SlaveCrash(at=0.5), Earthquake()))
    with pytest.raises(FaultError, match="unknown fault"):
        MicroSimulator(machine, faults=schedule).run(
            cold_specs(machine), Spy(integral=True)
        )
    assert consulted == []
