"""A setting earns its parameter: every default is a value some caller changes.

Parses ``src/repro`` with :mod:`ast` and checks every defaulted parameter
of a public function, a public method or a public class's ``__init__``,
and every defaulted field of a public ``@dataclass(frozen=True)`` or
``NamedTuple``.  Each one must be set by at least one call outside the
tests: by keyword, by position at its index, through
``dataclasses.replace(x, field=)`` or ``functools.partial``, or through
a ``*args`` / ``**kwargs`` forward.  Callers are ``src/``,
``examples/`` and ``benchmarks/``; the paper-claim tests under
``benchmarks/`` count, ``benchmarks/e2e/tests/`` and ``tests/`` do not.
Mutable dataclasses hold results and counters, not settings, and are out
of scope.

Calls are resolved, not matched by name alone: ``Name(...)`` through
the calling module's imports and the package re-exports, ``cls(...)``
and ``super().m(...)`` through the enclosing class, ``Class.m(...)``
through the class, and ``obj.m(...)`` to every class that defines
``m``.  That over-approximates the callers, so the check can miss a
finding but never reports a parameter that a resolved call sets.

A parameter kept on purpose is named in :data:`ALLOWED` with its reason;
an entry that is no longer a finding fails, so an exemption goes once a
caller sets the parameter or the parameter is deleted.  The parse and
the name resolution are :mod:`tests.ast_index`'s, shared with
``tests/test_reach.py``.
"""

from __future__ import annotations

import ast
import functools

from tests.ast_index import ANY, Index, is_caller, module_name, repository_index

#: ``(module, qualname, parameter) -> reason`` for the defaults no
#: non-test call sets that stay parameters all the same.
ALLOWED: dict[tuple[str, str, str], str] = {
    # Test seams: a test substitutes a fake or an observer, or forces
    # a path the default never takes.
    ("repro.__main__", "main", "argv"): (
        "test seam: tests drive the CLI in-process; `python -m repro` "
        "reads sys.argv"
    ),
    ("repro.check.fuzz", "shrink", "run"): (
        "test seam: tests shrink against planted failure predicates"
    ),
    ("repro.core.recursion", "elapsed_time_recursion", "trace"): (
        "test seam: tests read the recursion's pair/solo steps"
    ),
    ("repro.core.recursion", "elapsed_time_recursion", "use_effective_bandwidth"): (
        "test seam: tests check the recursion against the paper's "
        "constant-B closed form"
    ),
    ("repro.core.task", "make_task", "io_pattern"): (
        "test seam: the tests' one task builder; src builds random-io "
        "tasks from specs"
    ),
    ("repro.core.task", "make_task", "arrival_time"): (
        "test seam: the tests' one task builder; src stamps arrivals "
        "with Task.with_arrival"
    ),
    ("repro.storage.btree", "BTreeIndex.__init__", "order"): (
        "test seam: tiny orders force node splits"
    ),
    ("repro.storage.page", "SlottedPage.__init__", "data"): (
        "test seam: the page-image round trip the storage tests pin"
    ),
    ("repro.workloads.mixes", "WorkloadConfig", "index_scan_fraction"): (
        "test seam: tests force the all-sequential and all-index arms "
        "of the io-pattern draw"
    ),
    ("repro.optimizer.enumeration", "enumerate_all_bushy", "methods"): (
        "reference: the exhaustive search the fast-path tests compare "
        "the DP against, over all three join methods"
    ),
    # Frozen oracles: a corpus block pins cells the default does not
    # cover, so the parameter goes only with a regeneration.
    ("repro.workloads.tables", "build_r_min", "seed"): (
        "oracle: the build corpus pins r_min at seeds 0 and 1"
    ),
    ("repro.workloads.tables", "build_r_max", "seed"): (
        "oracle: the build corpus pins r_max at seeds 0 and 1"
    ),
    ("repro.optimizer.multiquery", "MultiQueryScheduler.__init__", "mode"): (
        "oracle: the plan corpus pins batch/ cells under LEFT_DEEP_SEQ "
        "and BUSHY_SEQ"
    ),
    # Descriptions of the paper's machine and workload tables.
    ("repro.config", "MachineConfig", "page_size"): (
        "hardware description of the machine"
    ),
    ("repro.config", "MachineConfig", "signal_latency"): (
        "hardware description of the machine"
    ),
    ("repro.workloads.mixes", "RateBands", "extreme_cpu_low"): (
        "the paper's Section-3 io-rate table, printed by paper_table"
    ),
    ("repro.workloads.mixes", "RateBands", "extreme_cpu_high"): (
        "the paper's Section-3 io-rate table, printed by paper_table"
    ),
    ("repro.workloads.mixes", "RateBands", "extreme_io_low"): (
        "the paper's Section-3 io-rate table, printed by paper_table"
    ),
    ("repro.workloads.mixes", "RateBands", "extreme_io_high"): (
        "the paper's Section-3 io-rate table, printed by paper_table"
    ),
    # SQL semantics and physical design.
    ("repro.catalog.statistics", "ColumnStats.selectivity_range", "low_inclusive"): (
        "SQL semantics: > versus >="
    ),
    ("repro.catalog.statistics", "ColumnStats.selectivity_range", "high_inclusive"): (
        "SQL semantics: < versus <="
    ),
    ("repro.executor.operators.scans", "IndexScan.__init__", "low_inclusive"): (
        "SQL semantics: > versus >="
    ),
    ("repro.executor.operators.scans", "IndexScan.__init__", "high_inclusive"): (
        "SQL semantics: < versus <="
    ),
    ("repro.parallel.executor", "ParallelIndexScan.__init__", "predicate"): (
        "SQL semantics: the scan's WHERE filter"
    ),
    ("repro.catalog.catalog", "Catalog.add_index", "clustered"): (
        "physical design: a clustered index's heap reads are sequential"
    ),
    ("repro.service.queue", "ServiceSubmission", "submission_id"): (
        "an identity drawn from the id scope, not a setting"
    ),
    # The SQL / storage / executor substrate no benchmark drives yet.
    # ROADMAP item 8's sql_execute workload runs this check over its
    # traffic; each entry below is then set by it or deleted.
    ("repro.executor.operators.scans", "SeqScan.__init__", "n_partitions"): (
        "executor substrate, ROADMAP item 8"
    ),
    ("repro.executor.operators.scans", "SeqScan.__init__", "partition"): (
        "executor substrate, ROADMAP item 8"
    ),
    ("repro.executor.operators.scans", "SeqScan.__init__", "buffer_pool"): (
        "executor substrate, ROADMAP item 8"
    ),
    ("repro.executor.operators.scans", "IndexScan.__init__", "buffer_pool"): (
        "executor substrate, ROADMAP item 8"
    ),
    ("repro.storage.buffer", "BufferPool.get", "pin"): (
        "executor substrate, ROADMAP item 8"
    ),
    ("repro.parallel.executor", "ParallelIndexScan.__init__", "use_index_distribution"): (
        "executor substrate, ROADMAP item 8"
    ),
    ("repro.parallel.executor", "ParallelIndexScan.__init__", "separators"): (
        "executor substrate, ROADMAP item 8"
    ),
    ("repro.system", "XprsSystem.__init__", "machine"): (
        "SQL facade, ROADMAP item 8"
    ),
    ("repro.system", "XprsSystem.__init__", "space"): (
        "SQL facade, ROADMAP item 8"
    ),
    ("repro.system", "XprsSystem.__init__", "policy"): (
        "SQL facade, ROADMAP item 8"
    ),
}


def _targets(index: Index, module: str, call: ast.Call, cls: str | None, scope):
    """Each def ``call`` may reach, and how many leading args bind ``self``."""
    func = call.func
    if cls is not None and (
        (isinstance(func, ast.Name) and func.id == "cls")
        or (isinstance(func, ast.Call) and getattr(func.func, "id", "") == "type")
    ):
        return [(d, 0) for d, _ in index.method(index.mro(cls), "__init__")]
    if (
        cls is not None
        and isinstance(func, ast.Attribute)
        and isinstance(func.value, ast.Call)
        and getattr(func.value.func, "id", "") == "super"
    ):
        return [(d, 0) for d, _ in index.method(index.mro(cls)[1:], func.attr)]
    qualified = index.dotted(module, func, scope)
    if qualified in index.functions:
        return [(index.functions[qualified], 0)]
    if qualified in index.classes:
        return [(d, 0) for d, _ in index.method(index.mro(qualified), "__init__")]
    if not isinstance(func, ast.Attribute):
        return []
    owner = index.dotted(module, func.value, scope)
    if owner in index.classes:
        # ``Class.m(obj, ...)`` binds ``self`` from its first argument.
        return [
            (d, int(kind == "instance"))
            for d, kind in index.method(index.mro(owner), func.attr)
        ]
    return [(d, 0) for d, _ in index.by_method.get(func.attr, [])]


def _scan(index: Index, path: str) -> None:
    """Bind every call in ``path`` to the defs it may reach."""
    module = module_name(path)

    class Calls(ast.NodeVisitor):
        cls: str | None = None
        forwarder = None
        scope: ast.AST | None = None

        def visit_ClassDef(self, node):
            outer, self.cls = self.cls, f"{module}.{node.name}"
            self.generic_visit(node)
            self.cls = outer

        def visit_FunctionDef(self, node):
            outer = self.forwarder, self.scope
            self.forwarder, self.scope = index.by_node.get(node), node
            self.generic_visit(node)
            self.forwarder, self.scope = outer

        visit_AsyncFunctionDef = visit_FunctionDef

        def visit_Call(self, node):
            name = index.dotted(module, node.func, self.scope)
            calls = [node]
            if name == "dataclasses.replace":
                names = {k.arg or ANY for k in node.keywords}
                for cls in index.classes.values():
                    if cls.fields is not None:
                        cls.fields.receive(names)
            elif name == "functools.partial" and node.args:
                calls.append(ast.Call(node.args[0], node.args[1:], node.keywords))
            for call in calls:
                for definition, shift in _targets(
                    index, module, call, self.cls, self.scope
                ):
                    definition.bind(call, shift, self.forwarder)
            self.generic_visit(node)

    Calls().visit(index.trees[path])


def _unset_parameters(index: Index) -> dict[tuple[str, str, str], str]:
    """Each defaulted public parameter no counted call sets -> where it is.

    The modules under ``src/`` are checked; the calls in every file
    :func:`~tests.ast_index.is_caller` accepts are counted.
    """
    for path in index.trees:
        if is_caller(path):
            _scan(index, path)
    defs = index.defs()
    changed = True
    while changed:
        changed = False
        for forwarder in defs:
            for target in forwarder.forwards_to:
                changed |= target.receive(set(forwarder.extra))
    return {
        (d.module, d.qualname, param): f"{d.path}:{line} {d.qualname}({param}=)"
        for d in defs
        if d.public
        for param, line in d.defaulted.items()
        if param not in d.set_by_callers
    }


def _findings(files: dict[str, str]) -> dict[tuple[str, str, str], str]:
    """:func:`_unset_parameters` of ``files`` (relative path -> source)."""
    return _unset_parameters(Index(files))


@functools.cache
def _repository_findings() -> dict[tuple[str, str, str], str]:
    """The repository's findings, computed once for both tests."""
    return _unset_parameters(repository_index())


def _unset(findings, allowed) -> str:
    """The failure message for findings ``allowed`` does not name."""
    unset = sorted(
        (where, key) for key, where in findings.items() if key not in allowed
    )
    if not unset:
        return ""
    return (
        f"{len(unset)} defaulted public parameters that no non-test call "
        "sets.  Delete each one (a module constant in its place) or paste "
        "its line into ALLOWED with the reason it stays:\n"
        + "\n".join(f"{where}\n    {key!r}: \"<reason>\"," for where, key in unset)
    )


def _stale(findings, allowed) -> str:
    """The failure message for ``allowed`` entries that are no finding."""
    stale = sorted(key for key in allowed if key not in findings)
    if not stale:
        return ""
    return (
        "ALLOWED entries that a non-test call now sets, or that are gone; "
        "drop them:\n" + "\n".join(f"    {key!r}" for key in stale)
    )


def test_every_default_is_set_by_a_caller_or_allowed():
    message = _unset(_repository_findings(), ALLOWED)
    assert not message, message


def test_every_allowed_entry_is_still_a_finding():
    message = _stale(_repository_findings(), ALLOWED)
    assert not message, message


# -- the check on small synthetic sources ------------------------------------------

_LIBRARY = """
from dataclasses import dataclass


def f(a, b=1, *, c=2):
    pass


class Engine:
    def __init__(self, *, speed=1.0, label="x"):
        pass

    def run(self, n, depth=3):
        pass


@dataclass(frozen=True)
class Config:
    size: int
    width: int = 4
    height: int = 5


def forward(**kwargs):
    f(0, **kwargs)
"""


def _check(caller: str, test: str = "") -> set[tuple[str, str]]:
    files = {
        "src/repro/lib.py": _LIBRARY,
        "examples/use.py": caller,
        "tests/test_lib.py": test,
    }
    return {(qualname, param) for __, qualname, param in _findings(files)}


def test_a_parameter_only_the_tests_set_is_a_finding():
    test = "from repro.lib import f\nf(0, b=2, c=3)\n"
    assert ("f", "b") in _check("", test)
    assert ("f", "c") in _check("", test)


def test_positional_keyword_replace_and_forwarded_settings_pass():
    caller = (
        "import dataclasses\n"
        "from repro import lib\n"
        "from repro.lib import Config, Engine, forward\n"
        "lib.f(0, 5)\n"
        "Engine(speed=2.0).run(1, 4)\n"
        "dataclasses.replace(Config(1, 2), height=6)\n"
        "forward(c=9)\n"
    )
    assert _check(caller) == {("Engine.__init__", "label")}


def test_a_forwarder_passes_only_what_its_callers_send():
    assert ("f", "c") in _check("from repro.lib import forward\nforward(b=1)\n")


def test_calls_resolve_through_imports_not_bare_names():
    # A same-named function elsewhere does not set ``f(b=)``.
    caller = "def f(a, b=0):\n    pass\nf(0, b=1)\n"
    assert ("f", "b") in _check(caller)


def test_the_message_names_the_def_and_a_line_to_paste():
    findings = _findings(
        {"src/repro/lib.py": _LIBRARY, "examples/use.py": ""}
    )
    message = _unset(findings, {})
    assert "src/repro/lib.py:5 f(b=)" in message
    assert "    ('repro.lib', 'f', 'b'): \"<reason>\"," in message


def test_a_stale_allowlist_entry_fails():
    findings = _findings({"src/repro/lib.py": _LIBRARY})
    assert _stale(findings, {("repro.lib", "f", "b"): "kept"}) == ""
    message = _stale(findings, {("repro.lib", "f", "a"): "not defaulted"})
    assert "('repro.lib', 'f', 'a')" in message
