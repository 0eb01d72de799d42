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
caller sets the parameter or the parameter is deleted.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path

import repro

ROOT = Path(repro.__file__).parent.parent.parent

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
    ("repro.recovery.manager", "RecoveryManager.__init__", "tracer"): (
        "oracle: the trace corpus' cold/ cells hash the checkpoint and "
        "restore instants"
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

#: A keyword set that names every parameter (an opaque ``**mapping``).
_ANY = "**"


@dataclass(eq=False)
class _Def:
    """One function, method or constructor: what a call can bind."""

    module: str
    qualname: str
    path: str
    positional: list[str]
    keywords: set[str]
    defaulted: dict[str, int]
    kwarg: str | None = None
    public: bool = False
    #: Parameters some counted call sets.
    set_by_callers: set[str] = field(default_factory=set)
    #: Keyword names calls send into ``**kwarg``.
    extra: set[str] = field(default_factory=set)
    #: Defs this one passes its ``**kwarg`` on to.
    forwards_to: list[_Def] = field(default_factory=list)

    def bind(self, call: ast.Call, shift: int, forwarder: _Def | None) -> None:
        """Record the parameters ``call`` sets; its first ``shift`` args are ``self``."""
        for index, arg in enumerate(call.args[shift:]):
            if isinstance(arg, ast.Starred):
                self.set_by_callers.update(self.positional[index:])
                break
            if index < len(self.positional):
                self.set_by_callers.add(self.positional[index])
        for keyword in call.keywords:
            value = keyword.value
            if keyword.arg is not None:
                self.receive({keyword.arg})
            elif (
                forwarder is not None
                and forwarder.kwarg is not None
                and isinstance(value, ast.Name)
                and value.id == forwarder.kwarg
            ):
                forwarder.forwards_to.append(self)
            elif isinstance(value, ast.Dict) and all(
                isinstance(k, ast.Constant) for k in value.keys
            ):
                self.receive({k.value for k in value.keys})
            else:
                self.receive({_ANY})

    def receive(self, names: set[str]) -> bool:
        """Keyword names a call passes; did anything new arrive?"""
        before = len(self.set_by_callers), len(self.extra)
        if _ANY in names:
            self.set_by_callers |= self.keywords
        else:
            self.set_by_callers |= names & self.keywords
        if self.kwarg is not None:
            self.extra |= names - self.keywords
        return before != (len(self.set_by_callers), len(self.extra))


@dataclass
class _Class:
    module: str
    bases: list[ast.expr]
    #: Method name -> (def, its kind from :func:`_function`).
    methods: dict[str, tuple[_Def, str]]
    #: The ``__init__`` a ``@dataclass`` or ``NamedTuple`` generates.
    fields: _Def | None


def _module_name(path: str) -> str:
    """``src/repro/a/b.py`` -> ``repro.a.b``; elsewhere the file's stem."""
    parts = Path(path).with_suffix("").parts
    if parts[0] != "src":
        return parts[-1]
    parts = parts[1:-1] if parts[-1] == "__init__" else parts[1:]
    return ".".join(parts)


def _is_caller(path: str) -> bool:
    """Does a call in ``path`` (relative to the repository) count?"""
    return path.startswith(("src/", "examples/", "benchmarks/")) and (
        not path.startswith("benchmarks/e2e/tests/")
    )


def _public(name: str) -> bool:
    return not name.startswith("_")


def _decorators(node: ast.FunctionDef | ast.ClassDef) -> dict[str, ast.expr]:
    """Each decorator's last name -> the decorator expression."""
    found = {}
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        name = getattr(target, "attr", getattr(target, "id", None))
        found[name] = decorator
    return found


def _function(module: str, qualname: str, path: str, node, method: bool):
    """A def, and ``"instance"``, ``"class"``, ``"static"`` or ``"function"``."""
    decorators = _decorators(node)
    kind = (
        "function" if not method
        else "static" if "staticmethod" in decorators
        else "class" if "classmethod" in decorators
        else "instance"
    )
    args = node.args
    ordered = [*args.posonlyargs, *args.args]
    bound = int(kind in ("instance", "class") and bool(ordered))
    defaulted = {
        a.arg: a.lineno for a in ordered[len(ordered) - len(args.defaults):]
    }
    defaulted.update(
        (a.arg, a.lineno)
        for a, default in zip(args.kwonlyargs, args.kw_defaults)
        if default is not None
    )
    definition = _Def(
        module,
        qualname,
        path,
        [a.arg for a in ordered[bound:]],
        {a.arg for a in (*args.args, *args.kwonlyargs)}
        - {a.arg for a in ordered[:bound]},
        defaulted,
        kwarg=args.kwarg.arg if args.kwarg else None,
    )
    return definition, kind


def _fields(module: str, path: str, node: ast.ClassDef) -> _Def:
    """The ``__init__`` generated from a class's annotated fields."""
    positional, defaulted = [], {}
    for stmt in node.body:
        if not (
            isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
        ) or "ClassVar" in ast.unparse(stmt.annotation):
            continue
        value = stmt.value
        if isinstance(value, ast.Call) and getattr(value.func, "id", "") == "field":
            options = {k.arg: k.value for k in value.keywords}
            if getattr(options.get("init"), "value", True) is False:
                continue
            has_default = bool({"default", "default_factory"} & set(options))
        else:
            has_default = value is not None
        positional.append(stmt.target.id)
        if has_default:
            defaulted[stmt.target.id] = stmt.lineno
    return _Def(module, node.name, path, positional, set(positional), defaulted)


class _Index:
    """Every def and class of the parsed files, and each module's names."""

    def __init__(self, files: dict[str, str]) -> None:
        self.trees = {path: ast.parse(text, path) for path, text in files.items()}
        self.paths = {_module_name(path): path for path in self.trees}
        self.functions: dict[str, _Def] = {}
        self.classes: dict[str, _Class] = {}
        self.by_method: dict[str, list[tuple[_Def, str]]] = {}
        self.by_node: dict[ast.AST, _Def] = {}
        for path, tree in self.trees.items():
            module = _module_name(path)
            checked = path.startswith("src/")
            for node in tree.body:
                if isinstance(node, ast.ClassDef):
                    self._class(module, path, node, checked and _public(node.name))
                elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    definition, _ = _function(module, node.name, path, node, False)
                    definition.public = checked and _public(node.name)
                    self.functions[f"{module}.{node.name}"] = definition
                    self.by_node[node] = definition

    def _class(self, module: str, path: str, node: ast.ClassDef, public: bool):
        methods = {}
        for stmt in node.body:
            if isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef)
            ) and "property" not in _decorators(stmt):
                definition, kind = _function(
                    module, f"{node.name}.{stmt.name}", path, stmt, True
                )
                definition.public = public and (
                    _public(stmt.name) or stmt.name == "__init__"
                )
                methods[stmt.name] = (definition, kind)
                self.by_node[stmt] = definition
                self.by_method.setdefault(stmt.name, []).append((definition, kind))
        fields = None
        decorator = _decorators(node).get("dataclass")
        if decorator is not None and "__init__" not in methods:
            options = {
                k.arg: k.value.value
                for k in getattr(decorator, "keywords", [])
                if isinstance(k.value, ast.Constant)
            }
            if options.get("init", True):
                fields = _fields(module, path, node)
                fields.public = public and options.get("frozen", False)
        elif any(ast.unparse(base).endswith("NamedTuple") for base in node.bases):
            fields = _fields(module, path, node)
            fields.public = public
        self.classes[f"{module}.{node.name}"] = _Class(
            module, node.bases, methods, fields
        )

    # -- names --------------------------------------------------------------------

    def resolve(self, module: str, name: str, scope=None, seen=frozenset()):
        """The qualified name ``name`` means in ``module``, re-exports followed.

        An import inside ``scope`` (the calling function) wins over the
        module's own; a name no import binds resolves to ``None``.
        """
        qualified = f"{module}.{name}" if module else name
        path = self.paths.get(module)
        if (
            path is None
            or qualified in self.functions
            or qualified in self.classes
            or qualified in self.paths
        ):
            return qualified
        if (module, name) in seen:
            return None
        seen = seen | {(module, name)}
        package = module if path.endswith("__init__.py") else module.rpartition(".")[0]
        nodes = [*(ast.walk(scope) if scope else ()), *ast.walk(self.trees[path])]
        for node in nodes:
            if isinstance(node, ast.ImportFrom):
                source = node.module or ""
                if node.level:
                    parts = package.split(".")[: len(package.split(".")) - node.level + 1]
                    source = ".".join([*parts, source] if source else parts)
                for alias in node.names:
                    if (alias.asname or alias.name) == name:
                        return self.resolve(source, alias.name, seen=seen)
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname == name:
                        return alias.name
                    if alias.asname is None and alias.name.split(".")[0] == name:
                        return name
        return None

    def dotted(self, module: str, node: ast.expr, scope=None) -> str | None:
        """Resolve ``a`` or ``a.b.c`` to a qualified name, if it names one."""
        if isinstance(node, ast.Name):
            return self.resolve(module, node.id, scope)
        if isinstance(node, ast.Attribute):
            base = self.dotted(module, node.value, scope)
            if base in self.paths:
                return self.resolve(base, node.attr)
            if base is not None:
                return f"{base}.{node.attr}"
        return None

    # -- classes ------------------------------------------------------------------

    def mro(self, qualified: str) -> list[_Class]:
        order, queue = [], [qualified]
        while queue:
            cls = self.classes.get(queue.pop(0))
            if cls is not None and cls not in order:
                order.append(cls)
                queue.extend(self.dotted(cls.module, base) for base in cls.bases)
        return order

    def method(self, classes: list[_Class], name: str) -> list[tuple[_Def, str]]:
        for cls in classes:
            if name in cls.methods:
                return [cls.methods[name]]
            if name == "__init__" and cls.fields is not None:
                return [(cls.fields, "instance")]
        return []

    # -- calls --------------------------------------------------------------------

    def targets(self, module: str, call: ast.Call, cls: str | None, scope=None):
        """Each def ``call`` may reach, and how many leading args bind ``self``."""
        func = call.func
        if cls is not None and (
            (isinstance(func, ast.Name) and func.id == "cls")
            or (isinstance(func, ast.Call) and getattr(func.func, "id", "") == "type")
        ):
            return [(d, 0) for d, _ in self.method(self.mro(cls), "__init__")]
        if (
            cls is not None
            and isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Call)
            and getattr(func.value.func, "id", "") == "super"
        ):
            return [(d, 0) for d, _ in self.method(self.mro(cls)[1:], func.attr)]
        qualified = self.dotted(module, func, scope)
        if qualified in self.functions:
            return [(self.functions[qualified], 0)]
        if qualified in self.classes:
            return [(d, 0) for d, _ in self.method(self.mro(qualified), "__init__")]
        if not isinstance(func, ast.Attribute):
            return []
        owner = self.dotted(module, func.value, scope)
        if owner in self.classes:
            # ``Class.m(obj, ...)`` binds ``self`` from its first argument.
            return [
                (d, int(kind == "instance"))
                for d, kind in self.method(self.mro(owner), func.attr)
            ]
        return [(d, 0) for d, _ in self.by_method.get(func.attr, [])]

    def scan(self, path: str) -> None:
        """Bind every call in ``path`` to the defs it may reach."""
        module = _module_name(path)
        index = self

        class Calls(ast.NodeVisitor):
            cls: str | None = None
            forwarder: _Def | None = None
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
                    names = {k.arg or _ANY for k in node.keywords}
                    for cls in index.classes.values():
                        if cls.fields is not None:
                            cls.fields.receive(names)
                elif name == "functools.partial" and node.args:
                    calls.append(ast.Call(node.args[0], node.args[1:], node.keywords))
                for call in calls:
                    targets = index.targets(module, call, self.cls, self.scope)
                    for definition, shift in targets:
                        definition.bind(call, shift, self.forwarder)
                self.generic_visit(node)

        Calls().visit(self.trees[path])

    def defs(self) -> list[_Def]:
        found = list(self.functions.values())
        for cls in self.classes.values():
            found.extend(d for d, _ in cls.methods.values())
            if cls.fields is not None:
                found.append(cls.fields)
        return found


def _findings(files: dict[str, str]) -> dict[tuple[str, str, str], str]:
    """Each defaulted public parameter no counted call sets -> where it is.

    ``files`` maps repository-relative paths to source text.  The modules
    under ``src/`` are checked; the calls in every file
    :func:`_is_caller` accepts are counted.
    """
    index = _Index(files)
    for path in files:
        if _is_caller(path):
            index.scan(path)
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


def _repository(root: Path = ROOT) -> dict[str, str]:
    """Every file under ``root`` the check parses, by relative path."""
    files = {}
    for top in ("src/repro", "examples", "benchmarks"):
        for path in sorted((root / top).rglob("*.py")):
            relative = path.relative_to(root).as_posix()
            if _is_caller(relative):
                files[relative] = path.read_text()
    return files


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
    message = _unset(_findings(_repository()), ALLOWED)
    assert not message, message


def test_every_allowed_entry_is_still_a_finding():
    message = _stale(_findings(_repository()), ALLOWED)
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
