"""One parsed view of the package and its non-test callers.

:class:`Index` parses ``src/repro``, ``examples/`` and ``benchmarks/``
with :mod:`ast` and records every module-level def and class, each
class's methods and members, and each module's (and each function
scope's) import table.  It resolves a name or a dotted expression the
way Python would bind it at import time, following the package
re-exports.  Two suite checks read it: ``tests/test_settings.py``
(every default is set by a caller) and ``tests/test_reach.py`` (every
public name is referenced).  :func:`repository_index` parses the
repository once per session.

Callers are ``src/``, ``examples/`` and ``benchmarks/``; the paper-claim
tests under ``benchmarks/`` count, ``benchmarks/e2e/tests/`` and
``tests/`` do not.
"""

from __future__ import annotations

import ast
import functools
from dataclasses import dataclass, field
from pathlib import Path

import repro

ROOT = Path(repro.__file__).parent.parent.parent

#: A keyword set that names every parameter (an opaque ``**mapping``).
ANY = "**"


@dataclass(eq=False)
class Def:
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
    forwards_to: list[Def] = field(default_factory=list)

    def bind(self, call: ast.Call, shift: int, forwarder: Def | None) -> None:
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
                self.receive({ANY})

    def receive(self, names: set[str]) -> bool:
        """Keyword names a call passes; did anything new arrive?"""
        before = len(self.set_by_callers), len(self.extra)
        if ANY in names:
            self.set_by_callers |= self.keywords
        else:
            self.set_by_callers |= names & self.keywords
        if self.kwarg is not None:
            self.extra |= names - self.keywords
        return before != (len(self.set_by_callers), len(self.extra))


@dataclass
class Class:
    """One module-level class."""

    module: str
    qualified: str
    bases: list[ast.expr]
    #: Method name -> (def, its kind from :func:`_function`); no properties.
    methods: dict[str, tuple[Def, str]]
    #: The ``__init__`` a ``@dataclass`` or ``NamedTuple`` generates.
    fields: Def | None
    #: Every def in the body, properties included -> its first line.
    members: dict[str, int]


def module_name(path: str) -> str:
    """``src/repro/a/b.py`` -> ``repro.a.b``; elsewhere the file's stem."""
    parts = Path(path).with_suffix("").parts
    if parts[0] != "src":
        return parts[-1]
    parts = parts[1:-1] if parts[-1] == "__init__" else parts[1:]
    return ".".join(parts)


def is_caller(path: str) -> bool:
    """Does code in ``path`` (relative to the repository) count as a use?"""
    return path.startswith(("src/", "examples/", "benchmarks/")) and (
        not path.startswith("benchmarks/e2e/tests/")
    )


def public(name: str) -> bool:
    """Is ``name`` public (no leading underscore)?"""
    return not name.startswith("_")


def decorators(node: ast.FunctionDef | ast.ClassDef) -> dict[str, ast.expr]:
    """Each decorator's last name -> the decorator expression."""
    found = {}
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        name = getattr(target, "attr", getattr(target, "id", None))
        found[name] = decorator
    return found


def _function(module: str, qualname: str, path: str, node, method: bool):
    """A def, and ``"instance"``, ``"class"``, ``"static"`` or ``"function"``."""
    found = decorators(node)
    kind = (
        "function" if not method
        else "static" if "staticmethod" in found
        else "class" if "classmethod" in found
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
    definition = Def(
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


def _fields(module: str, path: str, node: ast.ClassDef) -> Def:
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
    return Def(module, node.name, path, positional, set(positional), defaulted)


def _imports(nodes, package: str) -> dict[str, tuple[str, str | None]]:
    """Each name an import among ``nodes`` binds -> ``(source, name)``.

    ``from source import name`` gives ``(source, name)``; a plain
    ``import`` gives ``(qualified, None)``.  The first binding in walk
    order wins, as it did when each lookup walked the tree itself.
    """
    table: dict[str, tuple[str, str | None]] = {}
    for node in nodes:
        if isinstance(node, ast.ImportFrom):
            source = node.module or ""
            if node.level:
                parts = package.split(".")[: len(package.split(".")) - node.level + 1]
                source = ".".join([*parts, source] if source else parts)
            for alias in node.names:
                table.setdefault(alias.asname or alias.name, (source, alias.name))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname is not None:
                    table.setdefault(alias.asname, (alias.name, None))
                else:
                    first = alias.name.split(".")[0]
                    table.setdefault(first, (first, None))
    return table


class Index:
    """Every def and class of the parsed files, and each module's names."""

    def __init__(self, files: dict[str, str]) -> None:
        self.trees = {path: ast.parse(text, path) for path, text in files.items()}
        self.paths = {module_name(path): path for path in self.trees}
        self.functions: dict[str, Def] = {}
        self.classes: dict[str, Class] = {}
        self.by_method: dict[str, list[tuple[Def, str]]] = {}
        #: Member name -> the qualified name of each class defining it.
        self.by_member: dict[str, list[str]] = {}
        self.by_node: dict[ast.AST, Def] = {}
        self._module_imports: dict[str, dict] = {}
        self._scope_imports: dict[ast.AST, dict] = {}
        for path, tree in self.trees.items():
            module = module_name(path)
            checked = path.startswith("src/")
            for node in tree.body:
                if isinstance(node, ast.ClassDef):
                    self._class(module, path, node, checked and public(node.name))
                elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    definition, _ = _function(module, node.name, path, node, False)
                    definition.public = checked and public(node.name)
                    self.functions[f"{module}.{node.name}"] = definition
                    self.by_node[node] = definition

    def _class(self, module: str, path: str, node: ast.ClassDef, is_public: bool):
        qualified = f"{module}.{node.name}"
        methods, members = {}, {}
        for stmt in node.body:
            if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if stmt.name not in members:
                members[stmt.name] = stmt.lineno
                self.by_member.setdefault(stmt.name, []).append(qualified)
            if "property" in decorators(stmt):
                continue
            definition, kind = _function(
                module, f"{node.name}.{stmt.name}", path, stmt, True
            )
            definition.public = is_public and (
                public(stmt.name) or stmt.name == "__init__"
            )
            methods[stmt.name] = (definition, kind)
            self.by_node[stmt] = definition
            self.by_method.setdefault(stmt.name, []).append((definition, kind))
        fields = None
        decorator = decorators(node).get("dataclass")
        if decorator is not None and "__init__" not in methods:
            options = {
                k.arg: k.value.value
                for k in getattr(decorator, "keywords", [])
                if isinstance(k.value, ast.Constant)
            }
            if options.get("init", True):
                fields = _fields(module, path, node)
                fields.public = is_public and options.get("frozen", False)
        elif any(ast.unparse(base).endswith("NamedTuple") for base in node.bases):
            fields = _fields(module, path, node)
            fields.public = is_public
        self.classes[qualified] = Class(
            module, qualified, node.bases, methods, fields, members
        )

    # -- names --------------------------------------------------------------------

    def _package(self, module: str) -> str:
        path = self.paths[module]
        return module if path.endswith("__init__.py") else module.rpartition(".")[0]

    def _imported(self, module: str, name: str, scope):
        """What an import in ``scope``, else in ``module``, binds ``name`` to."""
        if scope is not None:
            table = self._scope_imports.get(scope)
            if table is None:
                table = _imports(ast.walk(scope), self._package(module))
                self._scope_imports[scope] = table
            if name in table:
                return table[name]
        table = self._module_imports.get(module)
        if table is None:
            table = _imports(
                ast.walk(self.trees[self.paths[module]]), self._package(module)
            )
            self._module_imports[module] = table
        return table.get(name)

    def resolve(self, module: str, name: str, scope=None, seen=frozenset()):
        """The qualified name ``name`` means in ``module``, re-exports followed.

        An import inside ``scope`` (the enclosing function) wins over the
        module's own; a name no import binds resolves to ``None``.
        """
        qualified = f"{module}.{name}" if module else name
        if (
            module not in self.paths
            or qualified in self.functions
            or qualified in self.classes
            or qualified in self.paths
        ):
            return qualified
        if (module, name) in seen:
            return None
        bound = self._imported(module, name, scope)
        if bound is None:
            return None
        source, imported = bound
        if imported is None:
            return source
        return self.resolve(source, imported, seen=seen | {(module, name)})

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

    def mro(self, qualified: str) -> list[Class]:
        """The class and its resolved bases, breadth first."""
        order, queue = [], [qualified]
        while queue:
            cls = self.classes.get(queue.pop(0))
            if cls is not None and cls not in order:
                order.append(cls)
                queue.extend(self.dotted(cls.module, base) for base in cls.bases)
        return order

    def method(self, classes: list[Class], name: str) -> list[tuple[Def, str]]:
        """The first def of ``name`` along ``classes``, with its kind."""
        for cls in classes:
            if name in cls.methods:
                return [cls.methods[name]]
            if name == "__init__" and cls.fields is not None:
                return [(cls.fields, "instance")]
        return []

    def defs(self) -> list[Def]:
        """Every function, method and generated ``__init__``."""
        found = list(self.functions.values())
        for cls in self.classes.values():
            found.extend(d for d, _ in cls.methods.values())
            if cls.fields is not None:
                found.append(cls.fields)
        return found


def repository(root: Path = ROOT) -> dict[str, str]:
    """Every file under ``root`` the checks parse, by relative path."""
    files = {}
    for top in ("src/repro", "examples", "benchmarks"):
        for path in sorted((root / top).rglob("*.py")):
            relative = path.relative_to(root).as_posix()
            if is_caller(relative):
                files[relative] = path.read_text()
    return files


@functools.cache
def repository_index() -> Index:
    """The repository's :class:`Index`, parsed once per session.

    The settings check marks the parameters calls set on its defs; no
    other reader looks at those marks.
    """
    return Index(repository())
