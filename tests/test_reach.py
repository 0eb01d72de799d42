"""A name earns its place: every public def and class is used outside the tests.

Checks every public module-level function and class under ``src/repro``,
and every public method and property of a public class.  Each one must
be referenced from ``src/``, ``examples/`` or ``benchmarks/``; the
paper-claim tests under ``benchmarks/`` count, ``benchmarks/e2e/tests/``
and ``tests/`` do not.

A reference is a load of a name, resolved through the module's imports
and the package re-exports (:mod:`tests.ast_index`): ``f``, ``mod.f``,
``Class.m`` through the class and its bases, and ``obj.m`` (or
``super().m``, or ``getattr(obj, "m")`` / ``hasattr`` with a constant
name) for every class that defines ``m``.  An import, an ``__all__``
string and a reference from inside the def's own body do not count.
``obj.m`` over-approximates the users, so the check can miss a finding
but never reports a name that a resolved reference reaches.

A name kept on purpose is named in :data:`ALLOWED` with its reason; an
entry that is no longer a finding fails, so an exemption goes once a
caller uses the name or the name is deleted.
"""

from __future__ import annotations

import ast
import functools

from tests.ast_index import Index, is_caller, module_name, public, repository_index

#: ``(module, qualname) -> reason`` for the public names no non-test
#: code references that stay all the same.
ALLOWED: dict[tuple[str, str], str] = {
    # The SQL / storage / executor substrate no benchmark drives yet.
    # ROADMAP item 8's sql_execute workload runs this check over its
    # traffic; each entry below is then used by it or deleted.
    ("repro.storage.buffer", "BufferPool"): (
        "executor substrate, ROADMAP item 8"
    ),
    ("repro.storage.buffer", "BufferPool.unpin"): (
        "executor substrate, ROADMAP item 8"
    ),
    ("repro.storage.buffer", "BufferPool.contains"): (
        "executor substrate, ROADMAP item 8"
    ),
    ("repro.storage.buffer", "BufferStats.hit_rate"): (
        "executor substrate, ROADMAP item 8"
    ),
    # Safety code: a test aid that proves a structure sound.
    ("repro.storage.btree", "BTreeIndex.check_invariants"): (
        "safety: the B+-tree tests assert the tree's invariants after "
        "every split"
    ),
}

#: Builtins whose constant second argument names an attribute.
_ATTRIBUTE_READERS = ("getattr", "hasattr")


def _checked(index: Index) -> dict[tuple[str, str], str]:
    """Every public name the check covers -> ``file:line qualname``."""
    names = {}
    for path, tree in index.trees.items():
        if not path.startswith("src/"):
            continue
        module = module_name(path)
        for node in tree.body:
            if not (
                isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                and public(node.name)
            ):
                continue
            names[(module, node.name)] = f"{path}:{node.lineno} {node.name}"
            if isinstance(node, ast.ClassDef):
                members = index.classes[f"{module}.{node.name}"].members
                for member, line in members.items():
                    if public(member):
                        qualname = f"{node.name}.{member}"
                        names[(module, qualname)] = f"{path}:{line} {qualname}"
    return names


def _references(index: Index, path: str) -> set[str]:
    """The qualified names code in ``path`` references."""
    module = module_name(path)
    reached: set[str] = set()

    class References(ast.NodeVisitor):
        #: Qualified names of the defs and classes being visited.
        inside: list[str] = [module]
        scope: ast.AST | None = None

        def reach(self, qualified: str | None) -> None:
            if qualified is not None and qualified not in self.inside:
                reached.add(qualified)

        def member(self, owner: ast.expr, name: str) -> None:
            """A read of attribute ``name`` on ``owner``."""
            base = index.dotted(module, owner, self.scope)
            if base in index.paths:
                self.reach(index.resolve(base, name))
            elif base in index.classes:
                for cls in index.mro(base):
                    if name in cls.members:
                        self.reach(f"{cls.qualified}.{name}")
                        break
            else:
                for qualified in index.by_member.get(name, ()):
                    self.reach(f"{qualified}.{name}")

        def visit_ClassDef(self, node):
            self.inside = [*self.inside, f"{self.inside[-1]}.{node.name}"]
            self.generic_visit(node)
            self.inside = self.inside[:-1]

        def visit_FunctionDef(self, node):
            outer = self.inside, self.scope
            self.inside = [*self.inside, f"{self.inside[-1]}.{node.name}"]
            self.scope = node
            self.generic_visit(node)
            self.inside, self.scope = outer

        visit_AsyncFunctionDef = visit_FunctionDef

        def visit_Name(self, node):
            if isinstance(node.ctx, ast.Load):
                self.reach(index.resolve(module, node.id, self.scope))

        def visit_Attribute(self, node):
            if isinstance(node.ctx, ast.Load):
                self.member(node.value, node.attr)
            self.generic_visit(node)

        def visit_Call(self, node):
            func, args = node.func, node.args
            if (
                isinstance(func, ast.Name)
                and func.id in _ATTRIBUTE_READERS
                and len(args) >= 2
                and isinstance(args[1], ast.Constant)
                and isinstance(args[1].value, str)
            ):
                self.member(args[0], args[1].value)
            self.generic_visit(node)

    References().visit(index.trees[path])
    return reached


def _unreferenced(index: Index) -> dict[tuple[str, str], str]:
    """Each public name no counted reference reaches -> where it is."""
    reached = set()
    for path in index.trees:
        if is_caller(path):
            reached |= _references(index, path)
    return {
        key: where
        for key, where in _checked(index).items()
        if ".".join(key) not in reached
    }


def _findings(files: dict[str, str]) -> dict[tuple[str, str], str]:
    """:func:`_unreferenced` of ``files`` (relative path -> source)."""
    return _unreferenced(Index(files))


@functools.cache
def _repository_findings() -> dict[tuple[str, str], str]:
    """The repository's findings, computed once for both tests."""
    return _unreferenced(repository_index())


def _unused(findings, allowed) -> str:
    """The failure message for findings ``allowed`` does not name."""
    unused = sorted(
        (where, key) for key, where in findings.items() if key not in allowed
    )
    if not unused:
        return ""
    return (
        f"{len(unused)} public names that no non-test code references.  "
        "Delete each one (with its re-exports and __all__ entries) or "
        "paste its line into ALLOWED with the reason it stays:\n"
        + "\n".join(f"{where}\n    {key!r}: \"<reason>\"," for where, key in unused)
    )


def _stale(findings, allowed) -> str:
    """The failure message for ``allowed`` entries that are no finding."""
    stale = sorted(key for key in allowed if key not in findings)
    if not stale:
        return ""
    return (
        "ALLOWED entries that non-test code now references, or that are "
        "gone; drop them:\n" + "\n".join(f"    {key!r}" for key in stale)
    )


def test_every_public_name_is_referenced_or_allowed():
    message = _unused(_repository_findings(), ALLOWED)
    assert not message, message


def test_every_allowed_entry_is_still_a_finding():
    message = _stale(_repository_findings(), ALLOWED)
    assert not message, message


# -- the check on small synthetic sources ------------------------------------------

_LIBRARY = """
def f():
    return f()


def key(item):
    return item


class Engine:
    def run(self):
        return self.run()

    def stop(self):
        pass

    @property
    def speed(self):
        return 1.0

    def probe(self):
        pass

    def brake(self):
        pass


class Turbo(Engine):
    def boost(self):
        return super().brake()


def unused():
    pass
"""


def _check(caller: str, test: str = "") -> set[str]:
    files = {
        "src/repro/lib.py": _LIBRARY,
        "examples/use.py": caller,
        "tests/test_lib.py": test,
    }
    return {qualname for __, qualname in _findings(files)}


def test_a_name_only_the_tests_reference_is_a_finding():
    test = "from repro.lib import unused\nunused()\n"
    assert "unused" in _check("", test)


def test_values_properties_members_super_and_getattr_are_references():
    caller = (
        "from repro import lib\n"
        "from repro.lib import Turbo\n"
        "sorted([], key=lib.key)\n"
        "engine = Turbo()\n"
        "engine.speed\n"
        "engine.stop()\n"
        "engine.boost()\n"
        "getattr(engine, 'probe')\n"
    )
    assert _check(caller) == {"f", "Engine.run", "unused"}


def test_a_same_named_local_def_keeps_nothing_alive():
    caller = "def unused():\n    pass\nunused()\n"
    assert "unused" in _check(caller)


def test_a_reference_from_its_own_body_does_not_count():
    # ``f`` and ``Engine.run`` call themselves and nothing else does.
    assert {"f", "Engine.run"} <= _check("from repro.lib import Engine\n")


def test_the_message_names_the_def_and_a_line_to_paste():
    message = _unused(_findings({"src/repro/lib.py": _LIBRARY}), {})
    assert "src/repro/lib.py:2 f" in message
    assert "    ('repro.lib', 'f'): \"<reason>\"," in message
    assert "src/repro/lib.py:18 Engine.speed" in message


def test_a_stale_allowlist_entry_fails():
    findings = _findings({"src/repro/lib.py": _LIBRARY})
    assert _stale(findings, {("repro.lib", "unused"): "kept"}) == ""
    message = _stale(findings, {("repro.lib", "gone"): "deleted"})
    assert "('repro.lib', 'gone')" in message
