"""Module hygiene under ``repro``: no unused import, no oversized module.

Parses every non-``__init__`` module with :mod:`ast` and checks that each
name an ``import`` binds is read somewhere in that module.  A use is any
reference in code, in an annotation (string annotations included) or in
the module's ``__all__``.  Package ``__init__`` modules import in order
to re-export, so they are skipped, and so is ``from __future__``.

Every module also stays within :data:`MAX_MODULE_LINES`, apart from the
ones :data:`OVERSIZED` names, each of which must still be past the bound
(so an exemption goes once its split lands).
"""

import ast
from pathlib import Path

import repro

SOURCE = Path(repro.__file__).parent

#: Lines a module may have.  A module past it is split along a seam it
#: already has, as ``service/server.py`` was into ``server.py`` and
#: ``gate.py``.
MAX_MODULE_LINES = 800
#: Modules still past the bound, each with the split that will end its
#: exemption (ROADMAP item 15).
OVERSIZED = {
    # The adjustment protocol moves beside parallel.partition.maxpage_round
    # and the crash/cancel/checkpoint cold path becomes a collaborator.
    "sim/micro.py",
}


def _bound_names(tree: ast.Module) -> dict[str, int]:
    """Every name an import statement binds -> the line it is bound on."""
    bound: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound.setdefault(name, node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    bound.setdefault(alias.asname or alias.name, node.lineno)
    return bound


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in (
                *args.posonlyargs,
                *args.args,
                *args.kwonlyargs,
                args.vararg,
                args.kwarg,
            ):
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _names(tree: ast.AST) -> set[str]:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def _used_names(tree: ast.Module) -> set[str]:
    """Names the module reads: in code, annotations and ``__all__``."""
    used = _names(tree)
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= _names(ast.parse(node.value, mode="eval"))
    for node in tree.body:
        if (
            isinstance(node, ast.Assign)
            and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            )
        ):
            used |= set(ast.literal_eval(node.value))
    return used


def _unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used_names(tree)
    where = path.relative_to(SOURCE.parent)
    return [
        f"{where}:{line}: {name}"
        for name, line in _bound_names(tree).items()
        if name not in used
    ]


def test_no_module_imports_a_name_it_never_uses():
    unused = [
        entry
        for path in sorted(SOURCE.rglob("*.py"))
        if path.name != "__init__.py"
        for entry in _unused_imports(path)
    ]
    assert not unused, "unused imports:\n" + "\n".join(unused)


def test_the_walk_sees_annotations_and_flags_a_dead_import():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os\n"
        "from typing import Any, Iterator\n"
        "from x import Y, Z\n"
        "__all__ = ['Z']\n"
        "def f(a: 'Y') -> Iterator[int]:\n"
        "    pass\n"
    )
    assert sorted(set(_bound_names(tree)) - _used_names(tree)) == ["Any", "os"]


def _line_counts() -> dict[str, int]:
    return {
        path.relative_to(SOURCE).as_posix(): len(path.read_text().splitlines())
        for path in sorted(SOURCE.rglob("*.py"))
    }


def test_no_module_is_past_the_size_bound():
    counts = _line_counts()
    oversized = [
        f"{module}: {lines} lines"
        for module, lines in counts.items()
        if lines > MAX_MODULE_LINES and module not in OVERSIZED
    ]
    assert not oversized, (
        f"modules past {MAX_MODULE_LINES} lines:\n" + "\n".join(oversized)
    )
    # The ratchet: an exempt module that shrank below the bound loses
    # its exemption.
    for module in OVERSIZED:
        assert counts.get(module, 0) > MAX_MODULE_LINES, (
            f"{module} is within the bound; drop it from OVERSIZED"
        )
