"""Checks on the repository's own text, which no linter runs here: the
README's Library example runs as written, every name a module of the
package imports is used in that module, every private name a module defines
is read somewhere in the package, no module reads a private attribute of
anything but ``self``, each module imports only the package modules its
layer allows, and no module imports dataclasses or pathlib, nor the CLI
argparse at load."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "tunneltimes"


def test_the_readme_library_example_runs():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", text, re.MULTILINE | re.DOTALL)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], "README.md", "exec"), namespace)
    assert namespace["caught"] == []


def _unused_imports(tree: ast.Module) -> list[str]:
    """The names ``tree`` binds by an import, anywhere in it, and never
    reads."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                imported.setdefault(name, node.lineno)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in read]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_every_import_is_used(path):
    assert _unused_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


def _dead_names(sources: dict[str, str]) -> list[str]:
    """The module-level names with one leading underscore that a module of
    ``sources`` (file name -> text) defines and no module reads: as a name,
    as an attribute, or by importing it by name."""
    trees = {path: ast.parse(text) for path, text in sources.items()}
    read = set()
    for node in (node for tree in trees.values() for node in ast.walk(tree)):
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
            read.add(node.id if isinstance(node, ast.Name) else node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    dead = []
    for path, tree in trees.items():
        for statement in tree.body:
            if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
                defined = [statement.name]
            elif isinstance(statement, (ast.Assign, ast.AnnAssign)):
                targets = getattr(statement, "targets", None) or [statement.target]
                defined = [node.id for target in targets for node in ast.walk(target)
                           if isinstance(node, ast.Name)]
            else:
                continue
            dead += [f"{path} line {statement.lineno}: {name}" for name in defined
                     if name.startswith("_") and not name.startswith("__") and name not in read]
    return dead


def test_every_private_name_is_read():
    # what a removal leaves behind: a helper, constant or cache no code reads
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE.glob("*.py"))}
    assert _dead_names(sources) == []
    # the check sees a name no module reads, and each kind of read
    sample = {
        "a.py": "_dead, _named = 1, 2\ndef _imported(): return _named\nclass _Attr: pass\n",
        "b.py": "from a import _imported\nimport a\na._Attr\n",
    }
    assert _dead_names(sample) == ["a.py line 1: _dead"]


def _private_reads(tree: ast.Module) -> list[str]:
    """Each read in ``tree`` of an attribute with one leading underscore, on
    anything but ``self``."""
    return [
        f"line {node.lineno}: {ast.unparse(node)}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
        and node.attr.startswith("_") and not node.attr.startswith("__")
        and not (isinstance(node.value, ast.Name) and node.value.id == "self")
    ]


def test_no_module_reads_a_private_attribute():
    # another module's or another library's private names (argparse's
    # _actions, say) are no API to build on
    reads = {path.name: _private_reads(ast.parse(path.read_text(encoding="utf-8")))
             for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: found for name, found in reads.items() if found} == {}
    # the check sees such a read
    assert _private_reads(ast.parse("parser._actions\nself._x")) == ["line 1: parser._actions"]


#: The package modules each module may import, "__init__" being the package
#: itself (``from . import __version__``). A module's row comes after the row
#: of every module it may import, so no import cycle can form. A record is its
#: cells and a table its columns, so records imports nothing: no solution or
#: spectrum object may come back into the module that holds them. The record
#: kernel and the CSV writer (evaluation) import neither sweep nor cli, so
#: a point command never loads the grid engine or the emitters.
LAYERS = {
    "__init__": (),
    "constants": (),
    "errors": (),
    "records": (),
    "numerics": ("errors",),
    "barrier": ("constants", "errors", "numerics", "records"),
    "depth": ("barrier", "errors", "numerics"),
    "momentum": ("barrier", "constants", "errors", "numerics", "records"),
    "times": ("barrier", "constants", "errors", "numerics"),
    "evaluation": ("__init__", "barrier", "constants", "depth", "errors", "momentum",
                   "numerics", "records", "times"),
    "sweep": ("barrier", "constants", "depth", "errors", "evaluation", "momentum", "records"),
    "cli": ("__init__", "barrier", "errors", "evaluation", "records", "sweep"),
}


def _package_modules(tree: ast.AST) -> set[str]:
    """The modules of the package that the import statements in ``tree``
    import, in functions too; the package itself as "__init__"."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                top, _, rest = alias.name.partition(".")
                if top == "tunneltimes":
                    found.add(rest.partition(".")[0] or "__init__")
        elif isinstance(node, ast.ImportFrom):
            path = node.module or ""
            if not node.level:
                top, _, path = path.partition(".")
                if top != "tunneltimes":
                    continue
            if path:
                found.add(path.partition(".")[0])
            else:
                found.update(a.name if a.name in LAYERS else "__init__" for a in node.names)
    return found


def _disallowed_imports(module: str, tree: ast.AST) -> list[str]:
    """The package modules that ``tree``, the source of ``module``, imports
    and LAYERS does not allow it."""
    return sorted(_package_modules(tree) - set(LAYERS[module]))


def test_each_module_imports_only_the_modules_its_layer_allows():
    # every module has a row, and a row names only rows before it
    assert sorted(LAYERS) == sorted(path.stem for path in PACKAGE.glob("*.py"))
    order = list(LAYERS)
    for module, allowed in LAYERS.items():
        assert all(order.index(name) < order.index(module) for name in allowed), module
    found = {path.stem: _disallowed_imports(path.stem, ast.parse(path.read_text(encoding="utf-8")))
             for path in sorted(PACKAGE.glob("*.py"))}
    assert {module: names for module, names in found.items() if names} == {}
    # the check sees each form of a package import, and refuses a disallowed
    # one: the constants once built their value class from records'
    sample = ast.parse(
        "from .records import _Value\nfrom . import __version__, sweep\n"
        "import tunneltimes.times\ndef f():\n    from tunneltimes.numerics import GRID\n"
    )
    assert _package_modules(sample) == {"records", "__init__", "sweep", "times", "numerics"}
    assert _disallowed_imports("constants", ast.parse("from .records import _Value")) == [
        "records"
    ]


def _imports(tree: ast.AST, in_functions: bool = True) -> set[str]:
    """The top-level names of the modules that the import statements in
    ``tree`` import, not counting a package's own; those inside a function
    only if ``in_functions``."""
    found, todo = set(), [tree]
    while todo:
        node = todo.pop()
        if isinstance(node, ast.Import):
            found.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.partition(".")[0])
        if in_functions or not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            todo.extend(ast.iter_child_nodes(node))
    return found


def test_start_up_loads_neither_dataclasses_nor_argparse():
    # what a plain command does not run, it does not import: dataclasses
    # (which imports inspect) serves no module, nor pathlib (which imports re,
    # enum, fnmatch, urllib.parse and ipaddress), and argparse parses only an
    # argv that is not plain
    for path in sorted(PACKAGE.glob("*.py")):
        imported = _imports(ast.parse(path.read_text(encoding="utf-8")))
        assert imported.isdisjoint({"dataclasses", "pathlib"}), path
    cli = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    assert "argparse" in _imports(cli) and "argparse" not in _imports(cli, in_functions=False)
    # the check sees an import at load, and one in a function
    sample = ast.parse("import argparse\ndef f():\n    from dataclasses import dataclass\n")
    assert _imports(sample) == {"argparse", "dataclasses"}
    assert _imports(sample, in_functions=False) == {"argparse"}
