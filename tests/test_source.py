"""Source hygiene of the package, checked with the standard library's ast:
no top-level import goes unused, no line runs past 79 characters, the
lifting oracle imports nothing of the package but its errors, and only
the command line's main and its stderr helpers call print."""

import ast
import sys
from pathlib import Path

import locsol

SOURCES = sorted(Path(locsol.__file__).parent.glob("*.py"))
MAX_LINE = 79
# the functions, per file, that may call print: the command handlers
# return their output and main prints it, so there is one output path
PRINTERS = {"cli.py": {"main", "_usage_error", "_load_cache",
                       "_save_cache"}}


def _top_level(statements):
    """The module's own statements, those under a top-level if or try
    included, but none inside a function or class."""
    for node in statements:
        yield node
        if isinstance(node, (ast.If, ast.Try)):
            yield from _top_level(node.body + node.orelse)
        if isinstance(node, ast.Try):
            yield from _top_level(node.finalbody)
            for handler in node.handlers:
                yield from _top_level(handler.body)


def _exported(tree) -> set[str]:
    """The names a literal __all__ lists."""
    return {name for node in tree.body if isinstance(node, ast.Assign)
            for target in node.targets
            if isinstance(target, ast.Name) and target.id == "__all__"
            for name in ast.literal_eval(node.value)}


def unused_imports(path: Path) -> list[str]:
    """file:line name for each top-level import never read in its file;
    a name in __all__ counts as read."""
    tree = ast.parse(path.read_text(), str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= _exported(tree)
    unused = []
    for node in _top_level(tree.body):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in used:
                    unused.append(f"{path.name}:{node.lineno} {name}")
    return unused


def foreign_imports(path: Path) -> list[str]:
    """file:line module for each import, at any depth, of a module that
    is neither in the standard library nor the package's .errors."""
    tree = ast.parse(path.read_text(), str(path))
    foreign = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = ["." * node.level + (node.module or "")]
        else:
            continue
        # a relative name splits to "", which is no standard module
        foreign += [f"{path.name}:{node.lineno} {name}" for name in names
                    if name != ".errors"
                    and name.split(".")[0] not in sys.stdlib_module_names]
    return foreign


def stray_prints(path: Path) -> list[str]:
    """file:line for each print call outside the top-level functions
    that PRINTERS allows for the file."""
    tree = ast.parse(path.read_text(), str(path))
    allowed = PRINTERS.get(path.name, set())
    return [f"{path.name}:{node.lineno}" for statement in tree.body
            if not (isinstance(statement, ast.FunctionDef)
                    and statement.name in allowed)
            for node in ast.walk(statement)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "print"]


def test_the_oracle_is_independent_of_the_package():
    # `import locsol.oracle` loads the whole package, so only the
    # oracle's own source can show what it depends on
    oracle = Path(locsol.__file__).parent / "oracle.py"
    assert foreign_imports(oracle) == []


def test_no_unused_top_level_import():
    assert [bad for path in SOURCES for bad in unused_imports(path)] == []


def test_no_line_over_79_characters():
    long = [f"{path.name}:{number} ({len(line)} characters)"
            for path in SOURCES
            for number, line in enumerate(path.read_text().splitlines(), 1)
            if len(line) > MAX_LINE]
    assert long == []


def test_only_main_and_the_stderr_helpers_print():
    assert [bad for path in SOURCES for bad in stray_prints(path)] == []


def test_the_print_check_sees_a_print_in_a_handler(tmp_path):
    source = tmp_path / "cli.py"
    source.write_text(
        "import sys\n"
        "def _cmd_decide(args):\n"
        "    print(args)\n"
        "    return 0, {}, []\n"
        "def _usage_error(message):\n"
        "    print(message, file=sys.stderr)\n"
        "def main(argv=None):\n"
        "    def show(line):\n"
        "        print(line)\n"
        "    show(argv)\n"
        "print('loaded')\n")
    assert stray_prints(source) == ["cli.py:3", "cli.py:11"]
    # outside cli.py no function may print
    other = tmp_path / "padic.py"
    other.write_text("def main():\n    print(1)\n")
    assert stray_prints(other) == ["padic.py:2"]


def test_the_checks_see_what_they_look_for(tmp_path):
    source = tmp_path / "probe.py"
    source.write_text(
        "from __future__ import annotations\n"
        "import os, sys\n"
        "from json import dumps as encode, loads\n"
        "try:\n"
        "    import fcntl\n"
        "except ImportError:\n"
        "    fcntl = None\n"
        "__all__ = ['loads']\n"
        "def f():\n"
        "    import re\n"
        "    return sys.argv, fcntl\n")
    assert unused_imports(source) == ["probe.py:2 os", "probe.py:3 encode"]


def test_the_independence_check_sees_package_imports(tmp_path):
    source = tmp_path / "probe.py"
    source.write_text(
        "import operator, sympy\n"
        "from itertools import product\n"
        "from .errors import DegenerateInput\n"
        "from . import padic\n"
        "from .. import errors\n"
        "def f():\n"
        "    from locsol.padic import normalize\n"
        "    return product, operator, padic, normalize, errors\n")
    assert foreign_imports(source) == [
        "probe.py:1 sympy", "probe.py:4 .", "probe.py:5 ..",
        "probe.py:7 locsol.padic"]
