"""Source hygiene of the package, checked with the standard library's ast:
no top-level import goes unused, no line runs past 79 characters, the
lifting oracle imports nothing of the package but its errors, only the
command line's main and its stderr helpers call print, every
functools memo is bounded by a module-level constant, every sized memo
is emptied by solubility.clear_caches, every ResourceBound carries its
work estimate, and the command line reads every option its parser
declares."""

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


def _module_constants(tree) -> set[str]:
    """Upper-case names the module binds at top level, by assignment or
    by import."""
    names = set()
    for node in _top_level(tree.body):
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            names |= {t.id for t in targets if isinstance(t, ast.Name)}
        elif isinstance(node, ast.ImportFrom):
            names |= {alias.asname or alias.name for alias in node.names}
    return {name for name in names if name.isupper()}


def _memo_names(tree) -> dict[str, str]:
    """The local names of functools.lru_cache and functools.cache that a
    `from functools import ...` binds, mapped to the real name."""
    return {alias.asname or alias.name: alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "functools"
            for alias in node.names if alias.name in ("lru_cache", "cache")}


def unbounded_memos(path: Path) -> list[str]:
    """file:line for each functools cache or lru_cache that does not take
    maxsize= from a module-level constant: a bare @lru_cache or @cache,
    a positional or literal maxsize, or none at all."""
    tree = ast.parse(path.read_text(), str(path))
    constants = _module_constants(tree)
    aliases = _memo_names(tree)

    def memo(node) -> str | None:
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            return aliases.get(node.id)
        if (isinstance(node, ast.Attribute)
                and node.attr in ("lru_cache", "cache")
                and isinstance(node.value, ast.Name)
                and node.value.id == "functools"):
            return node.attr
        return None

    called = {id(node.func) for node in ast.walk(tree)
              if isinstance(node, ast.Call)}
    bad = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and memo(node.func):
            maxsize = [kw.value for kw in node.keywords
                       if kw.arg == "maxsize"]
            if (memo(node.func) == "cache" or node.args or not maxsize
                    or not isinstance(maxsize[0], ast.Name)
                    or maxsize[0].id not in constants):
                bad.append(f"{path.name}:{node.lineno}")
        elif memo(node) and id(node) not in called:
            bad.append(f"{path.name}:{node.lineno}")
    return bad


def sized_memos(path: Path) -> list[str]:
    """The names the file binds at top level to a _SizedMemo() call."""
    tree = ast.parse(path.read_text(), str(path))
    return [target.id for node in _top_level(tree.body)
            if isinstance(node, ast.Assign)
            and isinstance(node.value, ast.Call)
            and isinstance(node.value.func, ast.Name)
            and node.value.func.id == "_SizedMemo"
            for target in node.targets if isinstance(target, ast.Name)]


def cleared(path: Path, function: str) -> set[str]:
    """The names whose .clear() the file's top-level function calls."""
    tree = ast.parse(path.read_text(), str(path))
    body = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef)
                and node.name == function)
    return {node.func.value.id for node in ast.walk(body)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "clear"
            and isinstance(node.func.value, ast.Name)}


def unestimated_refusals(path: Path) -> list[str]:
    """file:line for each ResourceBound call that does not pass
    required=, the work estimate every refusal carries."""
    tree = ast.parse(path.read_text(), str(path))
    return [f"{path.name}:{line}" for line in sorted(
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id == "ResourceBound"
        and "required" not in {kw.arg for kw in node.keywords})]


def _dest(call) -> str:
    """The dest argparse gives an add_argument call: its dest= keyword,
    else its first long option, else its first name, with - as _."""
    for keyword in call.keywords:
        if keyword.arg == "dest":
            return ast.literal_eval(keyword.value)
    names = [ast.literal_eval(arg) for arg in call.args]
    long = [name for name in names if name.startswith("--")]
    return (long or names)[0].lstrip("-").replace("-", "_")


def unread_options(path: Path) -> list[str]:
    """file:line dest for each add_argument in the file's _build_parser
    whose dest the file never reads as args.<dest>."""
    tree = ast.parse(path.read_text(), str(path))
    read = {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "args"}
    parser = next(node for node in tree.body
                  if isinstance(node, ast.FunctionDef)
                  and node.name == "_build_parser")
    return [f"{path.name}:{node.lineno} {_dest(node)}"
            for node in ast.walk(parser)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "add_argument"
            and _dest(node) not in read]


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


def test_every_memo_is_bounded_by_a_module_constant():
    assert [bad for path in SOURCES for bad in unbounded_memos(path)] == []


def test_the_memo_check_sees_unbounded_memos(tmp_path):
    source = tmp_path / "probe.py"
    source.write_text(
        "import functools\n"
        "from functools import cache, lru_cache\n"
        "from .padic import CLASS_TABLE_CACHE_SIZE\n"
        "SIZE = 64\n"
        "small = 8\n"
        "@lru_cache\n"
        "def a(x): return x\n"
        "@cache\n"
        "def b(x): return x\n"
        "@lru_cache(maxsize=None)\n"
        "def c(x): return x\n"
        "@functools.lru_cache(maxsize=128)\n"
        "def d(x): return x\n"
        "@lru_cache(SIZE)\n"
        "def e(x): return x\n"
        "@lru_cache(maxsize=small)\n"
        "def f(x): return x\n"
        "g = lru_cache(maxsize=SIZE)(len)\n"
        "@lru_cache(maxsize=SIZE, typed=True)\n"
        "def h(x): return x\n"
        "@functools.lru_cache(maxsize=CLASS_TABLE_CACHE_SIZE)\n"
        "def i(x): return x\n"
        "memo = functools.lru_cache\n")
    assert unbounded_memos(source) == [
        "probe.py:6", "probe.py:8", "probe.py:10", "probe.py:12",
        "probe.py:14", "probe.py:16", "probe.py:23"]
    # a name cache that functools did not bind is no memo
    other = tmp_path / "cli.py"
    other.write_text("from functools import lru_cache\n"
                     "from . import cache\n"
                     "cache.load_verdicts(lru_cache)\n")
    assert unbounded_memos(other) == ["cli.py:3"]


def test_clear_caches_empties_every_sized_memo():
    memos = {name for path in SOURCES for name in sized_memos(path)}
    assert {"_BOX_TABLES", "_WALK_TABLES"} <= memos
    solubility = Path(locsol.__file__).parent / "solubility.py"
    assert memos - cleared(solubility, "clear_caches") == set()


def test_the_sized_memo_check_sees_what_it_looks_for(tmp_path):
    source = tmp_path / "probe.py"
    source.write_text(
        "from .padic import _SizedMemo\n"
        "_A = _SizedMemo()\n"
        "_B = _C = _SizedMemo()\n"
        "_D = dict()\n"
        "def f():\n"
        "    _E = _SizedMemo()\n"
        "    return _E\n"
        "def clear_caches():\n"
        "    _A.clear()\n"
        "    _D.clear()\n"
        "    _B.pop(1)\n")
    assert sized_memos(source) == ["_A", "_B", "_C"]
    assert cleared(source, "clear_caches") == {"_A", "_D"}


def test_every_refusal_carries_its_work_estimate():
    assert [bad for path in SOURCES
            for bad in unestimated_refusals(path)] == []


def test_the_estimate_check_sees_a_refusal_without_one(tmp_path):
    source = tmp_path / "probe.py"
    source.write_text(
        "from .errors import ResourceBound\n"
        "def f(n):\n"
        "    if n > 10:\n"
        "        raise ResourceBound(f'{n} steps', required=n)\n"
        "    if n < 0:\n"
        "        raise ResourceBound('negative')\n"
        "    return ResourceBound('n', n)\n")
    assert unestimated_refusals(source) == ["probe.py:6", "probe.py:7"]


def test_the_command_line_reads_every_option_it_declares():
    assert unread_options(Path(locsol.__file__).parent / "cli.py") == []


def test_the_option_check_sees_an_unread_option(tmp_path):
    source = tmp_path / "cli.py"
    source.write_text(
        "import argparse\n"
        "def _build_parser():\n"
        "    parser = argparse.ArgumentParser()\n"
        "    parser.add_argument('-k', type=int)\n"
        "    parser.add_argument('-s', '--subset', default='all')\n"
        "    parser.add_argument('--cache-dir', dest='store')\n"
        "    parser.add_argument('--no-witness', action='store_true')\n"
        "    parser.add_argument('coefficients', nargs='+')\n"
        "    return parser\n"
        "def main(argv=None):\n"
        "    args = _build_parser().parse_args(argv)\n"
        "    return args.k, args.s, args.cache_dir, args.no_witness\n")
    assert unread_options(source) == [
        "cli.py:5 subset", "cli.py:6 store", "cli.py:8 coefficients"]
