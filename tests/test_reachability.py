"""Every definition in src/jumploci is reached by the program.

A function, method or class that nothing in the package, the benchmark
or the public ``__all__`` names is code that only tests can reach; such
code belongs in tests/ or nowhere.  The check is by name: a definition
counts as reached when its name is read somewhere in src/jumploci outside
its own body (as a name or an attribute), anywhere in bench/*.py (also
as a string, since bench/tracer.py wraps functions by their names), or
is listed in ``jumploci.__all__``.  Dunder methods are exempt: the
interpreter calls them.  The package also holds no assert statement,
which python -O would strip, and no module-level import that its module
never reads.
"""

import ast
import importlib
import re
from collections import Counter

import jumploci

from conftest import REPO_ROOT

PACKAGE = REPO_ROOT / "src" / "jumploci"
BENCH = REPO_ROOT / "bench"

DEFS = (ast.FunctionDef, ast.ClassDef)


def _read_names(tree, strings=False):
    """Counter of the names a tree reads: Name ids, attribute names and,
    with strings, string constants."""
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif (strings and isinstance(node, ast.Constant)
              and isinstance(node.value, str)):
            out[node.value] += 1
    return out


def unreached_definitions():
    """(module:line, name) of every non-dunder definition in the package
    that nothing names by the rule in the module docstring."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    in_src = Counter()
    for tree in trees.values():
        in_src += _read_names(tree)
    outside = set(jumploci.__all__)
    for path in sorted(BENCH.glob("*.py")):
        outside |= set(_read_names(ast.parse(path.read_text(encoding="utf-8")),
                                   strings=True))
    offenders = []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, DEFS):
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if name in outside:
                continue
            if in_src[name] - _read_names(node)[name] > 0:
                continue
            offenders.append(f"{module}:{node.lineno} {name}")
    return offenders


def test_every_definition_is_reached():
    offenders = unreached_definitions()
    assert not offenders, ("definitions that only tests reach (move them "
                           "into tests/ or delete them):\n  "
                           + "\n  ".join(offenders))


def test_no_assert_statements_in_the_package():
    # An assert vanishes under python -O, so invariants are checked with
    # explicit errors (InvariantError) instead.
    offenders = [f"{path.name}:{node.lineno}"
                 for path in sorted(PACKAGE.glob("*.py"))
                 for node in ast.walk(ast.parse(path.read_text(
                     encoding="utf-8")))
                 if isinstance(node, ast.Assert)]
    assert not offenders, "assert statements in src/jumploci: " + ", ".join(
        offenders)


def unused_imports():
    """module:line name of every name a module-level import binds in
    src/jumploci that the module never reads as a name.  __init__.py
    re-exports, and lines marked ``# noqa: F401`` are kept on purpose."""
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        text = path.read_text(encoding="utf-8")
        lines = text.splitlines()
        tree = ast.parse(text)
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        for node in tree.body:
            if (not isinstance(node, (ast.Import, ast.ImportFrom))
                    or getattr(node, "module", None) == "__future__"
                    or any("# noqa: F401" in line for line
                           in lines[node.lineno - 1:node.end_lineno])):
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in read:
                    offenders.append(f"{path.name}:{node.lineno} {name}")
    return offenders


def test_every_module_level_import_is_read():
    offenders = unused_imports()
    assert not offenders, "unused imports: " + ", ".join(offenders)


def stale_readme_names():
    """Every backticked module.attr[.attr] in README.md whose first part is
    a module of the package and that getattr does not resolve; a file name
    such as twisted.py is not a name."""
    modules = {path.stem for path in PACKAGE.glob("*.py")}
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    stale = []
    for span in re.findall(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)`", readme):
        module, *attrs = span.split(".")
        if module not in modules or span.endswith(".py"):
            continue
        value = importlib.import_module(f"jumploci.{module}")
        for attr in attrs:
            if not hasattr(value, attr):
                stale.append(span)
                break
            value = getattr(value, attr)
    return stale


def test_readme_names_only_what_exists():
    stale = stale_readme_names()
    assert not stale, "README.md names what the package lacks: " + ", ".join(
        stale)
