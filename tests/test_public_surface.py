"""Every public top-level function or class in the package is used by the
program or exported: no public name lives only for the tests."""

import ast
from collections import Counter
from pathlib import Path

import addcolor

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "addcolor"
PROGRAM = [PACKAGE, ROOT / "scripts", ROOT / "perfbench"]


def names_used(node):
    """How often each name is read in `node`, as a bare name or an attribute."""
    used = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            used[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            used[sub.attr] += 1
    return used


def test_public_definitions_are_used():
    used = Counter()
    for directory in PROGRAM:
        for path in sorted(directory.glob("*.py")):
            used += names_used(ast.parse(path.read_text()))
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if name.startswith("_") or name in addcolor.__all__:
                continue
            # a recursive call is no use by the program
            if used[name] - names_used(node)[name] == 0:
                unused.append(f"{path.name}:{node.lineno} {name}")
    assert unused == []
