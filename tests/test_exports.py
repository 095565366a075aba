"""Every exported name has a caller outside the tests.

A name in diffeolab.__all__ must be used, as a plain name or an
attribute, somewhere in the package modules (not __init__.py) or in
perfbench/.  An export that only its own tests call is machinery that no
command, pipeline or suite runs.
"""

import ast
from pathlib import Path

import diffeolab

ROOT = Path(__file__).resolve().parent.parent


def _used_names() -> set[str]:
    files = [p for p in (ROOT / "src" / "diffeolab").glob("*.py")
             if p.name != "__init__.py"]
    files += list((ROOT / "perfbench").glob("*.py"))
    used = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def test_every_export_has_a_caller():
    used = _used_names()
    assert sorted(set(diffeolab.__all__) - used) == []
