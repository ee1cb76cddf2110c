"""Every public module-level function and class of the package, and every
public method of its classes, has a caller.

A public name that only tests use is dead weight on the package's surface:
the test belongs on the production function it mirrors, or the helper in
tests/support.py. A name counts as used when it appears as a whole word in
src/annosql or perfbench outside the lines of its own definition.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "annosql"


def _sources():
    files = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").rglob("*.py"))
    return {path: path.read_text(encoding="utf-8").splitlines() for path in files}


def _public_definitions(tree):
    """Module-level functions and classes, and the methods of those classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{node.name}.{item.name}", item


def test_every_public_definition_is_referenced():
    sources = _sources()
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse("\n".join(sources[path]))
        for label, node in _public_definitions(tree):
            if node.name.startswith("_"):
                continue
            word = re.compile(rf"\b{re.escape(node.name)}\b")
            own = range(node.lineno - 1, node.end_lineno)
            used = any(
                word.search(line)
                for other, lines in sources.items()
                for i, line in enumerate(lines)
                if not (other == path and i in own)
            )
            if not used:
                unused.append(f"{path.name}:{node.lineno} {label}")
    assert not unused, f"public definitions nothing references: {unused}"
