"""Every public module-level function and class of the package, and every
public method of its classes, has a caller; every position of a returned
tuple has a caller that reads it; every setting has its one default in
harness.Config; and a command that reads a config takes no flag that
restates one of its fields.

A public name that only tests use is dead weight on the package's surface:
the test belongs on the production function it mirrors, or the helper in
tests/support.py. A name counts as used when it appears as a whole word in
src/annosql or perfbench outside the lines of its own definition.
"""

import argparse
import ast
import re
from collections import defaultdict
from pathlib import Path

import pytest

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


def _callee(call):
    func = call.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)


def test_every_returned_position_is_read():
    """A package function returns only what some caller reads: where its
    result is unpacked in src/annosql or perfbench, every position is bound
    to a name not starting with "_" at one call site at least. A call passed
    as `*f(...)` reads every position."""
    functions = {
        node.name
        for path in PACKAGE.glob("*.py")
        for _label, node in _public_definitions(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.FunctionDef)
    }
    width, read, spread = {}, defaultdict(set), set()  # read: positions some call site binds
    for path, lines in _sources().items():
        for node in ast.walk(ast.parse("\n".join(lines))):
            if isinstance(node, ast.Starred) and isinstance(node.value, ast.Call):
                spread.add(_callee(node.value))
            if not (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)):
                continue
            name = _callee(node.value)
            if name not in functions:
                continue
            for target in node.targets:
                if not isinstance(target, ast.Tuple):
                    continue
                width[name] = len(target.elts)
                for i, elt in enumerate(target.elts):
                    if not (isinstance(elt, ast.Name) and elt.id.startswith("_")):
                        read[name].add(i)
    unread = sorted(
        f"{name}[{i}]"
        for name, n in width.items()
        if name not in spread
        for i in range(n)
        if i not in read[name]
    )
    assert not unread, f"returned positions no caller reads: {unread}"


def _config_fields():
    tree = ast.parse((PACKAGE / "harness.py").read_text(encoding="utf-8"))
    config = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "Config")
    return {n.target.id for n in config.body if isinstance(n, ast.AnnAssign)}


def _defaults(node):
    """(name, default) of a function's parameters or a class's fields."""
    if isinstance(node, ast.ClassDef):
        for item in node.body:
            if isinstance(item, ast.AnnAssign) and item.value is not None:
                yield item.target.id, item.value
        return
    args = node.args
    positional = args.posonlyargs + args.args
    with_default = positional[len(positional) - len(args.defaults) :]
    yield from ((a.arg, d) for a, d in zip(with_default, args.defaults))
    yield from ((a.arg, d) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None)


def test_settings_have_their_default_only_in_config():
    """Outside Config, a parameter or field named like a Config field has no
    default but None: a second default drifts from Config's unseen."""
    fields = _config_fields()
    copies = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name == "Config":
                continue
            for name, default in _defaults(node):
                if name in fields and not (isinstance(default, ast.Constant) and default.value is None):
                    copies.append(f"{path.name}:{node.lineno} {node.name}({name})")
    assert not copies, f"defaults that copy a Config setting: {copies}"


def test_no_flag_restates_a_config_field(monkeypatch):
    """A subcommand that takes --config has no flag `--x` for a Config field
    `x` or `x_path`: a second way to give a setting lets two commands read
    different inputs for the same config."""
    from annosql import cli

    parsers = []

    def capture(parser, *_args, **_kwargs):
        parsers.append(parser)
        raise SystemExit(0)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", capture)
    with pytest.raises(SystemExit):
        cli.main([])
    subcommands = next(a for a in parsers[0]._actions if isinstance(a, argparse._SubParsersAction))
    fields = _config_fields()
    restated = []
    for command, parser in subcommands.choices.items():
        flags = {s for action in parser._actions for s in action.option_strings}
        if "--config" not in flags:
            continue
        for flag in flags:
            name = flag.lstrip("-").replace("-", "_")
            if name in fields or f"{name}_path" in fields:
                restated.append(f"{command} {flag}")
    assert not restated, f"flags that restate a Config field: {restated}"
