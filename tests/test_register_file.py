"""Structural guard: one typed register file.

:class:`~repro.cpu.core.Cpu` builds float32/int32 views of its vector
registers (``vf``/``vi``) once per reset, in ``_reset_local``, and both
backends index those views.  A vector instruction that re-views a
register slice, or a compiled run that builds its own views, pays per
instruction or per run for what the Cpu already holds.  This test scans
the syntax trees, so neither can creep back in.
"""

import ast
from pathlib import Path

import repro

ROOT = Path(repro.__file__).resolve().parent


def _tree(module: str) -> ast.Module:
    path = ROOT / module
    return ast.parse(path.read_text(), str(path))


def _is_register(node: ast.AST) -> bool:
    """True for ``self.v`` (or a local ``v``) indexed any number of times."""
    while isinstance(node, ast.Subscript):
        node = node.value
    return (isinstance(node, ast.Attribute) and node.attr == "v"
            and isinstance(node.value, ast.Name) and node.value.id == "self"
            ) or (isinstance(node, ast.Name) and node.id == "v")


def _views(node: ast.AST):
    """``(line, receiver is a register slice)`` for each ``.view(`` call."""
    for call in ast.walk(node):
        if (isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
                and call.func.attr == "view"):
            yield call.lineno, _is_register(call.func.value)


def _cpu_methods():
    cpu = next(node for node in _tree("cpu/core.py").body
               if isinstance(node, ast.ClassDef) and node.name == "Cpu")
    return {node.name: node for node in cpu.body
            if isinstance(node, ast.FunctionDef)}


def test_vector_handlers_index_the_typed_views():
    methods = _cpu_methods()
    offenders = [
        f"Cpu.{name}:{line}" for name, method in methods.items()
        if name != "_reset_local"
        for line, on_register in _views(method) if on_register
    ]
    assert offenders == []
    # The guard is not vacuous: the reset builds the views.
    assert any(on_register is False
               for _, on_register in _views(methods["_reset_local"]))
    assert any(name.startswith("_op_v") for name in methods)


def test_the_compiled_backend_builds_no_register_views():
    tree = _tree("cpu/compiled.py")
    calls = [line for line, _ in _views(tree)]
    emitted = [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
        and ".view(" in node.value
    ]
    assert calls == [] and emitted == []
    # Its blocks read the Cpu's views instead.
    constants = {node.value for node in ast.walk(tree)
                 if isinstance(node, ast.Constant)
                 and isinstance(node.value, str)}
    assert {"    _vf = cpu.vf", "    _vi = cpu.vi"} <= constants
