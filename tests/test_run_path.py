"""Structural guard: every kernel run takes one path.

:mod:`repro.analysis.runners` is the only code in the package that
builds a :class:`~repro.system.soc.Soc`, loads operands into it and
assembles a kernel for it, and ``Soc.run`` (with ``Cpu.run``, the
programmable HHT's helper-core stepper and the sessions themselves) the
only code that opens an interpreter session.
Likewise one module writes Algorithm 1's CSR row loop as assembly text.
This test scans the package's syntax trees, so a second copy of any of
these cannot creep back in beside them.
"""

import ast
from pathlib import Path

import repro

ROOT = Path(repro.__file__).resolve().parent

RUNNERS = {"analysis/runners.py"}
SESSION_OWNERS = {"system/soc.py", "cpu/core.py", "instrument/session.py",
                  "core/programmable.py"}

#: Methods of Soc that build a kernel run: only the runners call them.
#: (The assembler *function* ``assemble(text, ...)`` is not a method
#: call, so firmware and ``Soc.assemble`` itself may use it.)
SOC_SETUP_METHODS = {
    "assemble", "load_csr", "load_dense_vector", "load_sparse_vector",
    "load_coo_image", "load_bitvector_image", "load_smash_image",
}


def _trees():
    for path in sorted(ROOT.rglob("*.py")):
        yield path.relative_to(ROOT).as_posix(), ast.parse(
            path.read_text(), str(path))


def _calls():
    """``(module, callee name, is a method call, line)`` for every call."""
    for module, tree in _trees():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            if isinstance(node.func, ast.Attribute):
                yield module, node.func.attr, True, node.lineno
            elif isinstance(node.func, ast.Name):
                yield module, node.func.id, False, node.lineno


def _split(matches, allowed):
    inside = [m for m in matches if m[0] in allowed]
    outside = [f"{module}:{line} calls {name}"
               for module, name, _, line in matches if module not in allowed]
    return inside, outside


def test_only_the_runners_build_load_and_assemble_kernels():
    matches = [
        call for call in _calls()
        if call[1] == "Soc" or (call[2] and call[1] in SOC_SETUP_METHODS)
    ]
    inside, outside = _split(matches, RUNNERS)
    assert outside == []
    # The guard is not vacuous: the runners do all three.
    assert {name for _, name, _, _ in inside} >= {"Soc", "assemble", "load_csr"}


def test_only_soc_run_and_the_cpu_open_sessions():
    matches = [call for call in _calls()
               if call[1] in ("SimSession", "MultiCoreSession")]
    inside, outside = _split(matches, SESSION_OWNERS)
    assert outside == []
    assert {module for module, _, _, _ in inside} == SESSION_OWNERS


def test_one_module_writes_the_row_loop():
    """Kernels differ only in their per-front-end bodies: the string
    literals of exactly one module define the ``row_loop:`` label."""
    modules = {
        module for module, tree in _trees() for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
        and "row_loop:" in node.value
    }
    assert len(modules) == 1, sorted(modules)
