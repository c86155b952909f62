"""Structural guard: one typed register file, at the current VL.

:class:`~repro.cpu.core.Cpu` builds float32/int32 views of its vector
registers (``vf``/``vi``) once per reset, in ``_reset_local``, and the
views of every register's first ``vl`` words (a
:class:`~repro.cpu.core.VlViews` set) once per VL a run uses.  Every
op's translation, the one definition both backends run, indexes those
views.  A vector op that re-views or slices a register, or a compiled
run that builds its own views, pays per instruction or per run for what
the Cpu already holds.  This test scans the syntax trees of the Cpu,
of the translator and of every op's one-instruction translation, and
the emitted block sources, so neither can creep back in.

The same scans hold the class accounting to its form: every translation
charges the Cpu's counter lists by class index (``_cc[i] += n``,
``_ccy[i] += c``), never a dict or an attribute chain.
"""

import ast
from pathlib import Path

import repro
from repro.cpu import Cpu, CpuConfig, compiled
from repro.isa import assemble
from repro.memory import Bus, MemoryPort, Ram
from repro.isa.instructions import ALL_MNEMONICS
from repro.kernels.firmware import FIRMWARES
from tests.isa.test_kernel_isa import _kernel_instructions
from tests.kernels.test_kernel_streams import STREAMS, SYMBOLS, _text

ROOT = Path(repro.__file__).resolve().parent

#: The prologue line that binds the Cpu's current VlViews in a block.
VSET_PROLOGUE = "    _sv, _sf, _si, _sc = cpu.vset"


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


def _slices(node: ast.AST) -> list[int]:
    """Lines of every ``x[a:b]`` under *node*."""
    return [sub.lineno for sub in ast.walk(node)
            if isinstance(sub, ast.Subscript) and isinstance(sub.slice, ast.Slice)]


def _class(name: str) -> ast.ClassDef:
    return next(node for node in _tree("cpu/core.py").body
                if isinstance(node, ast.ClassDef) and node.name == name)


def _cpu_methods():
    return {node.name: node for node in _class("Cpu").body
            if isinstance(node, ast.FunctionDef)}


def _translation_trees() -> dict[str, ast.Module]:
    """op -> syntax tree of its one-instruction translation, for every op
    the kernels and the firmware run."""
    backend = compiled.CompiledBackend(Cpu(Bus(Ram(1 << 12), MemoryPort())))
    return {op: ast.parse(backend._translate([ins], 0).source)
            for op, ins in _kernel_instructions().items()}


#: The ops that work on the first vl words of their registers.
VL_BOUND_OPS = {"vle32.v", "vluxei32.v", "vfmacc.vv", "vfredosum.vs",
                "vsll.vi", "vmv.v.i", "vfmv.s.f", "vssrpop.v", "vlpidx.v",
                "vfmacidx"}


def test_vector_handlers_index_the_typed_views():
    methods = _cpu_methods()
    offenders = [
        f"Cpu.{name}:{line}" for name, method in methods.items()
        if name != "_reset_local"
        for line, on_register in _views(method) if on_register
    ]
    trees = _translation_trees()
    offenders += [f"{op}:{line}" for op, tree in trees.items()
                  for line, _ in _views(tree)]
    assert offenders == []
    # The guard is not vacuous: the reset builds the views, and every
    # vector op's translation is scanned.
    assert any(on_register is False
               for _, on_register in _views(methods["_reset_local"]))
    assert {op for op in trees if op.startswith("v")} >= VL_BOUND_OPS


def test_no_vector_handler_slices_a_register():
    trees = _translation_trees()
    offenders = [f"{op}:{line}" for op, tree in trees.items()
                 for line in _slices(tree)]
    assert offenders == []
    # Not vacuous: every op that works at the current VL indexes the
    # set, and the per-VL sets are where the slices are made.
    indexing = {op for op, tree in trees.items()
                if any(isinstance(node, ast.Subscript)
                       and isinstance(node.value, ast.Name)
                       and node.value.id in ("_sv", "_sf", "_si")
                       for node in ast.walk(tree))}
    assert indexing == VL_BOUND_OPS
    assert _slices(_class("_VlViewCache"))


def test_the_compiled_backend_builds_no_register_views():
    tree = _tree("cpu/compiled.py")
    calls = [line for line, _ in _views(tree)]
    strings = [node for node in ast.walk(tree)
               if isinstance(node, ast.Constant) and isinstance(node.value, str)]
    emitted = [node.lineno for node in strings
               if ".view(" in node.value or "[:vl_]" in node.value]
    assert calls == [] and emitted == []
    # Its blocks bind the Cpu's views at the current VL instead.
    assert VSET_PROLOGUE in {node.value for node in strings}


#: Every single-core vector kernel stream, so each vector op is translated.
VECTOR_STREAMS = sorted(case for case in STREAMS
                        if case.endswith("-vector") and "multicore" not in case)


def test_emitted_blocks_index_the_current_set(monkeypatch):
    """Translate the block at every pc of every vector kernel: no
    source slices to ``vl_`` or views a register, and every block that
    touches the set binds it in its prologue."""
    monkeypatch.setattr(compiled, "block_cache", {})
    cpu = Cpu(Bus(Ram(1 << 12), MemoryPort()), CpuConfig(backend="compiled"))
    backend = compiled.CompiledBackend(cpu)
    sources = []
    for case in VECTOR_STREAMS:
        program = assemble(_text(case), SYMBOLS)
        for pc in range(len(program.instructions)):
            backend.bind(program, pc)
        sources += [block.source for block in compiled.block_cache.values()]
        compiled.block_cache.clear()
    assert sources
    uses_set = 0
    for source in sources:
        assert "[:vl_]" not in source and ".view(" not in source, source
        prologue = source.split("    cycle = cpu.cycle")[0]
        if any(name in source for name in ("_sv[", "_sf[", "_si[", "=_sc")):
            assert VSET_PROLOGUE + "\n" in prologue, source
            uses_set += 1
    assert uses_set
    # A VL change rebinds the block's set and the Cpu's.
    assert any("_sv, _sf, _si, _sc = cpu.vset = cpu._vsets[_vl]" in source
               for source in sources)



def _class_charges(tree: ast.AST) -> tuple[int, list[str]]:
    """``(index charges, offenders)`` of one translation: the count of
    ``_cc[<int>] +=`` / ``_ccy[<int>] +=`` statements, and every
    ``.get(`` call, string-keyed subscript or ``counters`` /
    ``taken_branches`` attribute, the ways a class was charged before."""
    charges, offenders = 0, []
    for node in ast.walk(tree):
        if (isinstance(node, ast.AugAssign)
                and isinstance(node.target, ast.Subscript)
                and isinstance(node.target.value, ast.Name)
                and node.target.value.id in ("_cc", "_ccy")
                and isinstance(node.target.slice, ast.Constant)
                and type(node.target.slice.value) is int):
            charges += 1
        elif (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "get"):
            offenders.append(f"{node.lineno}: .get(")
        elif (isinstance(node, ast.Subscript)
                and isinstance(node.slice, ast.Constant)
                and isinstance(node.slice.value, str)):
            offenders.append(f"{node.lineno}: [{node.slice.value!r}]")
        elif (isinstance(node, ast.Attribute)
                and node.attr in ("counters", "taken_branches")):
            offenders.append(f"{node.lineno}: .{node.attr}")
    return charges, offenders


def test_no_translation_charges_a_class_through_a_dict(monkeypatch):
    """Every op's one-instruction translation, and the block at every pc
    of every kernel stream and firmware, charges its classes by index
    into the lists the prologue binds."""
    trees = _translation_trees()
    assert set(trees) == ALL_MNEMONICS
    for op, tree in trees.items():
        charges, offenders = _class_charges(tree)
        assert charges and offenders == [], (op, offenders)
    monkeypatch.setattr(compiled, "block_cache", {})
    cpu = Cpu(Bus(Ram(1 << 12), MemoryPort()), CpuConfig(backend="compiled"))
    backend = compiled.CompiledBackend(cpu)
    programs = [assemble(_text(case), SYMBOLS) for case in sorted(STREAMS)]
    programs += [make() for make in FIRMWARES.values()]
    ops, looping = set(), 0
    for program in programs:
        ops.update(ins.op for ins in program.instructions)
        for pc in range(len(program.instructions)):
            backend.bind(program, pc)
        for block in compiled.block_cache.values():
            charges, offenders = _class_charges(ast.parse(block.source))
            assert charges and offenders == [], (block.source, offenders)
            looping += block.looping
        compiled.block_cache.clear()
    assert ops == ALL_MNEMONICS and looping
