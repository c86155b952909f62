"""The one canonical execution path: :class:`SimSession`.

Every way of running a program on the simulated machine — ``Soc.run``
(which the kernel runners, ``repro trace`` and the profiler go
through), ``Cpu.run`` and the programmable HHT's helper core, which
keeps its own session and resumes it with :meth:`SimSession.interpret`
once per row — is one ``SimSession`` (or, with several cores, one
:class:`MultiCoreSession`): resolve the entry point, then drive a single
interpreter loop.  The loop runs one instruction per dispatch, each a
*one-instruction translation* from :mod:`repro.cpu.compiled`, the one
definition of every op, bound to the core the first time its pc runs.
The compiled backend's blocks are translations of the same definitions,
so they equal their one-instruction translations run one by one.
What used to be forked loops (profiling, tracing) is a chain of
per-event hooks contributed by :class:`~repro.instrument.probes.Probe`
objects.

The hook chains are built from *overridden* probe methods only, and the
loop skips all hook bookkeeping when the chain is empty, so a session
with no probes attached executes the same work per instruction as a
dedicated loop — bit-identical cycles, and (by CI gate) within a few
percent of its dispatch rate.

Memory-side events (port issues, buffer fills, FIFO pops) are published
by their components through a ``probe_sink`` attribute: ``None`` by
default (one ``is None`` test per event), set by the session for the
duration of the run when some probe subscribed.
"""

from __future__ import annotations

from ..cpu.compiled import CompiledBackend, run_compiled
from ..cpu.core import Cpu, CpuStats, SimulationError
from ..isa.program import Program
from ..memory.port import MemoryPort
from .probes import Probe, ProbeHalt


def _overridden(probe: Probe, method: str):
    """The bound hook if *probe*'s class overrides *method*, else None."""
    if getattr(type(probe), method) is getattr(Probe, method):
        return None
    return getattr(probe, method)


def _hooks(probes, method: str) -> tuple:
    return tuple(
        hook for hook in (_overridden(p, method) for p in probes)
        if hook is not None
    )


class _EventSink:
    """Fan-out target installed on components' ``probe_sink`` slots."""

    __slots__ = ("_port_hooks", "_fill_hooks", "_fifo_hooks", "_tlb_hooks")

    def __init__(self, port_hooks, fill_hooks, fifo_hooks, tlb_hooks=()):
        self._port_hooks = port_hooks
        self._fill_hooks = fill_hooks
        self._fifo_hooks = fifo_hooks
        self._tlb_hooks = tlb_hooks

    def port_issue(self, port, requester, slot, count, waited):
        for hook in self._port_hooks:
            hook(port, requester, slot, count, waited)

    def buffer_fill(self, engine):
        for hook in self._fill_hooks:
            hook(engine)

    def fifo_read(self, hht, stream, cycle, wait, count):
        for hook in self._fifo_hooks:
            hook(hht, stream, cycle, wait, count)

    def tlb_walk(self, core, vpn, levels, cycle_start, cycle_end):
        for hook in self._tlb_hooks:
            hook(core, vpn, levels, cycle_start, cycle_end)


def _walk(component):
    yield component
    for child in component.children:
        yield from _walk(child)


class SimSession:
    """One program execution: entry resolution, hook chain, run loop.

    ``system`` (usually the owning :class:`~repro.system.soc.Soc`) is
    the component tree searched for memory ports and HHTs when a probe
    subscribed to their events; without it the CPU's bus subtree is
    used, so CPU-side port traffic is still observable on a bare core.
    """

    def __init__(self, cpu: Cpu, program: Program, *,
                 entry: int | str | None = None,
                 probes: tuple[Probe, ...] = (),
                 system=None):
        self.cpu = cpu
        self.program = program
        self.system = system
        self.probes: tuple[Probe, ...] = tuple(probes)

        if isinstance(entry, str):
            self._pc = program.entry_index(entry)
        else:
            self._pc = int(entry or 0)
        # pc -> the one-instruction translation there, bound to cpu the
        # first time the pc runs (a compiled run binds none unless it
        # reaches its budget tail).
        self._steps: dict[int, object] = {}
        self._backend: CompiledBackend | None = None
        # The instruction budget counts from here, once, however many
        # runs resume the session.
        self._limit = cpu.counters.instructions + cpu.config.max_instructions
        cpu.halted = False

        self._instr_hooks = _hooks(self.probes, "on_instruction")
        self._port_hooks = _hooks(self.probes, "on_port_issue")
        self._fill_hooks = _hooks(self.probes, "on_buffer_fill")
        self._fifo_hooks = _hooks(self.probes, "on_fifo_read")
        self._tlb_hooks = _hooks(self.probes, "on_tlb_walk")
        self._sinks = bool(self._port_hooks or self._fill_hooks
                           or self._fifo_hooks or self._tlb_hooks)
        # Cyclic samplers: [next_due_cycle, stride, hook] per probe that
        # overrides on_sample with a positive sample_every.  The run
        # loop folds the stride test into the instruction-budget compare
        # it already pays (checking the clock only every _sample_chunk
        # instructions), so an attached sampler adds no per-instruction
        # work at all.
        self._sample_state = [
            [0, int(p.sample_every), hook]
            for p in self.probes
            if (hook := _overridden(p, "on_sample")) is not None
            and int(getattr(p, "sample_every", 0)) >= 1
        ]
        self._sample_due: int | None = None
        self._sample_chunk = 1
        self._attached: list = []
        # Probes are notified when the first run starts.
        self._started = not self.probes

    # ------------------------------------------------------------------
    # Error construction (the single source of both messages)
    # ------------------------------------------------------------------
    def _pc_error(self, pc: int) -> SimulationError:
        return SimulationError(
            f"PC out of range: {pc} (program {self.program.name})"
        )

    def _budget_error(self, budget: int) -> SimulationError:
        return SimulationError(
            f"instruction budget of {budget} exhausted in {self.program.name}"
        )

    def _bind_step(self, pc: int):
        """Bind the one-instruction translation at *pc* (its first run)."""
        if not 0 <= pc < len(self.program.instructions):
            raise self._pc_error(pc)
        if self._backend is None:
            self._backend = CompiledBackend(self.cpu)
        fn = self._steps[pc] = self._backend.bind_step(self.program, pc)
        return fn

    # ------------------------------------------------------------------
    # Event-sink attachment
    # ------------------------------------------------------------------
    def _attach(self) -> None:
        sink = _EventSink(self._port_hooks, self._fill_hooks,
                          self._fifo_hooks, self._tlb_hooks)
        root = self.system if self.system is not None else self.cpu.bus
        for comp in _walk(root):
            if isinstance(comp, MemoryPort):
                if self._port_hooks:
                    comp.probe_sink = sink
                    self._attached.append(comp)
            elif getattr(comp, "publishes_tlb_events", False):
                if self._tlb_hooks:
                    comp.probe_sink = sink
                    self._attached.append(comp)
            elif getattr(comp, "publishes_stream_events", False):
                # Accelerator front-ends (HHT, SSR, ...) publish buffer
                # fill / FIFO read events through the same sink.
                if self._fill_hooks or self._fifo_hooks:
                    comp.probe_sink = sink
                    self._attached.append(comp)
                    # An engine created by an earlier START on the same
                    # device keeps publishing.
                    engine = getattr(comp, "engine", None)
                    if engine is not None:
                        engine.probe_sink = sink

    def _start_probes(self) -> None:
        """Attach the event sinks, at the start of every run (the end of
        every run detaches them), and notify the probes at the first."""
        if self._sinks:
            self._attach()
        if self._started:
            return
        self._started = True
        for probe in self.probes:
            probe.on_session_start(self)
        if self._sample_state:
            cycle = self.cpu.cycle
            for entry in self._sample_state:
                every = entry[1]
                entry[0] = cycle - cycle % every + every
            self._sample_due = min(e[0] for e in self._sample_state)
            # Clock checkpoints every stride/8 instructions: each
            # instruction costs >= 1 cycle, so a sample fires within
            # ~1/8 of its stride even on stall-free code, and the run
            # loop's per-instruction work stays identical to a bare run.
            self._sample_chunk = max(
                1, min(e[1] for e in self._sample_state) // 8
            )

    def _fire_samplers(self, cycle: int) -> int | None:
        """Fire every due on_sample hook; return the next due cycle."""
        nxt: int | None = None
        for entry in self._sample_state:
            due, every, hook = entry
            if cycle >= due:
                hook(self, cycle)
                due = cycle - cycle % every + every
                entry[0] = due
            if nxt is None or due < nxt:
                nxt = due
        self._sample_due = nxt
        return nxt

    def _detach(self) -> None:
        for comp in self._attached:
            comp.probe_sink = None
            engine = getattr(comp, "engine", None)
            if engine is not None:
                engine.probe_sink = None
        self._attached.clear()

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self) -> CpuStats:
        """Drive the program to ``halt`` (or a probe's stop); return the
        CPU's counters, exactly as ``Cpu.run`` always has."""
        # Probe-deference rule: the compiled backend executes whole
        # basic blocks, so it cannot honour per-instruction hooks or
        # event sinks.  Any probe (including samplers) forces the
        # per-instruction path; both paths are bit-identical in cycles,
        # stats, and errors.
        if not self.probes and self.cpu.config.backend == "compiled":
            return run_compiled(self)
        return self.interpret()

    def interpret(self) -> CpuStats:
        """:meth:`run` one instruction per dispatch, whatever the backend.

        The run ends at the first instruction after which ``cpu.halted``
        is set, whoever set it: the programmable HHT's emit device sets
        it at the store that completes a row, and its engine clears it
        and calls this again to resume the firmware at the next pc.
        Between runs the caller may move ``cpu.cycle`` forward.  An
        instruction is counted and the pc moved past it before its
        ``on_instruction`` hooks run, so a probe that stops the run
        (:class:`ProbeHalt`) leaves a session that resumes at the next
        instruction.
        """
        cpu = self.cpu
        steps_get = self._steps.get
        bind_step = self._bind_step
        instructions = self.program.instructions
        budget = cpu.config.max_instructions
        stats = cpu.counters
        executed = stats.instructions
        limit = self._limit
        pc = self._pc
        hooks = self._instr_hooks
        try:
            self._start_probes()
            # With samplers attached, the budget compare doubles as the
            # sampling checkpoint: check_at stops every _sample_chunk
            # instructions to look at the clock.  Without samplers it
            # equals the budget limit and the loop is byte-identical to
            # the pre-sampling one.
            sample_due = self._sample_due
            if sample_due is None:
                chunk = 0
                check_at = limit
            else:
                chunk = self._sample_chunk
                check_at = min(limit, executed + chunk)
            while not cpu.halted:
                fn = steps_get(pc) or bind_step(pc)
                if hooks:
                    at = pc
                    before = cpu.cycle
                    pc = fn(cpu)
                    executed += 1
                    ins = instructions[at]
                    for hook in hooks:
                        hook(at, ins, before, cpu.cycle)
                else:
                    pc = fn(cpu)
                    executed += 1
                if executed >= check_at:
                    if executed >= limit:
                        raise self._budget_error(budget)
                    # Flush the live counters first so samplers reading
                    # the stats registry see the current run, not the
                    # state left by the previous one.
                    stats.instructions = executed
                    stats.cycles = cpu.cycle
                    if cpu.cycle >= sample_due:
                        sample_due = self._fire_samplers(cpu.cycle)
                    check_at = min(limit, executed + chunk)
        except ProbeHalt:
            pass
        finally:
            self._pc = pc
            stats.instructions = executed
            stats.cycles = cpu.cycle
            for probe in self.probes:
                probe.on_session_end(self)
            self._detach()
        return stats

    def payloads(self) -> dict[str, object]:
        """Collect every probe's non-None payload, keyed by probe name."""
        out: dict[str, object] = {}
        for probe in self.probes:
            data = probe.payload()
            if data is not None:
                out[probe.name] = data
        return out


class MultiCoreSession(SimSession):
    """One program, every core: the ``n_cores > 1`` execution loop.

    Each core gets a child :class:`SimSession` holding its bound
    one-instruction translations and program counter; this session
    arbitrates between them round-robin by earliest core clock (ties
    broken by core index), executing one instruction per pick.  Because
    the shared memory port timestamps requests with the issuing core's
    clock, keeping the core clocks within one instruction of each other
    makes port requests arrive in (approximately) global time order —
    which is what makes the existing queue-wait accounting meaningful
    across cores.

    A core starts at the program's ``core{k}`` label when it defines one
    (the row-partitioned kernels do; each partition ends in ``halt``),
    otherwise at the common entry.  The run ends when every core halted:
    ``cycles`` is the slowest core's clock, ``instructions`` the total
    retired.

    Probes attach once, here: ``on_core_select`` tags the following
    ``on_instruction`` events with the active core, and the event sink
    covers every port/TLB/stream component exactly as single-core.

    This loop is the only multi-core execution path: ``cpu.backend``
    selects the compiled backend for single-core runs only, so every
    multi-core run gives the same cycles and stats on both backends.
    """

    def __init__(self, cpus, program: Program, *,
                 entry: int | str | None = None,
                 probes: tuple[Probe, ...] = (),
                 system=None):
        cpus = list(cpus)
        if len(cpus) < 2:
            raise ValueError("MultiCoreSession needs >= 2 cores")
        super().__init__(cpus[0], program, entry=0 if entry is None else entry,
                         probes=probes, system=system)
        self.cpus = cpus
        self.cores = tuple(cpu.name for cpu in cpus)
        self._core_hooks = _hooks(self.probes, "on_core_select")
        self._sessions = []
        for k, cpu in enumerate(cpus):
            core_entry = f"core{k}" if f"core{k}" in program.labels else entry
            self._sessions.append(
                SimSession(cpu, program, entry=core_entry, system=system)
            )

    def run(self) -> CpuStats:
        cpus = self.cpus
        sessions = self._sessions
        instructions = self.program.instructions
        executed = [cpu.counters.instructions for cpu in cpus]
        limits = [s._limit for s in sessions]
        hooks = self._instr_hooks
        core_hooks = self._core_hooks
        current = -1
        try:
            self._start_probes()
            sample_due = self._sample_due
            while True:
                sel = -1
                sel_cycle = 0
                for i, cpu in enumerate(cpus):
                    if cpu.halted:
                        continue
                    c = cpu.cycle
                    if sel < 0 or c < sel_cycle:
                        sel = i
                        sel_cycle = c
                if sel < 0:
                    break
                cpu = cpus[sel]
                s = sessions[sel]
                if core_hooks and sel != current:
                    current = sel
                    name = cpu.name
                    for hook in core_hooks:
                        hook(name)
                pc = s._pc
                fn = s._steps.get(pc) or s._bind_step(pc)
                s._pc = fn(cpu)
                e = executed[sel] + 1
                executed[sel] = e
                if hooks:
                    ins = instructions[pc]
                    for hook in hooks:
                        hook(pc, ins, sel_cycle, cpu.cycle)
                if e >= limits[sel]:
                    raise s._budget_error(cpu.config.max_instructions)
                if sample_due is not None and sel_cycle >= sample_due:
                    for i, other in enumerate(cpus):
                        stats = other.counters
                        stats.instructions = executed[i]
                        stats.cycles = other.cycle
                    sample_due = self._fire_samplers(sel_cycle)
        except ProbeHalt:
            pass
        finally:
            total = 0
            slowest = 0
            for i, cpu in enumerate(cpus):
                stats = cpu.counters
                stats.instructions = executed[i]
                stats.cycles = cpu.cycle
                total += executed[i]
                if cpu.cycle > slowest:
                    slowest = cpu.cycle
            for probe in self.probes:
                probe.on_session_end(self)
            self._detach()
        return CpuStats(instructions=total, cycles=slowest)
