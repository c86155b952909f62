"""I1 — interpreter dispatch-loop throughput (simulated instructions/s).

Not a paper figure: this guards the simulator's own speed, which bounds
every sweep in the suite.  The benchmark executes a fixed baseline SpMV
program repeatedly through :meth:`Soc.run` and reports host-side
instructions per second, archiving the number so regressions in the
dispatch loop (:mod:`repro.cpu.core`) are visible across runs.
"""

from repro.analysis.tables import Table
from repro.kernels import spmv_kernel
from repro.system.soc import Soc
from repro.workloads.synthetic import random_csr, random_dense_vector


def _spmv_setup(size: int = 64, sparsity: float = 0.5):
    matrix = random_csr((size, size), sparsity, seed=11)
    v = random_dense_vector(size, seed=12)
    soc = Soc()
    soc.load_csr(matrix)
    soc.load_dense_vector(v)
    soc.allocate_output(matrix.nrows)
    program = soc.assemble(spmv_kernel(accel=None, vector=True))
    return soc, program


def _spmv_hht_setup(size: int = 64, sparsity: float = 0.5):
    matrix = random_csr((size, size), sparsity, seed=11)
    v = random_dense_vector(size, seed=12)
    soc = Soc()
    soc.load_csr(matrix)
    soc.load_dense_vector(v)
    soc.allocate_output(matrix.nrows)
    program = soc.assemble(spmv_kernel(accel="hht", vector=True))
    return soc, program


def test_interpreter_dispatch_speed(benchmark, record_table):
    soc, program = _spmv_setup()
    result = benchmark(soc.run, program)

    mean_seconds = benchmark.stats.stats.mean
    ips = result.instructions / mean_seconds
    table = Table(
        "interpreter dispatch throughput (64x64 SpMV baseline, VL=8)",
        ["instructions", "mean_seconds", "instructions_per_second"],
    )
    table.add_row(result.instructions, mean_seconds, ips)
    record_table(table, "interpreter_speed")

    # Loose floor: even a slow CI box manages two orders of magnitude
    # more; this only catches catastrophic dispatch-loop regressions.
    assert ips > 20_000


def test_mmio_fifo_pop_speed(benchmark, record_table):
    """I2 — host-side cost of the HHT FIFO pop path.

    Every vector load from a FIFO address walks ``Bus._find_device``
    (a bisect over the sorted device bases) before the HHT front-end
    pops its buffer, so this benchmark guards the device-lookup fast
    path the same way I1 guards the dispatch loop.
    """
    soc, program = _spmv_hht_setup()
    result = benchmark(soc.run, program)

    mean_seconds = benchmark.stats.stats.mean
    fifo_reads = result.stats["soc.hht.fifo_reads"]
    pops_per_second = fifo_reads / mean_seconds
    table = Table(
        "MMIO FIFO pop throughput (64x64 SpMV on the ASIC HHT, VL=8)",
        ["fifo_reads", "mean_seconds", "pops_per_second"],
    )
    table.add_row(fifo_reads, mean_seconds, pops_per_second)
    record_table(table, "mmio_fifo_pop_speed")

    # Same spirit as I1: only catastrophic regressions in the bus
    # routing / FIFO pop path should trip this.
    assert pops_per_second > 2_000


def test_probe_hook_overhead(record_table):
    """I3 — the probe hook chain must be free when nobody subscribes.

    The unified SimSession loop replaced the old dedicated profile /
    non-profile loops with one body that tests a hook tuple per
    instruction.  This gate holds that design to its promise: running
    with a probe that overrides *nothing* (empty hook chains, same
    fast path) may cost at most 5% over a bare run.  A probe that does
    subscribe to on_instruction is timed too, informationally — that
    cost is expected and not gated.

    Methodology: each round times a bare run and a probed run
    back-to-back (alternating which goes first) and keeps their ratio,
    and the gate checks the median ratio across rounds.  Adjacent-pair
    ratios cancel the slow drift (frequency scaling, noisy CI
    neighbours) that made best-of-N absolute times unstable on shared
    boxes, and alternating the order cancels any within-pair drift
    bias.
    """
    import statistics
    import time

    from repro.instrument import Probe
    from repro.telemetry import SamplerProbe

    class NoOpProbe(Probe):
        """Overrides no hook: the loop must take the no-hooks branch."""

    class CountingProbe(Probe):
        def __init__(self):
            self.n = 0

        def on_instruction(self, pc, ins, cycle_start, cycle_end):
            self.n += 1

    variants = {
        "bare": lambda: (),
        "noop_probe": lambda: (NoOpProbe(),),
        "counting_probe": lambda: (CountingProbe(),),
        # The cyclic-sampling path must stay an inline integer compare;
        # gated below alongside the no-op chain.
        "sampler_probe": lambda: (SamplerProbe(every=4096),),
    }

    def timed(probes):
        soc, program = _spmv_setup(size=48)
        start = time.perf_counter()
        result = soc.run(program, probes=probes)
        return time.perf_counter() - start, result.instructions

    rounds = 13
    ratios = {name: [] for name in variants}
    seconds = {name: 0.0 for name in variants}
    for r in range(rounds):
        for name, make_probes in variants.items():
            if name == "bare":
                continue
            if r % 2:
                elapsed, n = timed(make_probes())
                bare_elapsed, bare_n = timed(())
            else:
                bare_elapsed, bare_n = timed(())
                elapsed, n = timed(make_probes())
            # Identical work per variant, or the ratio is meaningless.
            assert n == bare_n
            ratios[name].append(elapsed / bare_elapsed)
            seconds[name] += elapsed
            seconds["bare"] += bare_elapsed

    overhead = {"bare": 0.0}
    for name in ratios:
        if ratios[name]:
            overhead[name] = statistics.median(ratios[name]) - 1.0
    table = Table(
        "probe hook overhead (48x48 SpMV baseline, median of "
        f"{rounds} adjacent-pair ratios)",
        ["variant", "total_seconds", "overhead_vs_bare"],
    )
    for name in variants:
        table.add_row(name, seconds[name], f"{overhead[name]:+.1%}")
    record_table(table, "probe_hook_overhead")

    assert overhead["noop_probe"] <= 0.05, (
        f"empty hook chain costs {overhead['noop_probe']:+.1%} "
        "(gate: +5.0%) — the no-probe fast path has regressed"
    )
    assert overhead["sampler_probe"] <= 0.05, (
        f"cyclic sampling costs {overhead['sampler_probe']:+.1%} "
        "(gate: +5.0%) — the inline sample_due compare has regressed"
    )
