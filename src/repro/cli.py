"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``info`` — print the simulated Table-1 system configuration.
* ``spmv`` — run one SpMV comparison (baseline vs ASIC HHT, optionally
  the programmable HHT) on a synthetic matrix and print the cycles.
* ``spmspv`` — same for SpMSpV with both HHT variants.
* ``figure`` — regenerate one paper artifact (fig4 … sec55, extensions).
* ``report`` — regenerate every artifact into a directory.
* ``corpus`` — list (or rebuild) the bundled .mtx corpus.
* ``validate`` — fast self-check of every paper claim (exit 1 on failure).
* ``stats`` — run one workload and list every stats-registry counter.
* ``trace`` — run one workload with a TraceProbe and print the
  instruction trace, or export it as Chrome trace-event JSON
  (``--chrome out.json``, opens in https://ui.perfetto.dev).
* ``timeline`` — run one workload with Timeline/Contention probes and
  print (or dump as JSON) the HHT buffer-fill timeline and the shared
  port's contention histogram; ``--sample N`` adds a stats time-series.
* ``cache`` — inspect the persistent result cache: ``info`` (shape),
  ``verify`` (read-only integrity scan; exit 1 on corruption) and
  ``prune`` (delete corrupt/stale/leftover files).
* ``obs`` — inspect a sweep's observability log (recorded with
  ``--obs-log`` / ``$REPRO_OBS_DIR``): ``tail`` (recent events),
  ``summary`` (outcomes, latency percentiles, retries, faults),
  ``trace`` (Chrome trace-event JSON for ui.perfetto.dev) and
  ``metrics`` (OpenMetrics text exposition).
* ``compare`` — bake off every accelerator front-end (scalar/vector CPU
  vs HHT vs SSR vs IndexMAC) across the sparsity sweep and emit the
  speedup figure + cycles table (``--out`` writes .txt/.csv/.json).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

FIGURES = {
    "table1": "table1_config",
    "fig4": "fig4_spmv_speedup",
    "fig5": "fig5_spmspv_speedup",
    "fig6": "fig6_spmv_wait",
    "fig7": "fig7_spmspv_wait",
    "fig8": "fig8_vector_width",
    "fig9": "fig9_dnn_layers",
    "sec55": "sec55_area_power_energy",
    "corpus": "ext_mtx_corpus",
    "programmable": "ext_programmable_hht",
    "cached": "ext_cached_system",
    "ablation": "ablation_memory",
    "banks": "ablation_banks",
    "cores": "ablation_cores",
    "compare": "compare_speedup_table",
}


def _add_engine_args(parser: argparse.ArgumentParser) -> None:
    """--jobs / --no-cache / fault-policy flags for sweep commands."""
    parser.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="worker processes for the sweep engine "
             "(default: $REPRO_JOBS, else the CPU count)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="bypass the persistent result cache "
             "($REPRO_CACHE_DIR, default ~/.cache/repro)",
    )
    parser.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-spec wall-clock budget; a spec running longer fails "
             "with SpecTimeout (default: $REPRO_TIMEOUT, else unlimited)",
    )
    parser.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="whole-batch wall-clock budget "
             "(default: $REPRO_DEADLINE, else unlimited)",
    )
    parser.add_argument(
        "--retries", type=int, default=None, metavar="N",
        help="extra attempts for a crashed/timed-out/flaky spec, with "
             "exponential backoff (default: $REPRO_RETRIES, else 0)",
    )
    parser.add_argument(
        "--on-error", choices=("raise", "skip", "collect"), default=None,
        help="disposition of a spec whose retries are exhausted "
             "(default: $REPRO_ON_ERROR, else 'raise')",
    )
    parser.add_argument(
        "--failure-report", type=Path, default=None, metavar="OUT",
        help="write the sweep's structured failure report as JSON",
    )
    parser.add_argument(
        "--obs-log", nargs="?", const="", default=None, metavar="DIR",
        help="record a structured sweep event log (JSONL + heartbeats + "
             "stats; inspect with `repro obs`); DIR roots it, bare flag "
             "uses $REPRO_OBS_DIR else ~/.cache/repro/obs",
    )
    progress = parser.add_mutually_exclusive_group()
    progress.add_argument(
        "--progress", dest="progress", action="store_true", default=None,
        help="force the live sweep progress line on (default: only when "
             "stderr is a TTY)",
    )
    progress.add_argument(
        "--no-progress", dest="progress", action="store_false",
        help="suppress the live sweep progress line",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Heterogeneous Architecture for Sparse Data "
            "Processing' (IPPS 2022) — the HHT memory-side accelerator."
        ),
    )
    parser.add_argument(
        "--backend", choices=("reference", "compiled"), default=None,
        help="execution backend for every simulation in this invocation "
             "(default: $REPRO_BACKEND, else 'reference'); 'compiled' "
             "translates basic blocks to specialized closures with "
             "bit-identical results",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    info = sub.add_parser(
        "info", help="print the simulated system configuration"
    )
    info.add_argument("--json", action="store_true",
                      help="emit the flattened configuration as JSON")
    info.add_argument("--cores", type=int, default=1, metavar="N",
                      help="describe an N-core system (default 1, the "
                           "paper's single CPU)")
    info.add_argument("--mmu", action="store_true",
                      help="describe the system with per-core TLBs and "
                           "page-table walks enabled")

    spmv = sub.add_parser("spmv", help="run one SpMV comparison")
    spmv.add_argument("--rows", type=int, default=256)
    spmv.add_argument("--cols", type=int, default=256)
    spmv.add_argument("--sparsity", type=float, default=0.5)
    spmv.add_argument("--seed", type=int, default=0)
    spmv.add_argument("--vl", type=int, default=8, choices=(1, 2, 4, 8, 16))
    spmv.add_argument("--buffers", type=int, default=2)
    spmv.add_argument(
        "--programmable", metavar="FORMAT", default=None,
        help="also run the programmable HHT with this format's firmware "
             "(csr, coo, bitvector, smash)",
    )

    spmspv = sub.add_parser("spmspv", help="run one SpMSpV comparison")
    spmspv.add_argument("--size", type=int, default=256)
    spmspv.add_argument("--sparsity", type=float, default=0.7)
    spmspv.add_argument("--vector-sparsity", type=float, default=None)
    spmspv.add_argument("--seed", type=int, default=0)
    spmspv.add_argument("--buffers", type=int, default=2)

    figure = sub.add_parser("figure", help="regenerate one paper artifact")
    figure.add_argument("which", choices=sorted(FIGURES))
    figure.add_argument("--size", type=int, default=None,
                        help="sweep matrix dimension (default 256; paper 512)")
    _add_engine_args(figure)

    report = sub.add_parser("report", help="regenerate every artifact")
    report.add_argument("--out", type=Path, default=None,
                        help="directory to write .txt/.csv tables into")
    report.add_argument("--size", type=int, default=None)
    _add_engine_args(report)

    corpus = sub.add_parser("corpus", help="bundled .mtx corpus")
    corpus.add_argument("--rebuild", action="store_true")

    val = sub.add_parser(
        "validate", help="fast self-check of every paper claim"
    )
    val.add_argument("--size", type=int, default=64)
    _add_engine_args(val)

    stats = sub.add_parser(
        "stats",
        help="run one workload and list every stats-registry counter",
    )
    stats.add_argument("--kernel", choices=("spmv", "spmv-baseline", "spmspv"),
                       default="spmv")
    stats.add_argument("--size", type=int, default=64)
    stats.add_argument("--sparsity", type=float, default=0.5)
    stats.add_argument("--seed", type=int, default=0)
    stats.add_argument("--banks", type=int, default=1,
                       help="word-interleaved RAM banks (default 1)")
    stats.add_argument("--hhts", type=int, default=1,
                       help="HHT instances on the bus (default 1)")
    stats.add_argument("--ram-latency", type=int, default=2)
    stats.add_argument("--cached", action="store_true",
                       help="add the Section 3.2 L1D in front of the RAM")
    stats.add_argument("--cores", type=int, default=1, metavar="N",
                       help="CPU cores (default 1; >1 runs the "
                            "row-partitioned pure-CPU baseline and groups "
                            "the registry by core)")
    stats.add_argument("--mmu", action="store_true",
                       help="enable the per-core TLB/page-table-walk model")
    stats.add_argument("--json", action="store_true",
                       help="emit the registry as JSON")

    trace = sub.add_parser(
        "trace",
        help="run one workload and print its instruction trace",
    )
    trace.add_argument("--kernel", choices=("spmv", "spmv-baseline", "spmspv"),
                       default="spmv")
    trace.add_argument("--size", type=int, default=16)
    trace.add_argument("--sparsity", type=float, default=0.5)
    trace.add_argument("--seed", type=int, default=0)
    trace.add_argument("--limit", type=int, default=None,
                       help="stop after this many recorded entries "
                            "(text default 200; --chrome default unbounded)")
    trace.add_argument("--only", default=None, metavar="OPS",
                       help="comma-separated mnemonics to record "
                            "(e.g. 'flw,vle32.v')")
    trace.add_argument("--chrome", type=Path, default=None, metavar="OUT",
                       help="write Chrome trace-event JSON to OUT instead "
                            "of printing text (open in ui.perfetto.dev)")

    timeline = sub.add_parser(
        "timeline",
        help="run one workload and print the HHT buffer-fill timeline "
             "and port contention histogram",
    )
    timeline.add_argument("--kernel", choices=("spmv", "spmv-baseline", "spmspv"),
                          default="spmv")
    timeline.add_argument("--size", type=int, default=16)
    timeline.add_argument("--sparsity", type=float, default=0.5)
    timeline.add_argument("--seed", type=int, default=0)
    timeline.add_argument("--bin", type=int, default=64, dest="bin_cycles",
                          help="contention histogram bin width in cycles")
    timeline.add_argument("--json", action="store_true",
                          help="emit the probe payloads as JSON")
    timeline.add_argument("--sample", type=int, default=None, metavar="N",
                          help="also sample the stats registry every N "
                               "cycles (SamplerProbe)")
    timeline.add_argument("--sample-csv", type=Path, default=None,
                          metavar="OUT",
                          help="write the sampled time-series as CSV "
                               "(implies --sample, default stride 1024)")

    cache = sub.add_parser(
        "cache",
        help="inspect or repair the persistent result cache",
    )
    cache.add_argument("action", choices=("info", "verify", "prune"),
                       help="info: shape and schema histogram; verify: "
                            "read-only integrity scan (exit 1 on "
                            "corruption); prune: delete corrupt, stale "
                            "and leftover files")
    cache.add_argument("--dir", type=Path, default=None, metavar="ROOT",
                       help="cache directory (default: $REPRO_CACHE_DIR, "
                            "else ~/.cache/repro)")
    cache.add_argument("--json", action="store_true",
                       help="emit the result as JSON")

    obs = sub.add_parser(
        "obs",
        help="inspect a sweep's observability log (--obs-log)",
    )
    obs.add_argument("action", choices=("tail", "summary", "trace", "metrics"),
                     help="tail: last events, human-readable; summary: "
                          "outcome/latency/retry/fault rollup; trace: export "
                          "Chrome trace-event JSON (open in ui.perfetto.dev); "
                          "metrics: OpenMetrics text exposition")
    obs.add_argument("--dir", type=Path, default=None, metavar="PATH",
                     help="one sweep's log directory, or an obs root (newest "
                          "sweep wins; default: $REPRO_OBS_DIR, else "
                          "~/.cache/repro/obs)")
    obs.add_argument("-n", "--count", type=int, default=20, metavar="N",
                     help="events to show for tail (default 20; 0 = all)")
    obs.add_argument("--out", type=Path, default=None, metavar="OUT",
                     help="write trace/metrics output to OUT (trace default: "
                          "sweep_trace.json inside the log directory)")
    obs.add_argument("--json", action="store_true",
                     help="raw JSON: tail prints JSONL events, summary the "
                          "full rollup document")

    compare = sub.add_parser(
        "compare",
        help="bake off every accelerator front-end on the SpMV sweep",
    )
    compare.add_argument("--size", type=int, default=None,
                         help="sweep matrix dimension (default 256; "
                              "paper 512)")
    compare.add_argument("--cores", action="store_true",
                         help="also sweep the multi-core/MMU axis and "
                              "emit the contention-scaling + VM-overhead "
                              "table (ablation_cores)")
    compare.add_argument("--out", type=Path, default=None,
                         help="directory for the figure/table artifacts "
                              "(.txt/.csv/.json)")
    _add_engine_args(compare)

    return parser


def _info_config(args):
    from .memory import MmuConfig
    from .system.config import SystemConfig

    cfg = SystemConfig.paper_table1()
    cfg.n_cores = args.cores
    if args.mmu:
        cfg.mmu = MmuConfig()
    return cfg


def _cmd_info(args) -> int:
    cfg = _info_config(args)
    n_cores, with_mmu = cfg.n_cores, cfg.mmu is not None
    if args.json:
        import json

        from .power import area_ratio_vs_ibex, system_power

        print(json.dumps(
            {
                "schema": "repro-config/1",
                "config": cfg.to_flat(),
                "content_key": cfg.content_key(),
                "hht_area_vs_ibex": area_ratio_vs_ibex(),
                "power_uw_16nm_50mhz": {
                    "cpu": system_power(16, 50, with_hht=False,
                                        n_cores=n_cores, with_mmu=with_mmu),
                    "cpu_hht": system_power(16, 50, with_hht=True,
                                            n_cores=n_cores,
                                            with_mmu=with_mmu),
                },
            },
            indent=2, sort_keys=True,
        ))
        return 0
    print("Simulated system (paper Table 1):")
    print(cfg.describe())
    from .accel import front_end
    from .power import system_power
    from .power.area import IBEX_GATES, tlb_gates

    # One area line per configured front-end, derived from its gates()
    # (the default config renders the historic "ASIC HHT area" line).
    print()
    for spec in cfg.accelerator_specs():
        fe = front_end(spec.kind)
        name = fe.summary_lines(cfg, spec)[0][0] or spec.kind
        ratio = fe.gates(cfg, spec) / IBEX_GATES
        print(f"{name + ' area':<19}: {ratio:.1%} of an Ibex core")
    if with_mmu:
        label = f"TLB area (x{n_cores})"
        print(f"{label:<19}: "
              f"{tlb_gates(cfg.mmu) / IBEX_GATES:.1%} of an Ibex core each")
    cpu_label = "CPU" if n_cores == 1 else f"{n_cores} CPUs"
    if with_mmu:
        cpu_label += "+MMU"
    cpu_uw = system_power(16, 50, with_hht=False,
                          n_cores=n_cores, with_mmu=with_mmu)
    all_uw = system_power(16, 50, with_hht=True,
                          n_cores=n_cores, with_mmu=with_mmu)
    print(f"power @16nm/50MHz  : {cpu_uw:.0f} uW "
          f"({cpu_label}) / {all_uw:.0f} uW ({cpu_label}+HHT)")
    return 0


def _cmd_spmv(args) -> int:
    from .analysis import run_spmv, run_spmv_programmable
    from .workloads import random_csr, random_dense_vector

    matrix = random_csr((args.rows, args.cols), args.sparsity, seed=args.seed)
    v = random_dense_vector(args.cols, seed=args.seed + 1)
    print(f"SpMV {matrix.nrows}x{matrix.ncols}, {matrix.sparsity:.0%} sparse, "
          f"VL={args.vl}, N={args.buffers}")
    base = run_spmv(matrix, v, accel=None, vlmax=args.vl)
    print(f"  baseline : {base.cycles:>10,} cycles")
    hht = run_spmv(matrix, v, accel="hht", vlmax=args.vl,
                   n_buffers=args.buffers)
    print(f"  ASIC HHT : {hht.cycles:>10,} cycles  "
          f"({base.cycles / hht.cycles:.2f}x, "
          f"CPU wait {hht.cpu_wait_fraction:.1%})")
    if args.programmable:
        prog = run_spmv_programmable(
            matrix, v, format_name=args.programmable, vlmax=args.vl,
            n_buffers=args.buffers,
        )
        print(f"  prog HHT : {prog.cycles:>10,} cycles  "
              f"({base.cycles / prog.cycles:.2f}x, "
              f"CPU wait {prog.cpu_wait_fraction:.1%}) "
              f"[{args.programmable} firmware]")
    return 0


def _cmd_spmspv(args) -> int:
    from .analysis import run_spmspv
    from .workloads import random_csr, random_sparse_vector

    vs = args.vector_sparsity if args.vector_sparsity is not None else args.sparsity
    matrix = random_csr((args.size, args.size), args.sparsity, seed=args.seed)
    sv = random_sparse_vector(args.size, vs, seed=args.seed + 1)
    print(f"SpMSpV {args.size}x{args.size}, matrix {matrix.sparsity:.0%} / "
          f"vector {sv.sparsity:.0%} sparse, N={args.buffers}")
    base = run_spmspv(matrix, sv, mode="baseline")
    print(f"  baseline  : {base.cycles:>10,} cycles")
    for mode, label in (("hht_v1", "variant-1"), ("hht_v2", "variant-2")):
        run = run_spmspv(matrix, sv, mode=mode, n_buffers=args.buffers)
        print(f"  {label} : {run.cycles:>10,} cycles  "
              f"({base.cycles / run.cycles:.2f}x, "
              f"CPU wait {run.cpu_wait_fraction:.1%})")
    return 0


def _figure_table(name: str, size: int | None):
    from . import analysis

    fn = getattr(analysis, FIGURES[name])
    if name in ("table1", "corpus", "programmable", "cached", "ablation", "fig9"):
        return fn()
    if name == "sec55":
        return fn(size=size) if size else fn()
    return fn(size) if size else fn()


def _cmd_figure(args) -> int:
    table = _figure_table(args.which, args.size)
    print(table.render())
    return 0


def _cmd_report(args) -> int:
    out = args.out
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
    for name in FIGURES:
        table = _figure_table(name, args.size)
        print(table.render())
        if out is not None:
            (out / f"{name}.txt").write_text(table.render())
            (out / f"{name}.csv").write_text(table.to_csv())
    if out is not None:
        print(f"tables written to {out}/")
    return 0


def _cmd_corpus(args) -> int:
    from .workloads import CORPUS_NAMES, load_corpus_matrix, write_corpus

    if args.rebuild:
        for path in write_corpus():
            print(f"wrote {path}")
    for name in CORPUS_NAMES:
        m = load_corpus_matrix(name)
        print(f"{name:10s} {m.nrows}x{m.ncols}  nnz={m.nnz:<6} "
              f"sparsity={m.sparsity:.2%}")
    return 0


def _cmd_validate(args) -> int:
    from .analysis import validate

    table, ok = validate(size=args.size)
    print(table.render())
    print("ALL CLAIMS PASS" if ok else "SOME CLAIMS FAILED")
    return 0 if ok else 1


def _cmd_stats(args) -> int:
    """Simulate one workload and dump the component-tree stats registry."""
    import json

    from .analysis import run_spmspv, run_spmv
    from .memory import CacheConfig
    from .system.config import SystemConfig
    from .workloads import random_csr, random_dense_vector, random_sparse_vector

    cfg = SystemConfig.paper_table1()
    cfg.banks = args.banks
    cfg.n_hhts = args.hhts
    cfg.ram_latency = args.ram_latency
    if args.cached:
        cfg.cache = CacheConfig()
    cfg.n_cores = args.cores
    if args.mmu:
        from .memory import MmuConfig

        cfg.mmu = MmuConfig()

    n = args.size
    multicore = cfg.n_cores > 1
    matrix = random_csr((n, n), args.sparsity, seed=args.seed)
    if args.kernel == "spmspv":
        sv = random_sparse_vector(n, args.sparsity, seed=args.seed + 1)
        # Multi-core runs are the row-partitioned pure-CPU baseline.
        mode = "baseline" if multicore else "hht_v2"
        run = run_spmspv(matrix, sv, mode=mode, config=cfg)
    else:
        v = random_dense_vector(n, seed=args.seed + 1)
        accel = "hht" if args.kernel == "spmv" and not multicore else None
        run = run_spmv(matrix, v, accel=accel, config=cfg)
    stats = run.stats

    if args.json:
        print(json.dumps(stats, indent=2, sort_keys=True))
        return 0
    print(f"{args.kernel} {n}x{n}, {matrix.sparsity:.0%} sparse, "
          f"banks={cfg.banks}, hhts={cfg.n_hhts}"
          + (f", cores={cfg.n_cores}" if multicore else "")
          + (", MMU" if cfg.mmu else "")
          + (", L1D" if cfg.cache else "")
          + f" — {len(stats)} counters:")
    width = max(len(k) for k in stats)
    if not multicore:
        for key in sorted(stats):
            print(f"  {key:<{width}}  {stats[key]}")
        return 0
    # Group the registry by core subtree so each cpuN block (and its
    # TLB) reads as one unit, with the shared components last.
    groups: dict[str, list[str]] = {}
    for key in sorted(stats):
        parts = key.split(".")
        owner = parts[1] if len(parts) > 2 and parts[1].startswith("cpu") \
            else "shared"
        groups.setdefault(owner, []).append(key)
    for owner in sorted(groups, key=lambda o: (o == "shared", o)):
        print(f"  [{owner}]")
        for key in groups[owner]:
            print(f"    {key:<{width}}  {stats[key]}")
    return 0


def _run_workload(args, probes: tuple):
    """Run the workload the trace/timeline commands observe.

    The paper Table-1 system, synthetic operands from the given seed,
    and the HHT-assisted kernel unless the baseline was requested, run
    through the kernel runners without verification.  Returns the name
    the runner gives the program (``<kernel>_<variant>``) and the run.
    """
    from .analysis.runners import run_spmspv, run_spmv
    from .workloads import random_csr, random_dense_vector, random_sparse_vector

    n = args.size
    matrix = random_csr((n, n), args.sparsity, seed=args.seed)
    if args.kernel == "spmspv":
        sv = random_sparse_vector(n, args.sparsity, seed=args.seed + 1)
        return "spmspv_hht_v2", run_spmspv(
            matrix, sv, mode="hht_v2", verify=False, probes=probes
        )
    accel = "hht" if args.kernel == "spmv" else None
    v = random_dense_vector(n, seed=args.seed + 1)
    return f"spmv_{accel or 'baseline'}", run_spmv(
        matrix, v, accel=accel, verify=False, probes=probes
    )


def _cmd_trace(args) -> int:
    """Trace one workload's execution, instruction by instruction."""
    from .instrument import TraceProbe, render_trace

    only = None
    if args.only:
        only = {op.strip() for op in args.only.split(",") if op.strip()}

    if args.chrome is not None:
        from .telemetry import ChromeTraceProbe, write_chrome_trace

        probe = ChromeTraceProbe(limit=args.limit)
        name, result = _run_workload(args, (probe,))
        path = write_chrome_trace(probe.payload(), args.chrome)
        dropped = (f", {probe.dropped_instructions} instruction slices "
                   "dropped by --limit"
                   if probe.dropped_instructions else "")
        print(f"{name}: {result.cycles:,} cycles, "
              f"{result.instructions:,} instructions{dropped}")
        print(f"chrome trace written to {path} "
              "(open in https://ui.perfetto.dev)")
        return 0

    limit = args.limit if args.limit is not None else 200
    probe = TraceProbe(limit=limit, only=only)
    name, _ = _run_workload(args, (probe,))
    entries = probe.entries
    print(f"{name}: {len(entries)} entries "
          f"(limit {limit}"
          + (f", only {sorted(only)}" if only else "") + ")")
    print(render_trace(
        entries, truncated_after=limit if probe.truncated else None,
    ))
    return 0


def _cmd_timeline(args) -> int:
    """Run one workload under timeline + contention probes."""
    import json

    from .instrument import ContentionProbe, TimelineProbe, render_timeline

    probes = [TimelineProbe(), ContentionProbe(bin_cycles=args.bin_cycles)]
    sampling = args.sample is not None or args.sample_csv is not None
    if sampling:
        from .telemetry import SamplerProbe

        probes.append(SamplerProbe(every=args.sample or 1024))
    name, result = _run_workload(args, tuple(probes))
    if args.sample_csv is not None:
        from .telemetry import write_sampler_csv

        path = write_sampler_csv(result.probe_payloads["sampler"],
                                 args.sample_csv)
        # Keep stdout pure JSON under --json; the note goes to stderr.
        note = f"sampled time-series written to {path}"
        print(note, file=sys.stderr) if args.json else print(note)
    if args.json:
        print(json.dumps(
            {
                "program": name,
                "cycles": result.cycles,
                "instructions": result.instructions,
                "probes": result.probe_payloads,
            },
            indent=2, sort_keys=True,
        ))
        return 0
    print(f"{name}: {result.cycles:,} cycles, "
          f"{result.instructions:,} instructions")
    print(render_timeline(
        result.probe_payloads["timeline"],
        result.probe_payloads["contention"],
    ))
    return 0


def _cmd_cache(args) -> int:
    """Inspect or repair the persistent result cache."""
    import json

    from .exec import ResultCache

    cache = ResultCache(args.dir) if args.dir is not None else ResultCache()
    if args.action == "info":
        info = cache.info()
        if args.json:
            print(json.dumps(info, indent=2, sort_keys=True))
            return 0
        print(f"cache root      : {info['root']}")
        print(f"schema version  : {info['schema_version']}")
        print(f"entries         : {info['entries']} "
              f"({info['total_bytes']:,} bytes)")
        for schema, count in sorted(info["schemas"].items()):
            print(f"  schema {schema:<9}: {count}")
        print(f"quarantined     : {info['quarantined_files']}")
        print(f"tmp leftovers   : {info['tmp_files']}")
        prov = info.get("provenance", {})
        print(f"with provenance : {prov.get('entries', 0)}")
        for field, title in (("backends", "backend"),
                             ("code_versions", "code"),
                             ("hosts", "host")):
            for value, count in sorted(prov.get(field, {}).items()):
                print(f"  {title} {value:<12}: {count}")
        return 0
    if args.action == "verify":
        audit = cache.verify()
        if args.json:
            print(json.dumps(audit.to_json_dict(), indent=2, sort_keys=True))
            return 0 if audit.clean else 1
        print(f"verified {audit.scanned} entries under {audit.root}: "
              f"{audit.ok} ok, {audit.foreign_schema} stale (other schema), "
              f"{len(audit.corrupt)} corrupt, "
              f"{audit.quarantined_files} quarantined, "
              f"{audit.tmp_files} tmp leftovers")
        for item in audit.corrupt:
            print(f"  CORRUPT {item['path']}: {item['reason']}")
        if not audit.clean:
            print("INTEGRITY FAILURES FOUND (run `repro cache prune` "
                  "to remove them)")
            return 1
        return 0
    removed = cache.prune()
    if args.json:
        print(json.dumps(removed, indent=2, sort_keys=True))
        return 0
    print(f"pruned {cache.root}: "
          f"{removed['corrupt']} corrupt, "
          f"{removed['foreign_schema']} stale, "
          f"{removed['quarantined']} quarantined, "
          f"{removed['tmp']} tmp "
          f"({removed['bytes_freed']:,} bytes freed)")
    return 0


def _cmd_obs(args) -> int:
    """Inspect one sweep's observability log."""
    import json

    from .obs import (
        SweepSummary,
        format_event,
        load_events,
        load_stats,
        render_metrics,
        resolve_sweep_dir,
    )

    try:
        sweep_dir = resolve_sweep_dir(args.dir)
    except FileNotFoundError as exc:
        print(exc, file=sys.stderr)
        return 1
    events = load_events(sweep_dir)
    if not events:
        print(f"no events recorded under {sweep_dir}", file=sys.stderr)
        return 1

    if args.action == "tail":
        shown = events[-args.count:] if args.count > 0 else events
        for event in shown:
            print(json.dumps(event, separators=(",", ":")) if args.json
                  else format_event(event))
        return 0

    if args.action == "trace":
        from .obs import write_sweep_trace

        out = (args.out if args.out is not None
               else sweep_dir / "sweep_trace.json")
        write_sweep_trace(events, out)
        print(f"sweep trace written to {out} (open in ui.perfetto.dev)")
        return 0

    summary = SweepSummary.from_events(events)
    if args.action == "summary":
        if args.json:
            print(json.dumps(summary.to_json_dict(), indent=2,
                             sort_keys=True))
            return 0
        print(f"sweep {sweep_dir.name} ({len(events)} events)")
        for line in summary.render_lines():
            print(f"  {line}")
        return 0

    stats = load_stats(sweep_dir) or {}
    text = render_metrics(stats, summary=summary, sweep_id=sweep_dir.name)
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(text)
        print(f"metrics written to {args.out}")
        return 0
    sys.stdout.write(text)
    return 0


def _cmd_compare(args) -> int:
    """Bake off every accelerator front-end and emit figure + table."""
    from .analysis import (
        compare_detail_table,
        compare_speedup_table,
        save_table,
    )

    figure = compare_speedup_table(args.size)
    detail = compare_detail_table(args.size)
    tables = [("compare_speedup", figure), ("compare_cycles", detail)]
    if args.cores:
        from .analysis import ablation_cores

        scaling = (ablation_cores(args.size) if args.size
                   else ablation_cores())
        tables.append(("compare_cores", scaling))
    for _, table in tables:
        print(table.render())
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        for stem, table in tables:
            (args.out / f"{stem}.txt").write_text(table.render())
            (args.out / f"{stem}.csv").write_text(table.to_csv())
            save_table(table, args.out / f"{stem}.json")
        print(f"compare artifacts written to {args.out}/")
    return 0


_COMMANDS = {
    "info": _cmd_info,
    "spmv": _cmd_spmv,
    "spmspv": _cmd_spmspv,
    "figure": _cmd_figure,
    "report": _cmd_report,
    "corpus": _cmd_corpus,
    "validate": _cmd_validate,
    "stats": _cmd_stats,
    "trace": _cmd_trace,
    "timeline": _cmd_timeline,
    "cache": _cmd_cache,
    "obs": _cmd_obs,
    "compare": _cmd_compare,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if getattr(args, "backend", None):
        # The environment is the one channel that reaches every
        # CpuConfig built in this process *and* in sweep worker
        # processes (which inherit it).
        import os

        os.environ["REPRO_BACKEND"] = args.backend
    uses_engine = hasattr(args, "jobs")
    if uses_engine:
        from .exec import configure, reset_session_stats

        configure(
            jobs=args.jobs,
            use_cache=False if args.no_cache else None,
            timeout=args.timeout,
            deadline=args.deadline,
            retries=args.retries,
            on_error=args.on_error,
            obs_dir=args.obs_log,
            progress=args.progress,
        )
        reset_session_stats()  # the throughput line is per invocation
    try:
        status = _COMMANDS[args.command](args)
    except BrokenPipeError:  # e.g. `repro-hht corpus | head`
        return 0
    if uses_engine:
        from .exec import resolve_obs_dir, session_stats

        stats = session_stats()
        if stats.total or stats.failed:
            print(stats.throughput_line())
            if resolve_obs_dir() is not None:
                from .obs import default_obs_dir

                root = resolve_obs_dir() or str(default_obs_dir())
                print(f"  obs log under {root} "
                      f"(inspect with `repro obs summary`)")
        report = stats.failure_report
        for line in report.summary_lines():
            print(f"  {line}")
        if args.failure_report is not None:
            import json

            args.failure_report.parent.mkdir(parents=True, exist_ok=True)
            args.failure_report.write_text(
                json.dumps(report.to_json_dict(), indent=2, sort_keys=True))
            print(f"failure report written to {args.failure_report}")
    return status


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
