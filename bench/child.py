"""One workload in one fresh interpreter (spawned by ``bench/run.py``).

Modes:

* ``setup``   — import, build the spec list, open the cache, print the
  monotonic clock, the probes' CPU time, the CPU time since start
  without them and the host-speed ratio, and exit; the parent times
  spawn-to-ready.
* ``measure`` — run as many whole seed blocks as fit in ``--seconds``
  (at least one) serially on an empty cache, then re-run the first
  block's batches on the filled cache; the end-to-end numbers.
* ``trace``   — run seed blocks until ``--seconds`` have passed, each
  batch through the pool (when the workload has one), then serially
  untraced, traced, traced and untraced, each pass on its own cache;
  then the block once more traced on a filled cache; the per-layer
  numbers.

``setup`` and ``measure`` sample the host's speed while they work
(``hostspeed.py``) and report times at the reference host speed; the
raw numbers go to ``raw`` in the result.

Every mode checks outputs: ``run_specs`` collects ``VerificationError``
and other failures, and every summary's digest is compared with the
golden file for seeds that have one and with the spec's first run in
every later pass.  The result goes to ``--out`` as JSON; nothing is
printed to stdout except the set-up line.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import resource
import statistics
import sys
import time
from pathlib import Path
from time import perf_counter, perf_counter_ns

from hostspeed import HostSpeed

HERE = Path(__file__).resolve().parent

#: Warm passes run in this many chunks of at least this many seconds
#: each; every chunk's rate is normalised for host speed on its own.
WARM_CHUNKS = 8
WARM_CHUNK_SECONDS = 0.5


def _setup(args):
    """Everything a run does before its first batch."""
    import workloads
    from repro.exec import FaultPlan, ResultCache

    workload = workloads.WORKLOADS[args.workload]
    os.environ["REPRO_BACKEND"] = workload.backend
    blocks = workload.blocks(args.seed, args.smoke)
    cache = ResultCache(Path(args.work) / "cache", faults=FaultPlan())
    return workload, blocks, cache


class Runner:
    """Issues batches through ``run_specs`` the way the figure code does."""

    def __init__(self, work: str):
        from repro.exec import ExecPolicy, FaultPlan, run_specs
        from repro.obs import NULL_OBS

        self.work = Path(work)
        self._options = dict(policy=ExecPolicy(on_error="collect"),
                             faults=FaultPlan(), obs=NULL_OBS, progress=False)
        self._run_specs = run_specs
        self._caches = 0

    def fresh_cache(self):
        from repro.exec import FaultPlan, ResultCache

        self._caches += 1
        return ResultCache(self.work / f"cache-{self._caches}",
                           faults=FaultPlan())

    def run(self, batches, cache, *, jobs=1, run_specs=None):
        """Run *batches* in order; (summed batch wall ns, [(spec, out)])."""
        run_specs = run_specs or self._run_specs
        wall, results = 0, []
        for batch in batches:
            start = perf_counter_ns()
            out = run_specs(batch, jobs=jobs, cache=cache, **self._options)
            wall += perf_counter_ns() - start
            results.extend(zip(batch, out))
        return wall, results


class Checker:
    """Digests every result and records every failure.

    A spec fails when ``run_specs`` returned an error for it (including
    ``VerificationError``), when its digest differs from the golden file,
    or when a later pass (warm, serial, traced) gives another digest than
    the first.
    """

    def __init__(self, workload, args):
        path = HERE / "golden" / f"{workload.golden}.json"
        golden = json.loads(path.read_text()) if path.exists() else {}
        self.golden = golden.get("smoke" if args.smoke else "full", {}) \
            .get(str(args.seed))
        self.digests: dict[str, str] = {}
        #: First failure message per failing spec.
        self.failures: dict[str, str] = {}

    def check(self, results, what: str) -> None:
        from repro.exec import RunSummary, summary_digest
        from workloads import golden_key

        for spec, out in results:
            if not isinstance(out, RunSummary):
                self.failures.setdefault(spec.label, f"{what}: {out}")
                continue
            key = golden_key(spec)
            digest = summary_digest(out.to_json_dict())[:12]
            known = self.digests.setdefault(key, digest)
            if known != digest:
                self.failures.setdefault(
                    spec.label, f"{what}: differs from its first run")
            elif self.golden is not None and self.golden.get(key) != digest:
                self.failures.setdefault(
                    spec.label,
                    f"{what}: digest {digest} != golden {self.golden.get(key)}")


def _reap_workers() -> None:
    """Wait for the pool workers ``run_specs`` left shutting down."""
    for child in multiprocessing.active_children():
        child.join(timeout=30)


def measure(args) -> dict:
    workload, blocks, cache = _setup(args)
    checker = Checker(workload, args)
    runner = Runner(args.work)
    host = HostSpeed()

    started, rates, raw_rates, points = perf_counter(), [], [], 0
    for block in blocks:
        with host.sampling():
            _, results = runner.run(block, cache)
        distinct = len({spec for spec, _ in results})
        raw_rates.append(distinct / host.wall_s())
        rates.append(distinct / host.reference_s())
        points += distinct
        checker.check(results, "cold pass")
        if len(rates) == 1:
            # After fixed work, so the number does not depend on how many
            # blocks fit in --seconds.
            peak_rss_mb = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024
        # Stop before a block that would end past --seconds, so a run's
        # length does not depend on where the last block ends.
        elapsed = perf_counter() - started
        if elapsed * (len(rates) + 1) / len(rates) > args.seconds:
            break

    first = len({spec for batch in blocks[0] for spec in batch})
    warm_rates, raw_warm_rates = [], []
    chunk_seconds = 0.0 if args.smoke else WARM_CHUNK_SECONDS
    for _ in range(3 if args.smoke else WARM_CHUNKS):
        passes, chunk_started = 0, perf_counter()
        with host.sampling():
            while not passes or perf_counter() - chunk_started < chunk_seconds:
                _, results = runner.run(blocks[0], cache)
                passes += 1
        raw_warm_rates.append(passes * first / host.wall_s())
        warm_rates.append(passes * first / host.reference_s())
    checker.check(results, "warm pass")

    return {
        "golden": workload.golden,
        "attempted": points,
        "metrics": {
            "points_per_s": statistics.median(rates),
            "warm_points_per_s": statistics.median(warm_rates),
            "peak_rss_mb": peak_rss_mb,
        },
        "raw": {
            "points_per_s": statistics.median(raw_rates),
            "warm_points_per_s": statistics.median(raw_warm_rates),
        },
        "digests": checker.digests,
        "failures": [f"{label}: {why}"
                     for label, why in checker.failures.items()],
    }


def _model_counts(results) -> dict[str, int]:
    """Simulated totals over the distinct specs of *results*."""
    from repro.exec import RunSummary

    summaries = list({spec: out for spec, out in results
                      if isinstance(out, RunSummary)}.values())
    return {
        "cpu.instructions": sum(s.instructions for s in summaries),
        "soc.cycles": sum(s.cycles for s in summaries),
        "memory.ram_requests": sum(
            s.stats["soc.ram.requests"] for s in summaries),
        "memory.queue_cycles": sum(
            s.stats["soc.ram.queue_cycles"] for s in summaries),
        "core.cpu_wait_cycles": sum(s.cpu_wait_cycles for s in summaries),
    }


def trace(args) -> dict:
    from ledger import (
        LAYERS,
        Ledger,
        percentile,
        run_specs_traced,
        tail_percentile,
        tracing,
    )
    from repro.exec import session_stats

    workload, blocks, _ = _setup(args)
    checker = Checker(workload, args)
    runner = Runner(args.work)
    pool_jobs = min(workload.pool_jobs, len(os.sched_getaffinity(0)))
    # Lazy imports, first use of every kernel and the first full-size
    # batch land here, not in a measured pass.
    runner.run(workload.make_block(args.seed, 0, True) + blocks[0][:1],
               runner.fresh_cache())
    stats_before = session_stats()
    cold, warm = Ledger(), Ledger()
    pooled_wall = serial_wall = 0
    counts = None
    started, done, attempted, instructions = perf_counter(), 0, 0, 0
    for block in blocks:
        # Each batch runs untraced, traced, traced, untraced (every pass on
        # its own cache), so neither order nor drift in host speed favours
        # one side of trace.overhead.
        pooled, *passes = (runner.fresh_cache() for _ in range(5))
        results = []
        for batch in block:
            if pool_jobs > 1:
                wall, out = runner.run([batch], pooled, jobs=pool_jobs)
                pooled_wall += wall
                checker.check(out, "pooled pass")
                _reap_workers()
            for cache, traced in zip(passes, (False, True, True, False)):
                if traced:
                    with tracing(cold):
                        _, out = runner.run([batch], cache,
                                            run_specs=run_specs_traced(cold))
                else:
                    wall, out = runner.run([batch], cache)
                    serial_wall += wall
                checker.check(out, "traced pass" if traced else "serial pass")
            results += out
        with tracing(warm):
            runner.run(block, passes[1], run_specs=run_specs_traced(warm))
        block_counts = _model_counts(results)
        attempted += len({spec for spec, _ in results})
        instructions += 2 * block_counts["cpu.instructions"]
        counts = counts or block_counts
        done += 1
        if perf_counter() - started >= args.seconds:
            break
    if args.trace_file:
        cold.write_chrome_trace(args.trace_file)

    # Two traced and two serial untraced passes per block.
    per_block = 1 / (2 * done * 1e9)
    workload_wall = pooled_wall if pool_jobs > 1 else serial_wall / 2
    exec_stats = session_stats().delta(stats_before)
    layer_ns = cold.layer_ns()
    specs_ns = cold.durations_ns("execute")
    tail = tail_percentile(len(specs_ns))

    def mean_ms(ledger, name):
        values = ledger.durations_ns(name)
        return statistics.fmean(values) / 1e6 if values else 0.0

    metrics = {f"{layer}_s": layer_ns[layer] * per_block for layer in LAYERS}
    metrics.update({
        "system.host_ns_per_instr": layer_ns["system.run"] / instructions,
        "trace.wall_s": cold.wall_ns() * per_block,
        "trace.overhead": cold.wall_ns() / serial_wall - 1.0,
        "exec.cache_miss_ms": mean_ms(cold, "get"),
        "exec.cache_put_ms": mean_ms(cold, "put"),
        "exec.cache_hit_ms": mean_ms(warm, "get"),
        "exec.spec_p50_ms": percentile(specs_ns, 50) / 1e6,
        "exec.spec_tail_ms": percentile(specs_ns, tail) / 1e6,
        "exec.spec_tail_pct": tail,
        "exec.spec_n": len(specs_ns),
        "exec.parallel_efficiency": (
            sum(specs_ns) / 2 / (pool_jobs * workload_wall)),
        "exec.retried": exec_stats.retried,
        "exec.failed": exec_stats.failed,
        **counts,
    })
    return {
        "golden": workload.golden,
        "attempted": attempted,
        "metrics": metrics,
        "digests": checker.digests,
        "failures": [f"{label}: {why}"
                     for label, why in checker.failures.items()],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "measure", "trace"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--work", required=True)
    parser.add_argument("--out")
    parser.add_argument("--trace-file")
    args = parser.parse_args(argv)

    if args.mode == "setup":
        host = HostSpeed()
        with host.sampling():
            _setup(args)
        # CPU time since the interpreter started, without the probes.
        cpu_ns = time.process_time_ns() - host.spent_ns
        print(time.monotonic_ns(), host.spent_ns, cpu_ns, host.ratio(),
              flush=True)
        return 0
    result = (measure if args.mode == "measure" else trace)(args)
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
