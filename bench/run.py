"""Outside-in sweep benchmark for the repro simulator.

    python3 bench/run.py [--workload W|all] [--seed N] [--seconds S]
                         [--trace 0|1] [--trace-dir DIR] [--smoke]
                         [--write-golden]

Each workload runs in fresh child interpreters (``bench/child.py``) with
every ``REPRO_*`` variable removed, ``PYTHONPATH`` pointing at this
checkout's ``src`` and a temporary directory inside the checkout.  With
``--trace 0`` it prints the end-to-end metrics of ``BENCHMARK.json``,
with times at the reference host speed (``bench/hostspeed.py``); with
``--trace 1`` the per-layer ones.  Every metric is printed as
``workload metric value unit`` (and the raw value where it was
normalised), and the last line of stdout is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  The exit
status is 0 only when every spec ran, verified and matched its golden
digest.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Fresh interpreters timed for ``setup_s`` (the median is reported).
SETUP_SAMPLES = 5

#: A child still running after this long is killed (runs take ~30 s).
CHILD_TIMEOUT = 150.0


def _child_env(work: Path) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["TMPDIR"] = str(work)
    return env


def _child_cmd(mode: str, workload: str, seed: int, work: Path, args,
               *extra: str) -> list[str]:
    return [sys.executable, str(HERE / "child.py"), mode,
            "--workload", workload, "--seed", str(seed), "--work", str(work),
            *(["--smoke"] if args.smoke else []), *extra]


def _setup_seconds(cmd: list[str], env: dict[str, str]) -> tuple[float, float]:
    """Spawn-to-ready time of one fresh interpreter.

    (raw wall seconds, CPU seconds at reference host speed); see
    ``bench/hostspeed.py``.
    """
    start = time.monotonic_ns()
    out = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, check=True,
                         timeout=CHILD_TIMEOUT, text=True).stdout
    ready, probes, cpu, ratio = out.split()[-4:]
    return ((int(ready) - start - int(probes)) / 1e9,
            int(cpu) / 1e9 * float(ratio))


def _run_child(cmd: list[str], env: dict[str, str],
               timeout: float | None) -> int:
    """Run a child to completion (its stdout goes to our stderr)."""
    try:
        return subprocess.run(cmd, env=env, stdout=sys.stderr,
                              timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        return -1


def run_workload(name: str, seed: int, args) -> dict:
    """One workload at one seed: {metrics, attempted, failures, digests}."""
    scratch = ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=scratch))
    env = _child_env(work)
    out = work / "result.json"
    try:
        extra = ["--out", str(out), "--seconds", str(args.seconds)]
        if args.trace:
            mode = "trace"
            if args.trace_dir:
                extra += ["--trace-file", str(args.trace_dir / f"{name}.json")]
        else:
            mode = "measure"
            setup_cmd = _child_cmd("setup", name, seed, work, args)
            samples = [_setup_seconds(setup_cmd, env)
                       for _ in range(2 if args.smoke else SETUP_SAMPLES)]
        code = _run_child(
            _child_cmd(mode, name, seed, work, args, *extra), env,
            None if args.write_golden else CHILD_TIMEOUT)
        if code != 0:
            return {"metrics": {}, "attempted": 1, "digests": {},
                    "failures": [f"{name}: child exited with {code}"]}
        result = json.loads(out.read_text())
        if not args.trace:
            raw, normalised = zip(*samples)
            result["metrics"]["setup_s"] = statistics.median(normalised)
            result["raw"]["setup_s"] = statistics.median(raw)
        return result
    finally:
        shutil.rmtree(work, ignore_errors=True)


def write_golden(names: list[str], args) -> int:
    """Run every block of *names* at seeds 0 and 1; write their digests.

    Workloads that share a golden file (the two backends) must agree.
    """
    merged: dict[str, dict[str, dict[str, str]]] = {}
    for name in names:
        for seed in (0, 1):
            result = run_workload(name, seed, args)
            if result["failures"]:
                print("\n".join(result["failures"][:20]), file=sys.stderr)
                return 1
            digests = merged.setdefault(result["golden"], {}) \
                .setdefault(str(seed), {})
            clash = [k for k, d in result["digests"].items()
                     if digests.setdefault(k, d) != d]
            if clash:
                print(f"{name}: {len(clash)} digests differ from another "
                      f"workload sharing {result['golden']}", file=sys.stderr)
                return 1
    for stem, seeds in merged.items():
        path = HERE / "golden" / f"{stem}.json"
        golden = json.loads(path.read_text()) if path.exists() else {}
        golden["smoke" if args.smoke else "full"] = seeds
        path.write_text(json.dumps(golden, indent=0, sort_keys=True) + "\n")
        print(f"wrote {path}", file=sys.stderr)
    return 0


def main(argv=None) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"bench: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]

    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all", choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="measure as many whole seed blocks as fit in "
                             "this many seconds; --trace 1 runs blocks "
                             "until they have passed (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report the per-layer metrics instead")
    parser.add_argument("--trace-dir", type=Path,
                        help="with --trace 1, write <workload>.json chrome "
                             "traces here")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes and one block; never measured")
    parser.add_argument("--write-golden", action="store_true",
                        help="regenerate bench/golden for seeds 0 and 1")
    args = parser.parse_args(argv)
    # Unwind on SIGTERM so the running child is killed and the work
    # directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.smoke:
        args.seconds = 0.0
    if args.trace_dir:
        args.trace = 1
        args.trace_dir.mkdir(parents=True, exist_ok=True)
    selected = names if args.workload == "all" else [args.workload]

    if args.write_golden:
        args.seconds, args.trace = float("inf"), 0
        return write_golden(selected, args)

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics, attempted, failures, digests = {}, 0, [], {}
    for name in selected:
        result = run_workload(name, args.seed, args)
        attempted += result["attempted"]
        failures += result["failures"]
        digests[name] = result["digests"]
        prefix = "" if len(selected) == 1 else f"{name}."
        for metric in wanted if result["metrics"] else ():
            value = result["metrics"].get(metric["name"])
            if value is None:
                failures.append(f"{name}: no metric {metric['name']}")
                continue
            metrics[prefix + metric["name"]] = {"value": value,
                                                "unit": metric["unit"]}
            raw = result.get("raw", {}).get(metric["name"])
            print(f"{name:18} {metric['name']:26} {value:14.6g} "
                  f"{metric['unit']}" + (f" (raw {raw:.6g})" if raw else ""))

    # The two backends must agree bit for bit wherever both ran a spec.
    ref, comp = digests.get("headline", {}), digests.get("headline-compiled", {})
    failures += [f"headline-compiled: {key} differs from reference"
                 for key in ref.keys() & comp.keys() if ref[key] != comp[key]]

    for failure in failures[:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
