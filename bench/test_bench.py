"""Checks of the benchmark harness itself: ``python -m pytest bench -q``."""

from __future__ import annotations

import json
import re
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from hostspeed import HostSpeed  # noqa: E402
from ledger import LAYERS, Ledger, run_specs_traced, tail_percentile, tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from repro.exec import ExecPolicy, FaultPlan, ResultCache, payload_key  # noqa: E402
from repro.obs import NULL_OBS  # noqa: E402
from repro.system.soc import Soc  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _bench(*args: str, cwd: Path = ROOT) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--smoke", *args], cwd=cwd,
        capture_output=True, text=True, timeout=120,
    )
    return proc.returncode, proc.stdout


def _result(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_spec_lists_are_deterministic_and_disjoint_across_seeds(name):
    workload = WORKLOADS[name]

    def keys(seed):
        return [payload_key(spec) for block in workload.blocks(seed)
                for batch in block for spec in batch]

    first = keys(0)
    assert first == keys(0)
    assert not set(first) & set(keys(1))
    per_block = [{payload_key(spec) for batch in block for spec in batch}
                 for block in workload.blocks(0)]
    assert sum(map(len, per_block)) == len(set().union(*per_block))


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_emits_every_metric_in_benchmark_json(trace, section):
    code, stdout = _bench("--workload", "all", "--trace", str(trace))
    result = _result(stdout)
    assert code == 0 and result["correct"] and result["failed"] == 0
    names = [m["name"] for m in SPEC[section]]
    workloads = [w["name"] for w in SPEC["workloads"]]
    assert sorted(result["metrics"]) == sorted(
        f"{w}.{n}" for w in workloads for n in names)
    for name in names + workloads:
        assert NAME.fullmatch(name), name


def test_span_self_times_sum_to_traced_wall(tmp_path):
    ledger = Ledger()
    run_specs = run_specs_traced(ledger)
    original_run = Soc.__dict__["run"]
    cache = ResultCache(tmp_path, faults=FaultPlan())
    with tracing(ledger):
        for batch in WORKLOADS["bakeoff"].make_block(0, 0, True):
            run_specs(batch, jobs=1, cache=cache, policy=ExecPolicy(),
                      faults=FaultPlan(), obs=NULL_OBS, progress=False)
    assert Soc.__dict__["run"] is original_run
    layers = ledger.layer_ns()
    assert list(layers) == list(LAYERS)
    assert all(ns > 0 for ns in layers.values()), layers
    assert sum(layers.values()) == ledger.wall_ns() > 0
    events = ledger.chrome_trace()["traceEvents"]
    assert sum(e.get("ph") == "X" for e in events) == len(ledger.spans)


def test_host_speed_samples_while_busy_and_restores_the_timer():
    host = HostSpeed()
    before = signal.getsignal(signal.SIGPROF)
    with host.sampling():
        end = time.process_time() + 0.2
        while time.process_time() < end:
            pass
    assert len(host.samples_ns) >= 3 and 0 < host.spent_ns < host.cpu_ns
    assert host.ratio() > 0 and host.wall_s() > 0 and host.reference_s() > 0
    assert signal.getsignal(signal.SIGPROF) is before
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)


def test_tail_percentile_leaves_ten_samples_beyond():
    for n in (11, 15, 50, 93, 100, 1000):
        pct = tail_percentile(n)
        assert n - -(-n * pct // 100) >= 10


def _checkout_copy(root: Path) -> Path:
    """A checkout holding BENCHMARK.json and bench/, with src linked."""
    shutil.copytree(HERE, root / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", root)
    return root


def test_flipped_golden_digest_is_a_failure(tmp_path):
    root = _checkout_copy(tmp_path)
    (root / "src").symlink_to(ROOT / "src")
    path = root / "bench" / "golden" / "headline.json"
    golden = json.loads(path.read_text())
    seed0 = golden["smoke"]["0"]
    key = sorted(seed0)[0]
    seed0[key] = format(int(seed0[key], 16) ^ 1, "012x")
    path.write_text(json.dumps(golden))
    code, stdout = _bench("--workload", "headline", "--seed", "0", cwd=root)
    result = _result(stdout)
    assert code != 0
    assert not result["correct"] and result["failed"] == 1


def test_refuses_to_run_without_the_program(tmp_path):
    code, stdout = _bench("--workload", "headline",
                          cwd=_checkout_copy(tmp_path))
    assert code != 0 and not stdout.strip()
