"""RunSpec construction, config freezing and content addressing."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exec import (
    RunSpec,
    cache_key,
    code_version,
    execute,
    freeze_config,
    spmspv_spec,
    spmv_spec,
    thaw_config,
)
from repro.system.config import SystemConfig


def test_freeze_thaw_roundtrip():
    cfg = SystemConfig.paper_table1(vlmax=4, n_buffers=1)
    cfg.ram_latency = 7
    thawed = thaw_config(freeze_config(cfg))
    assert thawed == cfg
    assert freeze_config(thawed) == freeze_config(cfg)


def test_freeze_covers_nested_fields():
    cfg = SystemConfig.paper_table1()
    keys = dict(freeze_config(cfg))
    assert "cpu.latencies.int_alu" in keys
    assert "hht.n_buffers" in keys
    assert keys["cache"] is None  # MCU default: no L1D


def test_spec_validation():
    with pytest.raises(ValueError):
        RunSpec(kernel="nope", rows=4, cols=4)
    with pytest.raises(ValueError):
        RunSpec(kernel="spmv", workload="synthetic", rows=0, cols=4)
    with pytest.raises(ValueError):
        RunSpec(kernel="spmv", workload="corpus", name="")


def test_specs_are_hashable_and_stable():
    a = spmv_spec((16, 16), 0.5, accel="hht", matrix_seed=1, vector_seed=2)
    b = spmv_spec((16, 16), 0.5, accel="hht", matrix_seed=1, vector_seed=2)
    assert a == b
    assert hash(a) == hash(b)
    assert cache_key(a) == cache_key(b)


@pytest.mark.parametrize("mutation", [
    dict(sparsity=0.6),
    dict(matrix_seed=9),
    dict(vector_seed=9),
    dict(accel=None),
])
def test_cache_key_changes_with_workload(mutation):
    base = dict(shape=(16, 16), sparsity=0.5, accel="hht",
                matrix_seed=1, vector_seed=2)
    changed = {**base, **mutation}
    spec_a = spmv_spec(base.pop("shape"), base.pop("sparsity"), **base)
    spec_b = spmv_spec(changed.pop("shape"), changed.pop("sparsity"), **changed)
    assert cache_key(spec_a) != cache_key(spec_b)


def test_cache_key_changes_with_config():
    cfg = SystemConfig.paper_table1()
    cfg.ram_latency = 4
    a = spmv_spec((16, 16), 0.5, accel="hht")
    b = spmv_spec((16, 16), 0.5, accel="hht", config=cfg)
    assert cache_key(a) != cache_key(b)


def test_cache_key_differs_across_kernels():
    spmv = spmv_spec((16, 16), 0.5, accel=None)
    spmspv = spmspv_spec(16, 0.5, mode="baseline")
    assert cache_key(spmv) != cache_key(spmspv)


def test_code_version_is_stable_and_short():
    assert code_version() == code_version()
    assert len(code_version()) == 16


def test_execute_is_deterministic():
    spec = spmv_spec((16, 16), 0.5, accel="hht", matrix_seed=3, vector_seed=4)
    a = execute(spec)
    b = execute(spec)
    assert a.cycles == b.cycles
    assert a.instructions == b.instructions
    assert a.cpu_wait_cycles == b.cpu_wait_cycles
    assert a.hht_stats == b.hht_stats
    assert np.array_equal(a.y, b.y)


def test_summary_json_roundtrip_is_bit_exact():
    spec = spmspv_spec(16, 0.7, mode="hht_v1", matrix_seed=5, vector_seed=6)
    summary = execute(spec)
    from repro.exec.spec import RunSummary

    clone = RunSummary.from_json_dict(summary.to_json_dict())
    assert clone.cycles == summary.cycles
    assert clone.hht_stats == summary.hht_stats
    assert clone.port_requests == summary.port_requests
    assert clone.y.dtype == np.float32
    assert np.array_equal(clone.y, summary.y)
