"""The runners' contracts.

The config is the one source of ``vlmax``/``n_buffers`` for a run:
``vlmax=``/``n_buffers=`` are shorthand for the default Table-1 system,
a run given the equal ``config=`` must simulate the same kernel, and
passing both spellings is rejected instead of silently preferring one.
Every runner returns the one result class, names its program stably
and passes probes through to ``Soc.run``.
"""

import pytest

from repro.analysis import run_spmspv, run_spmv, run_spmv_programmable
from repro.exec import (
    RunSummary,
    corpus_spec,
    dnn_spec,
    execute,
    programmable_spec,
    spmspv_spec,
    spmv_spec,
)
from repro.instrument import ContentionProbe, PcProfileProbe
from repro.system import Soc, SystemConfig
from repro.workloads import (
    random_csr,
    random_dense_vector,
    random_sparse_vector,
)

MATRIX = random_csr((32, 32), 0.5, seed=70)
V = random_dense_vector(32, seed=71)
SV = random_sparse_vector(32, 0.5, seed=72)

RUNNERS = {
    "run_spmv": lambda **kw: run_spmv(MATRIX, V, **kw),
    "run_spmspv": lambda **kw: run_spmspv(MATRIX, SV, mode="baseline", **kw),
    "run_spmv_programmable": lambda **kw: run_spmv_programmable(
        MATRIX, V, format_name="csr", **kw),
}

FACTORIES = {
    "spmv_spec": lambda **kw: spmv_spec((32, 32), 0.5, **kw),
    "spmspv_spec": lambda **kw: spmspv_spec(32, 0.5, mode="baseline", **kw),
    "programmable_spec": lambda **kw: programmable_spec(
        (32, 32), 0.5, format_name="csr", **kw),
    "corpus_spec": lambda **kw: corpus_spec("rand98", hht=True, **kw),
    "dnn_spec": lambda **kw: dnn_spec("MobileNet", hht=True, rows=4, **kw),
}


@pytest.mark.parametrize("runner", sorted(RUNNERS))
def test_config_vlmax_selects_the_kernel(runner):
    run = RUNNERS[runner]
    shorthand = run(vlmax=1)
    configured = run(config=SystemConfig.paper_table1(vlmax=1))
    assert configured.cycles == shorthand.cycles
    assert configured.instructions == shorthand.instructions


@pytest.mark.parametrize("knob", ["vlmax", "n_buffers"])
@pytest.mark.parametrize("entry", sorted(RUNNERS) + sorted(FACTORIES))
def test_knob_beside_config_rejected(entry, knob):
    make = {**RUNNERS, **FACTORIES}[entry]
    with pytest.raises(TypeError, match="config"):
        make(config=SystemConfig.paper_table1(), **{knob: 1})


@pytest.mark.parametrize("run, name", [
    (lambda **kw: run_spmv(MATRIX, V, accel="hht", **kw), "spmv_hht"),
    (lambda **kw: run_spmv(MATRIX, V, **kw), "spmv_baseline"),
    (lambda **kw: run_spmspv(MATRIX, SV, mode="hht_v2", **kw),
     "spmspv_hht_v2"),
    (lambda **kw: run_spmv_programmable(MATRIX, V, format_name="coo", **kw),
     "spmv_programmable_coo"),
], ids=["spmv_hht", "spmv_baseline", "spmspv_hht_v2", "programmable"])
def test_programs_have_stable_names(run, name):
    probe = PcProfileProbe()
    run(probes=(probe,))
    assert probe.program.name == name


def test_probes_ride_home_on_the_summary():
    probed = run_spmv(MATRIX, V, accel="hht", probes=(ContentionProbe(),))
    assert probed.probe_payloads["contention"]["requests"]["hht"] > 0
    plain = run_spmv(MATRIX, V, accel="hht")
    assert plain.probe_payloads == {}
    assert plain.cycles == probed.cycles
    assert plain.stats == probed.stats


def test_one_result_class():
    """Soc.run, the runners and execute() all return a RunSummary."""
    soc = Soc(SystemConfig.paper_table1())
    bare = soc.run(soc.assemble("li a0, 1\nhalt"))
    assert isinstance(bare, RunSummary) and bare.y is None
    run = run_spmv(MATRIX, V)
    assert isinstance(run, RunSummary) and run.y.shape == (32,)
    summary = execute(spmv_spec((8, 8), 0.5))
    assert type(summary) is RunSummary


def _two_cores():
    cfg = SystemConfig.paper_table1()
    cfg.n_cores = 2
    return cfg


@pytest.mark.parametrize("make, match", [
    (lambda: spmspv_spec(24, 0.5, mode="hht_v3"), "unknown SpMSpV"),
    (lambda: spmspv_spec(24, 0.5, mode="hht_v3", config=_two_cores()),
     "unknown SpMSpV"),
    (lambda: programmable_spec((16, 16), 0.5, format_name="ellpack"),
     "no firmware protocol"),
    (lambda: spmv_spec((16, 16), 0.5, accel="indexmac", vlmax=1),
     "no scalar SpMV"),
    (lambda: spmspv_spec(16, 0.5, mode="indexmac", vlmax=1),
     "no scalar SpMSpV"),
], ids=["spmspv_mode", "spmspv_mode_multicore", "programmable_format",
        "spmv_scalar_indexmac", "spmspv_scalar_indexmac"])
def test_spec_without_a_kernel_fails_when_made(make, match):
    """A point no kernel can run fails in its factory, not mid-sweep."""
    with pytest.raises(ValueError, match=match):
        make()


@pytest.mark.parametrize("run, match", [
    (lambda: run_spmspv(MATRIX, SV, mode="hht_v3"), "unknown SpMSpV"),
    (lambda: run_spmspv(MATRIX, SV, mode="hht_v3", config=_two_cores()),
     "unknown SpMSpV"),
    (lambda: run_spmv(MATRIX, V, accel="indexmac", vlmax=1),
     "no scalar SpMV"),
    (lambda: run_spmspv(MATRIX, SV, mode="indexmac", vlmax=1),
     "no scalar SpMSpV"),
], ids=["spmspv_mode", "spmspv_mode_multicore", "spmv_scalar_indexmac",
        "spmspv_scalar_indexmac"])
def test_run_without_a_kernel_fails_before_a_soc(run, match, monkeypatch):
    def no_soc(*args, **kwargs):
        raise AssertionError("a SoC was built before the kernel check")

    monkeypatch.setattr(Soc, "__init__", no_soc)
    with pytest.raises(ValueError, match=match):
        run()


#: Operands past Table 1's 1 MB: the vector alone is 140,000 words.
WIDE = random_csr((4, 140_000), 0.9999, seed=73)
GROWING_RUNS = {
    "run_spmv": lambda cfg: run_spmv(
        WIDE, random_dense_vector(WIDE.ncols, seed=74), config=cfg),
    "run_spmspv": lambda cfg: run_spmspv(
        WIDE, random_sparse_vector(WIDE.ncols, 0.9999, seed=75),
        mode="baseline", config=cfg),
    "run_spmv_programmable": lambda cfg: run_spmv_programmable(
        WIDE, random_dense_vector(WIDE.ncols, seed=74), format_name="csr",
        config=cfg),
}


@pytest.mark.parametrize("runner", sorted(GROWING_RUNS))
def test_growing_ram_leaves_the_callers_config_alone(runner):
    """The runner grows RAM for the operands on a copy: the caller's
    config (which already lists the kernel's front-end, so the runner
    gets that very object) still describes, and keys, the system it
    described before."""
    cfg = SystemConfig.paper_table1()
    key = cfg.content_key()
    summary = GROWING_RUNS[runner](cfg)
    assert summary.cycles > 0
    assert cfg.ram_bytes == 1 << 20
    assert cfg.content_key() == key
