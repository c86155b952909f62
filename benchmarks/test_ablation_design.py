"""X6 — Ablation: HHT design choices (buffer size, sequential-read width,
merge rate).

DESIGN.md calls out three modelling decisions; this bench sweeps each and
archives how the headline speedups react:

* BLEN (buffer size): Table 1 fixes 32 B (8 elements);
* seq_words_per_slot: the BE's wide interface to the adjacent RAM;
* merge_cycles_per_step: the variant-1 index-merge rate.
"""

from repro.analysis import run_spmspv, run_spmv
from repro.analysis.tables import Table
from repro.system import SystemConfig
from repro.workloads import random_csr, random_dense_vector, random_sparse_vector

SIZE = 128


def _spmv_speedup(**hht_overrides) -> float:
    matrix = random_csr((SIZE, SIZE), 0.5, seed=700)
    v = random_dense_vector(SIZE, seed=701)
    cfg = SystemConfig.paper_table1()
    for key, value in hht_overrides.items():
        setattr(cfg.hht, key, value)
    base = run_spmv(matrix, v, accel=None)
    hht = run_spmv(matrix, v, accel="hht", config=cfg)
    return base.cycles / hht.cycles


def _v1_speedup(merge: int) -> float:
    matrix = random_csr((SIZE, SIZE), 0.7, seed=702)
    sv = random_sparse_vector(SIZE, 0.7, seed=703)
    cfg = SystemConfig.paper_table1()
    cfg.hht.merge_cycles_per_step = merge
    base = run_spmspv(matrix, sv, mode="baseline")
    v1 = run_spmspv(matrix, sv, mode="hht_v1", config=cfg)
    return base.cycles / v1.cycles


def test_ablation_design(benchmark, record_table):
    def build():
        table = Table(
            "Ablation: HHT design choices (SpMV 50% sparse / "
            "SpMSpV v1 70% sparse)",
            ["parameter", "value", "speedup"],
        )
        for blen in (2, 4, 8, 16):
            table.add_row("buffer_elems", blen, _spmv_speedup(buffer_elems=blen))
        for width in (1, 2, 4):
            table.add_row(
                "seq_words_per_slot", width,
                _spmv_speedup(seq_words_per_slot=width),
            )
        for merge in (1, 2, 4):
            table.add_row("merge_cycles_per_step", merge, _v1_speedup(merge))
        return table

    table = benchmark.pedantic(build, rounds=1, iterations=1)
    record_table(table, "ablation_design")

    rows = {(r[0], r[1]): r[2] for r in table.rows}
    # Bigger buffers never hurt; a wider BE interface helps or is neutral;
    # a slower merge FSM strictly hurts variant-1.
    assert rows[("buffer_elems", 8)] >= rows[("buffer_elems", 2)] - 0.02
    assert rows[("seq_words_per_slot", 2)] >= rows[("seq_words_per_slot", 1)] - 0.02
    assert rows[("merge_cycles_per_step", 1)] > rows[("merge_cycles_per_step", 4)]
