"""X10 — Ablation: word-interleaved RAM banks vs port contention.

Not a paper figure: the ASIC HHT SpMV system and the programmable HHT's
helper core, each on 1, 2, 4 and 8 banks.  banks=1 is the paper's
single-issue port; the table archives raw cycles and queueing per point.
"""

from repro.analysis import ablation_banks


def test_ablation_banks(benchmark, record_table):
    table = benchmark.pedantic(ablation_banks, rounds=1, iterations=1)
    record_table(table, "ablation_banks")

    for workload in ("spmv+asic", "spmv+prog"):
        rows = [row for row in table.rows if row[0] == workload]
        # Extra banks never add port queueing or cycles.
        queue = [row[3] for row in rows]
        cycles = [row[2] for row in rows]
        assert queue == sorted(queue, reverse=True), workload
        assert cycles == sorted(cycles, reverse=True), workload
