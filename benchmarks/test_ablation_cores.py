"""X11 — Ablation: core count x MMU on the row-partitioned SpMV baseline.

Not a paper figure: 1, 2 and 4 pure-CPU cores share the single RAM port,
each with and without per-core TLBs and page-table walks.  The table
archives raw cycles, port queueing and walk cycles per point.
"""

from repro.analysis import ablation_cores


def test_ablation_cores(benchmark, record_table):
    table = benchmark.pedantic(ablation_cores, rounds=1, iterations=1)
    record_table(table, "ablation_cores")

    rows = {(r[0], r[1]): dict(zip(table.headers, r)) for r in table.rows}
    # On one core the walks add strictly serial cycles.
    assert rows[(1, "on")]["vm_overhead"] > 0
    multi = [row for (cores, _), row in rows.items() if cores > 1]
    # Extra cores queue on the shared port and still speed the run up.
    assert all(row["queue_cycles"] > 0 for row in multi)
    assert all(row["speedup_vs_1core"] > 1.0 for row in multi)
