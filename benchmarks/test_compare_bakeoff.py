"""X9 — Extension: accelerator front-end bake-off (``repro compare``).

Not a paper figure: the same SpMV sweep on the scalar and vector CPUs
and with each registered front-end (ASIC HHT, SSR, IndexMAC) in front
of the VL=8 CPU.  The speedup figure rounds to three decimals; the
cycles table archives the raw counts, so a timing change in any one
front-end moves an archived byte.
"""

from repro.analysis import compare_detail_table, compare_speedup_table

FRONT_ENDS = ["vector", "hht", "ssr", "indexmac"]


def test_compare_speedup(benchmark, record_table):
    table = benchmark.pedantic(compare_speedup_table, rounds=1, iterations=1)
    record_table(table, "compare_speedup_table")

    assert table.headers[1:] == FRONT_ENDS
    for row in table.rows:
        # Every front-end beats the scalar CPU at every sparsity.
        assert all(s > 1.0 for s in row[1:]), row


def test_compare_detail(benchmark, record_table):
    table = benchmark.pedantic(compare_detail_table, rounds=1, iterations=1)
    record_table(table, "compare_detail_table")

    assert table.headers[1:] == ["scalar"] + FRONT_ENDS
