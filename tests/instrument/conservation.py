"""Conservation laws of the stats registry, asserted after test runs."""

import re

_BANK = re.compile(r"bank\d+\.requests")


def assert_port_conserved(stats, port: str = "soc.ram") -> None:
    """Every request on the shared port belongs to exactly one
    requester, occupies exactly one issue slot and, on a banked port,
    lands in exactly one bank."""
    requests = stats[f"{port}.requests"]
    requesters = sum(
        n for key, n in stats.items()
        if key.startswith(f"{port}.requester.")
    )
    assert requesters == requests, (
        f"{port}: requesters sum to {requesters}, requests {requests}")
    assert stats[f"{port}.busy_cycles"] == requests
    prefix = f"{port}."
    banks = [
        n for key, n in stats.items()
        if key.startswith(prefix) and _BANK.fullmatch(key[len(prefix):])
    ]
    if banks:
        assert sum(banks) == requests, (
            f"{port}: banks sum to {sum(banks)}, requests {requests}")


#: HHT counter -> the per-stream counter it totals.
_FIFO_TOTALS = {
    "fifo_reads": "reads",
    "cpu_wait_cycles": "cpu_wait_cycles",
    "elements_supplied": "elements_supplied",
}


def assert_fifo_conserved(stats) -> None:
    """Every HHT's FIFO reads and CPU wait cycles are the sums over its
    streams, and at completion the CPU has popped exactly the elements
    the back-end pushed."""
    hhts = [key.removesuffix(".fifo_reads") for key in stats
            if key.endswith(".fifo_reads")]
    for hht in hhts:
        prefix = f"{hht}.stream."
        for total, leaf in _FIFO_TOTALS.items():
            streams = sum(
                n for key, n in stats.items()
                if key.startswith(prefix) and key.endswith(f".{leaf}")
            )
            assert stats[f"{hht}.{total}"] == streams, (
                f"{hht}.{total} is {stats[f'{hht}.{total}']}, "
                f"its streams sum to {streams}")


def assert_class_conserved(stats) -> None:
    """Every core's instructions and cycles are the sums of its class
    counters, and its two class groups name the same classes."""
    cores = [key.removesuffix(".taken_branches") for key in stats
             if key.endswith(".taken_branches")]
    assert cores, "no core in the registry"
    for core in cores:
        groups = {}
        for group in ("class_counts", "class_cycles"):
            prefix = f"{core}.{group}."
            groups[group] = {key[len(prefix):]: n for key, n in stats.items()
                             if key.startswith(prefix)}
        counts, cycles = groups["class_counts"], groups["class_cycles"]
        assert set(counts) == set(cycles), (
            f"{core}: classes {sorted(counts)} counted, "
            f"{sorted(cycles)} timed")
        assert sum(counts.values()) == stats[f"{core}.instructions"], (
            f"{core}: classes count {sum(counts.values())}, "
            f"instructions {stats[f'{core}.instructions']}")
        assert sum(cycles.values()) == stats[f"{core}.cycles"], (
            f"{core}: classes time {sum(cycles.values())}, "
            f"cycles {stats[f'{core}.cycles']}")
