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
