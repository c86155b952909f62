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
