"""Component tree base class and the flat stats registry.

Every timed block of the simulated SoC (CPU, HHT, bus, memory port,
L1D cache, ...) derives from :class:`SimComponent`.  A component has a
*name*, an ordered list of *children*, and two tree-wide operations:

* ``reset()`` — restore the component and every descendant to its
  power-on state (architectural state *and* counters), and
* ``stats()`` — collect every counter in the subtree into one flat
  ``{"soc.l1d.hits": 123, ...}`` mapping (:func:`registry` over the
  subtree's :meth:`~SimComponent.stats_layout`).

Registry keys are dotted paths built from component names.  A component
constructed with an empty name is *transparent*: it contributes no path
segment, so purely structural wrappers (the bus, the memory-system
facade) do not show up in key paths.  The Table-1 SoC produces the
namespaces ``soc.cpu.*``, ``soc.hht.*`` (``soc.hht0.*`` ... when several
helper threads are attached), ``soc.ram.*`` and ``soc.l1d.*``.

Subclasses override the two ``_local_*`` hooks; the tree recursion is
provided here and should not be overridden:

* ``_reset_local()`` — clear own state (children are handled by the base).
* ``_local_stats()`` — return own counters as a flat ``{leaf: value}``
  dict; leaves may themselves be dotted (``"class_counts.int_alu"``).

The module also hosts the registry *views* that rebuild the legacy
per-component stats shapes (``hht_stats`` dict, ``port_requests``,
``cache_stats``) from a flat registry, so the run result
(:class:`~repro.system.soc.RunSummary`) keeps no duplicate bookkeeping.
"""

from __future__ import annotations

from typing import Mapping

StatsDict = dict[str, int | float]


def join_path(prefix: str, name: str) -> str:
    """Join two dotted-path fragments, skipping empty segments."""
    if not prefix:
        return name
    if not name:
        return prefix
    return f"{prefix}.{name}"


class SimComponent:
    """Base class for every named block of the simulated system."""

    def __init__(self, name: str):
        self.name = name
        self._children: list[SimComponent] = []

    # -- tree structure ------------------------------------------------
    def add_child(self, child: "SimComponent") -> "SimComponent":
        self._children.append(child)
        return child

    @property
    def children(self) -> tuple["SimComponent", ...]:
        return tuple(self._children)

    # -- tree-wide operations ------------------------------------------
    def reset(self) -> None:
        """Restore this component and all descendants to power-on state."""
        self._reset_local()
        for child in self._children:
            child.reset()

    def stats(self, prefix: str = "") -> StatsDict:
        """Flatten every counter in the subtree into dotted-path keys."""
        return registry(self.stats_layout(prefix))

    def stats_layout(
        self, prefix: str = "",
    ) -> list[tuple["SimComponent", str]]:
        """Every component of the subtree that keeps counters, in
        registry order, with the prefix of its keys (its dotted path and
        a dot; nothing on a transparent root).  The tree is fixed once
        built, so a caller that flattens it often (a sampler) computes
        this once and hands it to :func:`registry`."""
        base = join_path(prefix, self.name)
        out = []
        if type(self)._local_stats is not SimComponent._local_stats:
            out.append((self, f"{base}." if base else ""))
        for child in self._children:
            out += child.stats_layout(base)
        return out

    # -- subclass hooks ------------------------------------------------
    def _reset_local(self) -> None:
        """Clear own state; the base class recurses into children."""

    def _local_stats(self) -> StatsDict:
        """Own counters as a flat ``{leaf: value}`` dict."""
        return {}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kids = ", ".join(c.name or "<anon>" for c in self._children)
        return (f"<{type(self).__name__} {self.name!r}"
                + (f" children=[{kids}]" if kids else "") + ">")


def registry(layout: list[tuple[SimComponent, str]]) -> StatsDict:
    """The flat registry of a :meth:`SimComponent.stats_layout`: each
    component's leaves under its key prefix."""
    out: StatsDict = {}
    for component, head in layout:
        for leaf, value in component._local_stats().items():
            out[head + leaf] = value
    return out


# ----------------------------------------------------------------------
# Registry views: legacy stats shapes derived from the flat registry.
# ----------------------------------------------------------------------

def subtree(stats: Mapping[str, int | float], prefix: str) -> StatsDict:
    """Return the sub-registry under *prefix* with the prefix stripped."""
    p = prefix if prefix.endswith(".") else prefix + "."
    return {k[len(p):]: v for k, v in stats.items() if k.startswith(p)}


_HHT_SNAPSHOT_KEYS = (
    "cpu_wait_cycles",
    "fifo_reads",
    "elements_supplied",
    "starts",
    "hht_wait_cycles",
    "buffers_filled",
)


def hht_counter_keys(keys) -> dict[str, list[str]]:
    """The registry keys of the six snapshot counters of every HHT
    instance, by counter.

    Matches keys of the form ``soc.hht.<leaf>`` or ``soc.hht<i>.<leaf>``;
    per-stream sub-keys (``soc.hht.stream.*``) are deliberately excluded.
    """
    out: dict[str, list[str]] = {key: [] for key in _HHT_SNAPSHOT_KEYS}
    for key in keys:
        if key.startswith("soc.hht"):
            parts = key.split(".")
            if len(parts) == 3 and parts[2] in out:
                out[parts[2]].append(key)
    return out


def hht_stats_view(stats: Mapping[str, int | float]) -> dict[str, int]:
    """Legacy ``HHTStats.snapshot()`` dict, summed over every HHT instance."""
    return {leaf: sum(int(stats[key]) for key in keys)
            for leaf, keys in hht_counter_keys(stats).items()}


def port_requests_view(stats: Mapping[str, int | float]) -> dict[str, int]:
    """Legacy per-requester issue counts (``{"cpu": n, "hht": m}``)."""
    return {k: int(v)
            for k, v in subtree(stats, "soc.ram.requester").items()}


def cache_stats_view(stats: Mapping[str, int | float]) -> dict | None:
    """Legacy cache summary dict, or ``None`` when no L1D is configured."""
    sub = subtree(stats, "soc.l1d")
    if not sub:
        return None
    by_requester: dict[str, list[int]] = {}
    for key, value in sub.items():
        parts = key.split(".")
        if len(parts) == 3 and parts[0] == "requester":
            entry = by_requester.setdefault(parts[1], [0, 0])
            if parts[2] == "hits":
                entry[0] = int(value)
            elif parts[2] == "misses":
                entry[1] = int(value)
    return {
        "hits": int(sub.get("hits", 0)),
        "misses": int(sub.get("misses", 0)),
        "writes": int(sub.get("writes", 0)),
        "by_requester": by_requester,
    }
