"""Pluggable accelerator front-ends.

One :class:`AcceleratorFrontEnd` per accelerator family, looked up by
name in :data:`FRONT_ENDS`; ``SystemConfig.accelerators`` selects and
parameterises them, and the SoC builds whatever is configured.  The
built-ins mirror the bake-off of ROADMAP item 2:

* ``hht`` — the paper's memory-side Hardware Helper Thread;
* ``ssr`` — stream semantic registers (implicit indexed loads);
* ``indexmac`` — a custom indexed-MAC vector instruction.

A new front-end is one more entry here plus its kernel bodies and table
rows in :mod:`repro.kernels.loops`.
"""

from .base import AcceleratorConfig, AcceleratorFrontEnd, BuildContext
from .hht import HHTFrontEnd
from .indexmac import IndexMACFrontEnd
from .ssr import SSRFrontEnd, SSRUnit

#: Front-end per kind name.
FRONT_ENDS: dict[str, AcceleratorFrontEnd] = {
    fe.kind: fe for fe in (HHTFrontEnd(), SSRFrontEnd(), IndexMACFrontEnd())
}


def front_end(kind: str) -> AcceleratorFrontEnd:
    """The front-end named *kind*; a ``ValueError`` names the known kinds."""
    try:
        return FRONT_ENDS[kind]
    except KeyError:
        raise ValueError(
            f"unknown accelerator kind {kind!r} "
            f"(known: {', '.join(sorted(FRONT_ENDS))})"
        ) from None


__all__ = [
    "AcceleratorConfig",
    "AcceleratorFrontEnd",
    "BuildContext",
    "FRONT_ENDS",
    "HHTFrontEnd",
    "IndexMACFrontEnd",
    "SSRFrontEnd",
    "SSRUnit",
    "front_end",
]
