"""Pluggable accelerator front-ends.

One :class:`AcceleratorFrontEnd` per accelerator family, registered by
name; ``SystemConfig.accelerators`` selects and parameterises them, and
the SoC builds whatever is configured.  The built-ins mirror the
bake-off of ROADMAP item 2:

* ``hht`` — the paper's memory-side Hardware Helper Thread;
* ``ssr`` — stream semantic registers (implicit indexed loads);
* ``indexmac`` — a custom indexed-MAC vector instruction.
"""

from .base import AcceleratorConfig, AcceleratorFrontEnd, BuildContext
from .hht import HHTFrontEnd
from .indexmac import IndexMACFrontEnd
from .registry import front_end, register, registered_kinds
from .ssr import SSRFrontEnd, SSRUnit

register(HHTFrontEnd())
register(SSRFrontEnd())
register(IndexMACFrontEnd())

__all__ = [
    "AcceleratorConfig",
    "AcceleratorFrontEnd",
    "BuildContext",
    "HHTFrontEnd",
    "IndexMACFrontEnd",
    "SSRFrontEnd",
    "SSRUnit",
    "front_end",
    "register",
    "registered_kinds",
]
