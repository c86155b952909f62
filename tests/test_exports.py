"""Every name a ``repro`` module lists in ``__all__`` resolves.

A deletion that leaves a stale re-export behind fails here, in the
module that still names it, rather than at a user's import.
"""

import importlib
import pkgutil

import repro


def test_every_exported_name_resolves():
    # Import every module before checking, so a package's __all__ may
    # name its submodules.
    modules = [repro] + [
        importlib.import_module(info.name)
        for info in pkgutil.walk_packages(repro.__path__, "repro.")
        if info.name != "repro.__main__"
    ]
    unresolved = []
    for module in modules:
        for export in getattr(module, "__all__", ()):
            if not hasattr(module, export):
                unresolved.append(f"{module.__name__}.{export}")
    assert unresolved == []
