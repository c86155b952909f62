"""SoC composition and run infrastructure."""

from .config import SystemConfig
from .soc import RunSummary, Soc

__all__ = ["SystemConfig", "RunSummary", "Soc"]
