"""Insider-threat simulation and layered SIEM correlation toolkit."""

__version__ = "0.1.0"

from .events import (ActionKind, Alert, Event, Evidence, EvidenceKind,
                     GroundTruth, Role, Scenario)
from .siem import SiemEngine, Variant, VariantConfig
from .simkit import SimConfig, run_simulation

__all__ = [
    "ActionKind", "Alert", "Event", "Evidence", "EvidenceKind", "GroundTruth",
    "Role", "Scenario", "SiemEngine", "Variant", "VariantConfig", "SimConfig",
    "run_simulation", "__version__",
]
