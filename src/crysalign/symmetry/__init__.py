"""Space-group detection and the embedded group-operation table."""

from .detect import (
    DetectionError,
    SpacegroupResult,
    crystal_system,
    detect_spacegroup,
)
from .groups import load_group_table

__all__ = [
    "DetectionError",
    "SpacegroupResult",
    "crystal_system",
    "detect_spacegroup",
    "load_group_table",
]
