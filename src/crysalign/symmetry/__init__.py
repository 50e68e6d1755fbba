"""Space-group detection and the embedded group-operation table."""

from .detect import (
    DetectionError,
    SpacegroupResult,
    SymmetryOp,
    crystal_system,
    detect_spacegroup,
)
from .groups import group_order, load_group_table

__all__ = [
    "DetectionError",
    "SpacegroupResult",
    "SymmetryOp",
    "crystal_system",
    "detect_spacegroup",
    "group_order",
    "load_group_table",
]
