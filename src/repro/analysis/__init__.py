"""Energy-conservation metrics, the Fig. 1 landscape, report tables."""

from .conservation import ConservationReport, analyze_conservation
from .landscape import (
    TABLE_II,
    THEORY_ERRORS,
    LandscapeEntry,
    largest_by_level,
    size_advantage_of_this_work,
)
from .report import format_table

__all__ = [
    "ConservationReport",
    "LandscapeEntry",
    "TABLE_II",
    "THEORY_ERRORS",
    "analyze_conservation",
    "format_table",
    "largest_by_level",
    "size_advantage_of_this_work",
]
