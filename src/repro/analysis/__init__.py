"""Post-processing: paper targets, report assembly."""

from repro.analysis.paper_targets import PAPER_TARGETS, target_for
from repro.analysis.report import build_report

__all__ = [
    "PAPER_TARGETS",
    "target_for",
    "build_report",
]
