"""Synthetic application workloads standing in for SPEC CPU2006 / NAS /
TPC-C / YCSB PinPoints traces (see DESIGN.md, substitutions)."""

from repro.workloads.synthetic import AppSpec, SyntheticTrace
from repro.workloads.catalog import CATALOG, spec_by_name
from repro.workloads.hog import hog_spec
from repro.workloads.mixes import WorkloadMix, make_mix, random_mixes

__all__ = [
    "AppSpec",
    "SyntheticTrace",
    "CATALOG",
    "spec_by_name",
    "hog_spec",
    "WorkloadMix",
    "make_mix",
    "random_mixes",
]
