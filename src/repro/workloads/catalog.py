"""Catalog of synthetic stand-ins for the paper's benchmarks.

Parameters are calibrated *qualitatively* to published characterisations of
SPEC CPU2006 [4], NAS [3], TPC-C [68] and YCSB [11]: memory-intensive
benchmarks (mcf, libquantum, lbm, soplex, milc, is, cg) have high APKI and
either streaming or large-footprint-random patterns; cache-sensitive ones
(dealII, bzip2, xalancbmk, soplex, omnetpp, ft) have reuse depths on the
order of the LLC capacity, so extra ways convert misses into hits;
compute-bound ones (povray, calculix, h264ref) barely touch the LLC.

The absolute values are not meant to match the originals instruction for
instruction — only the intensity/sensitivity/locality mix the paper's
analysis depends on (see DESIGN.md, substitutions). Hot-set depths and
footprints are calibrated to the scaled 256KB (4096-line) LLC of
:func:`repro.config.scaled_config`: cache-sensitive applications have hot
sets on the order of the LLC capacity (extra ways convert misses to hits),
streaming ones have tiny hot sets and huge footprints.
"""

from __future__ import annotations

from typing import Dict

from repro.workloads.synthetic import AppSpec


# Intensity rescale for the 8x-scaled platform: a smaller LLC turns more
# accesses into DRAM traffic, so unscaled APKIs would over-saturate the
# single memory channel and drown cache-capacity interference in bandwidth
# interference. 0.65 restores the paper-scale balance between the two.
_APKI_SCALE = 0.8


def _spec(name, suite, apki, reuse_prob, reuse_depth, footprint, seq, writes):
    return AppSpec(
        name=name,
        suite=suite,
        apki=apki * _APKI_SCALE,
        reuse_prob=reuse_prob,
        reuse_depth=reuse_depth,
        footprint_lines=footprint,
        seq_frac=seq,
        write_frac=writes,
    )


_SPEC_APPS = [
    #      name         suite   apki  reuse  depth  footprint  seq   wr
    _spec("povray",     "spec",  1.5, 0.90,    300,    4_000, 0.30, 0.10),
    _spec("calculix",   "spec",  2.5, 0.85,    500,    6_000, 0.50, 0.10),
    _spec("h264ref",    "spec",  3.5, 0.85,    800,    8_000, 0.60, 0.15),
    _spec("gcc",        "spec",  4.0, 0.75,  1_000,   12_000, 0.40, 0.20),
    _spec("dealII",     "spec",  6.0, 0.88,  1_500,   20_000, 0.40, 0.10),
    _spec("bzip2",      "spec",  8.0, 0.82,  1_800,   25_000, 0.30, 0.20),
    _spec("xalancbmk",  "spec", 10.0, 0.78,  2_200,   40_000, 0.20, 0.10),
    _spec("astar",      "spec", 12.0, 0.70,  1_500,   50_000, 0.10, 0.10),
    _spec("sphinx3",    "spec", 14.0, 0.65,  1_800,   60_000, 0.30, 0.05),
    _spec("omnetpp",    "spec", 18.0, 0.60,  2_000,   80_000, 0.10, 0.15),
    _spec("leslie3d",   "spec", 20.0, 0.50,    400,  200_000, 0.70, 0.10),
    _spec("GemsFDTD",   "spec", 22.0, 0.45,    600,  250_000, 0.80, 0.10),
    _spec("milc",       "spec", 25.0, 0.20,    120,  250_000, 0.50, 0.15),
    _spec("soplex",     "spec", 26.0, 0.65,  2_500,  100_000, 0.40, 0.05),
    _spec("libquantum", "spec", 32.0, 0.05,     12,  500_000, 0.95, 0.05),
    _spec("lbm",        "spec", 35.0, 0.10,     25,  500_000, 0.90, 0.30),
    _spec("mcf",        "spec", 40.0, 0.45,  4_000,  400_000, 0.05, 0.10),
]

_NAS_APPS = [
    _spec("bt", "nas",  5.0, 0.75,    900,   40_000, 0.60, 0.15),
    _spec("lu", "nas",  8.0, 0.70,  1_100,   50_000, 0.60, 0.10),
    _spec("ua", "nas", 10.0, 0.65,  1_400,   60_000, 0.40, 0.10),
    _spec("ft", "nas", 12.0, 0.88,  2_400,   75_000, 0.50, 0.10),
    _spec("sp", "nas", 15.0, 0.50,    400,  100_000, 0.70, 0.15),
    _spec("mg", "nas", 18.0, 0.40,    300,  200_000, 0.80, 0.10),
    _spec("is", "nas", 22.0, 0.25,    100,  250_000, 0.20, 0.20),
    _spec("cg", "nas", 26.0, 0.35,  1_200,  120_000, 0.15, 0.05),
]

_DB_APPS = [
    _spec("tpcc", "db", 16.0, 0.60, 2_000,  250_000, 0.10, 0.30),
    _spec("ycsb", "db", 20.0, 0.70, 1_600,  500_000, 0.05, 0.05),
]

CATALOG: Dict[str, AppSpec] = {
    spec.name: spec for spec in _SPEC_APPS + _NAS_APPS + _DB_APPS
}

# Memory-intensity classes used for stratified workload construction
# ("workloads with varying memory intensity", Section 5).
LOW_INTENSITY_APKI = 8.0
HIGH_INTENSITY_APKI = 20.0


def spec_by_name(name: str) -> AppSpec:
    try:
        return CATALOG[name]
    except KeyError:
        raise KeyError(
            f"unknown benchmark {name!r}; known: {sorted(CATALOG)}"
        ) from None


def intensity_class(spec: AppSpec) -> str:
    if spec.apki < LOW_INTENSITY_APKI:
        return "low"
    if spec.apki < HIGH_INTENSITY_APKI:
        return "medium"
    return "high"
