"""The paper's reported numbers and shape claims, as structured data.

Used by the report builder (and available to downstream users who want to
compare their own runs against the original evaluation). Values are
transcribed from the MICRO 2015 paper; "shape" notes say what a scaled
reproduction is expected to match, and each target's claims check that
shape against the archived ``results/*.txt`` tables.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Tuple

HOLDS = "holds"
FAILS = "fails"
BY_CONSTRUCTION = "holds by construction"


@dataclass(frozen=True)
class Table:
    """An archived results table in ``experiments.common.format_table``'s
    layout: a header line, a rule of dashes, one line per row."""

    headers: Tuple[str, ...]
    rows: Tuple[Tuple[str, ...], ...]

    def value(self, column: str, *key: str) -> float:
        """The number in ``column`` of the one row that starts with ``key``."""
        [row] = [row for row in self.rows if row[: len(key)] == key]
        return float(row[self.headers.index(column)])

    def column(self, column: str) -> List[float]:
        """Every row's number in ``column``."""
        return [float(row[self.headers.index(column)]) for row in self.rows]

    def labels(self) -> List[str]:
        """The first column's distinct values, in table order."""
        return list(dict.fromkeys(row[0] for row in self.rows))


def parse_table(text: str) -> Table:
    """The first table in ``text``; ``ValueError`` when it holds none.

    The rule's runs of dashes give the column spans; rows run until the
    first blank line.
    """
    lines = text.splitlines()
    for i in range(1, len(lines)):
        if "-" in lines[i] and not lines[i].strip("- "):
            spans = [m.span() for m in re.finditer("-+", lines[i])]
            cells = [tuple(line[a:b].strip() for a, b in spans) for line in lines]
            end = next((k for k in range(i, len(lines)) if not lines[k].strip()), len(lines))
            return Table(cells[i - 1], tuple(cells[i + 1:end]))
    raise ValueError("no table")


@dataclass(frozen=True)
class Claim:
    """One checkable statement about the archived tables.

    ``check`` takes the parsed tables named by ``stems``, in order; the
    report prints the claim's status under the first of them.
    """

    text: str
    stems: Tuple[str, ...]
    check: Callable[..., bool]
    by_construction: bool = False

    def status(self, tables: Mapping[str, Table]) -> str:
        """``HOLDS``, ``FAILS`` or ``BY_CONSTRUCTION`` on ``tables``."""
        if not self.check(*(tables[stem] for stem in self.stems)):
            return FAILS
        return BY_CONSTRUCTION if self.by_construction else HOLDS


def _on(stem: str, *claims: Tuple[str, Callable[..., bool]], also: Tuple[str, ...] = (),
        by_construction: bool = False) -> Tuple[Claim, ...]:
    """Claims ``(text, check)`` that read table ``stem``, then ``also``."""
    return tuple(Claim(text, (stem, *also), check, by_construction) for text, check in claims)


def _asm_lowest(value: Callable[[str], float], rivals: Tuple[str, ...] = ("fst", "ptca")) -> bool:
    """ASM's ``value`` is below every rival model's."""
    return all(value("asm") < value(model) for model in rivals)


def _asm_lowest_at_each(t: Table, column: str) -> bool:
    """ASM has the lowest ``column`` under every first-column key."""
    return all(_asm_lowest(lambda m: t.value(column, key, m)) for key in t.labels())


def _rises(values: List[float]) -> bool:
    return all(a < b for a, b in zip(values, values[1:]))


def _avg(t: Table, model: str) -> float:
    return t.value(f"{model}_err%", "== average ==")


def _worst3(t: Table, model: str) -> List[str]:
    apps = [app for app in t.labels() if app != "== average =="]
    return sorted(sorted(apps, key=lambda app: t.value(f"{model}_err%", app))[-3:])


def _at_most(
    t: Table, column: str, scheme: str, rivals: Optional[Tuple[str, ...]] = None
) -> bool:
    """At every core count ``scheme``'s ``column`` is at most each rival's
    (every scheme's when None)."""
    return all(
        t.value(column, row[0], scheme) <= t.value(column, *row[:2])
        for row in t.rows
        if rivals is None or row[1] in rivals
    )


def _gain_rises(t: Table, scheme: str, rival: str) -> bool:
    """``scheme``'s relative max-slowdown cut over ``rival`` grows with core count."""
    return _rises([
        1 - t.value("max_slowdown", c, scheme) / t.value("max_slowdown", c, rival)
        for c in t.labels()
    ])


def _qos(t: Table) -> List[str]:
    """The ASM-QoS rows, tightest bound first."""
    return sorted((s for s in t.labels() if s.startswith("asm-qos-")), key=_bound)


def _bound(scheme: str) -> float:
    return float(scheme.rsplit("-", 1)[1])


def _targets(t: Table) -> List[float]:
    """The target application's (first column's) slowdown under each
    ASM-QoS bound, tightest first."""
    return [t.value(t.headers[1], s) for s in _qos(t)]


def _less_dispersed(t: Table) -> bool:
    """ASM's estimates spread less around the union reference than
    PTCA's around the per-request mean (Fig. 6's shape criterion)."""
    spread = {m: t.value("stdev", m) for m in ("asm", "actual_union", "ptca", "actual")}
    return spread["asm"] / spread["actual_union"] < spread["ptca"] / spread["actual"]


@dataclass(frozen=True)
class PaperTarget:
    """What the paper reports for one experiment."""

    experiment: str
    description: str
    numbers: Dict[str, float] = field(default_factory=dict)
    shape: str = ""
    claims: Tuple[Claim, ...] = ()


PAPER_TARGETS: Dict[str, PaperTarget] = {
    target.experiment: target
    for target in [
        PaperTarget(
            "fig01",
            "performance is proportional to shared-cache access rate",
            {},
            shape="(CAR, performance) points lie on the y = x diagonal",
            claims=_on(
                "fig01_car_proxy",
                ("every application's Pearson r between CAR and performance reads 1.00",
                 lambda t: min(t.column("pearson_r")) == 1.0),
                ("every application's mean |perf - CAR| is at most 0.02",
                 lambda t: max(t.column("mean |perf-CAR|")) <= 0.02),
                by_construction=True,
            ),
        ),
        PaperTarget(
            "fig02",
            "average slowdown estimation error, unsampled structures (%)",
            {"asm": 9.0, "ptca": 14.7, "fst": 18.5},
            shape="ASM lowest; FST/PTCA worst for memory-intensive and "
            "cache-sensitive benchmarks",
            claims=_on(
                "fig02_error_unsampled",
                ("ASM's average error is the lowest of the three models",
                 lambda t: _asm_lowest(lambda m: _avg(t, m))),
                ("FST's and PTCA's three largest errors are on libquantum, lbm and milc",
                 lambda t: _worst3(t, "fst") == _worst3(t, "ptca")
                 == ["spec:lbm", "spec:libquantum", "spec:milc"]),
            ),
        ),
        PaperTarget(
            "fig03",
            "average error with sampled ATS / small pollution filter (%)",
            {"asm": 9.9, "fst": 29.4, "ptca": 40.4},
            shape="sampling wrecks PTCA (and FST); ASM barely moves",
            claims=_on(
                "fig03_error_sampled",
                ("with sampling ASM's average error is the lowest of the three models",
                 lambda s, u: _asm_lowest(lambda m: _avg(s, m))),
                ("sampling raises FST's and PTCA's average errors more than ASM's",
                 lambda s, u: _asm_lowest(lambda m: _avg(s, m) - _avg(u, m))),
                ("sampling moves ASM's average error by less than one point (paper: 9.0% to 9.9%)",
                 lambda s, u: abs(_avg(s, "asm") - _avg(u, "asm")) < 1.0),
                ("sampling raises PTCA's average error by more than half (paper: 14.7% to 40.4%)",
                 lambda s, u: _avg(s, "ptca") > 1.5 * _avg(u, "ptca")),
                also=("fig02_error_unsampled",),
            ),
        ),
        PaperTarget(
            "fig04",
            "error distribution across 400 application instances",
            {
                "asm_within_20pct": 0.9525,
                "fst_within_20pct": 0.7625,
                "ptca_within_20pct": 0.7925,
                "asm_max": 36.0,
                "ptca_max": 87.0,
                "fst_max": 133.0,
            },
            shape="ASM has the fattest low-error mass and smallest tail",
            claims=_on(
                "fig04_error_distribution",
                ("ASM has the largest share of estimates under 20% error",
                 lambda t: _asm_lowest(lambda m: -t.value(m, "<20% share"))),
                ("ASM has the smallest maximum error",
                 lambda t: _asm_lowest(lambda m: t.value(m, "max error%"))),
            ),
        ),
        PaperTarget(
            "fig05",
            "average error with a stride prefetcher (%)",
            {"asm": 7.5, "ptca": 15.0, "fst": 20.0},
            shape="ASM improves under prefetching; FST/PTCA degrade slightly",
            claims=_on(
                "fig05_prefetching",
                ("with prefetching ASM's error is the lowest of the three models",
                 lambda t: _asm_lowest(lambda m: t.value("prefetch", m))),
                ("ASM's error falls under prefetching, FST's and PTCA's rise",
                 lambda t: [t.value("prefetch", m) > t.value("no_prefetch", m)
                            for m in ("asm", "fst", "ptca")] == [False, True, True]),
            ),
        ),
        PaperTarget(
            "fig06",
            "alone miss service time distributions",
            {},
            shape="ASM tracks the measured distribution; per-request models "
            "deviate, sampled PTCA most",
            claims=_on(
                "fig06_latency_unsampled",
                ("ASM's estimates spread less around their reference than PTCA's",
                 _less_dispersed),
                ("ASM's estimates deviate from their reference less than FST's and PTCA's",
                 lambda t: _asm_lowest(lambda m: t.value("dev_from_reference%", m))),
            ) + _on(
                "fig06_latency_sampled",
                ("with sampling ASM's estimates spread less around their reference than PTCA's",
                 lambda s, u: _less_dispersed(s)),
                ("with sampling PTCA's estimates deviate from their reference the most",
                 lambda s, u: all(
                     s.value("dev_from_reference%", "ptca") > s.value("dev_from_reference%", m)
                     for m in ("asm", "fst")
                 )),
                ("sampling moves PTCA's mean estimate and leaves ASM's unchanged",
                 lambda s, u: [s.value("mean", m) == u.value("mean", m)
                               for m in ("asm", "ptca")] == [True, False]),
                also=("fig06_latency_unsampled",),
            ),
        ),
        PaperTarget(
            "db",
            "database workloads (TPC-C / YCSB) average error (%)",
            {"asm": 4.0, "ptca": 12.0, "fst": 27.0},
            shape="ASM best on database workloads",
            claims=_on(
                "db_workloads",
                ("ASM's error is the lowest of the three models",
                 lambda t: _asm_lowest(lambda m: t.value("mean_err%", m))),
            ),
        ),
        PaperTarget(
            "sec64",
            "MISE (memory-only) vs ASM average error (%)",
            {"mise": 22.0, "asm": 9.9},
            shape="modelling cache interference is what closes the gap",
            claims=_on(
                "sec64_mise_vs_asm",
                ("ASM errs less than MISE overall and on cache-sensitive applications",
                 lambda t: all(_asm_lowest(lambda m: t.value(c, m), ("mise",))
                               for c in ("overall", "cache_sensitive_apps"))),
                ("the MISE-ASM gap is wider on cache-sensitive applications than on the others",
                 lambda t: _rises([t.value(c, "mise") - t.value(c, "asm")
                                   for c in ("other_apps", "cache_sensitive_apps")])),
            ),
        ),
        PaperTarget(
            "fig07",
            "error vs core count (%)",
            {},
            shape="all models degrade with cores; ASM stays lowest with the "
            "smallest spread and a growing advantage",
            claims=_on(
                "fig07_core_count",
                ("ASM's error is the lowest of the three models at every core count",
                 lambda t: _asm_lowest_at_each(t, "mean_err%")),
                ("ASM's spread across workloads is the smallest at every core count",
                 lambda t: _asm_lowest_at_each(t, "stdev_across_workloads")),
                ("ASM's advantage over FST and PTCA grows with core count",
                 lambda t: all(_rises([t.value("mean_err%", c, m) - t.value("mean_err%", c, "asm")
                                       for c in t.labels()]) for m in ("fst", "ptca"))),
                ("every model's error grows with core count",
                 lambda t: all(_rises([t.value("mean_err%", c, m) for c in t.labels()])
                               for m in ("fst", "ptca", "asm"))),
            ),
        ),
        PaperTarget(
            "fig08",
            "error vs shared cache capacity",
            {},
            shape="ASM most accurate at every capacity (paper: 1-4MB)",
            claims=_on(
                "fig08_cache_size",
                ("ASM's error is the lowest of the three models at every LLC size",
                 lambda t: _asm_lowest_at_each(t, "mean_err%")),
            ),
        ),
        PaperTarget(
            "table3",
            "ASM error vs quantum/epoch lengths (%)",
            {
                "Q5M_E10K": 9.9,
                "Q5M_E1K": 17.1,
                "Q1M_E10K": 12.0,
                "Q10M_E10K": 9.2,
            },
            shape="error falls with larger Q; the shortest epoch is worst",
            claims=_on(
                "table3_quantum_epoch",
                ("error falls as the quantum grows, in every epoch column",
                 lambda t: all(_rises(t.column(e)[::-1]) for e in t.headers[1:])),
                ("an epoch length between the shortest and the longest is best at every quantum",
                 lambda t: all(min(t.value(e, q) for e in t.headers[2:-1])
                               < min(t.value(e, q) for e in (t.headers[1], t.headers[-1]))
                               for q in t.labels())),
                ("the shortest epoch is the worst at every quantum",
                 lambda t: all(t.value(t.headers[1], q) > max(t.value(e, q) for e in t.headers[2:])
                               for q in t.labels())),
            ),
        ),
        PaperTarget(
            "fig09",
            "ASM-Cache fairness/performance vs NoPart/UCP/MCFQ",
            {"unfairness_reduction_16core_vs_ucp_pct": 15.8,
             "performance_gain_16core_vs_ucp_pct": 5.8},
            shape="ASM-Cache fairest at comparable-or-better performance; "
            "gains grow with core count",
            claims=_on(
                "fig09_asm_cache",
                ("ASM-Cache's max slowdown is at most UCP's at every core count",
                 lambda t: _at_most(t, "max_slowdown", "asm-cache", ("ucp",))),
                ("no scheme has a lower max slowdown than ASM-Cache at any core count",
                 lambda t: _at_most(t, "max_slowdown", "asm-cache")),
                ("ASM-Cache's harmonic speedup is at least UCP's at every core count",
                 lambda t: _at_most(t, "harmonic_speedup", "ucp", ("asm-cache",))),
                ("ASM-Cache's fairness gain over UCP grows with core count",
                 lambda t: _gain_rises(t, "asm-cache", "ucp")),
            ),
        ),
        PaperTarget(
            "fig10",
            "ASM-Mem fairness/performance vs FRFCFS/PARBS/TCM",
            {"fairness_gain_8core_vs_parbs_pct": 5.5,
             "fairness_gain_16core_vs_parbs_pct": 12.0},
            shape="ASM-Mem fairest at comparable/better performance",
            claims=_on(
                "fig10_asm_mem",
                ("ASM-Mem's max slowdown is at most FR-FCFS's at every core count",
                 lambda t: _at_most(t, "max_slowdown", "asm-mem", ("frfcfs",))),
                ("no scheme has a lower max slowdown than ASM-Mem at any core count",
                 lambda t: _at_most(t, "max_slowdown", "asm-mem")),
                ("ASM-Mem's harmonic speedup is at least FR-FCFS's at every core count",
                 lambda t: _at_most(t, "harmonic_speedup", "frfcfs", ("asm-mem",))),
                ("ASM-Mem's fairness gain over PARBS grows with core count",
                 lambda t: _gain_rises(t, "asm-mem", "parbs")),
            ),
        ),
        PaperTarget(
            "sec72",
            "ASM-Cache-Mem vs PARBS+UCP (16-core)",
            {"fairness_gain_pct": 14.6},
            shape="coordinated scheme fairest at performance within 1%",
            claims=_on(
                "sec72_combined",
                ("no scheme has a lower max slowdown than ASM-Cache-Mem",
                 lambda t: t.value("max_slowdown", "asm-cache-mem")
                 == min(t.column("max_slowdown"))),
                ("ASM-Cache-Mem's harmonic speedup is within 1% of PARBS+UCP's",
                 lambda t: abs(t.value("harmonic_speedup", "asm-cache-mem")
                               / t.value("harmonic_speedup", "parbs+ucp") - 1) <= 0.01),
            ),
        ),
        PaperTarget(
            "fig11",
            "ASM-QoS soft slowdown guarantees",
            {"naive_qos_h264ref_min_slowdown": 2.17},
            shape="bound met with far less co-runner damage than Naive-QoS",
            claims=_on(
                "fig11_qos",
                ("the target's slowdown never falls as the bound loosens",
                 lambda t: _targets(t) == sorted(_targets(t))),
                ("ASM-QoS-X holds the target's slowdown at or below X for every bound X",
                 lambda t: all(v <= _bound(s) for s, v in zip(_qos(t), _targets(t)))),
                ("under the loosest bound the co-runners' mean slowdown is at most their "
                 "Naive-QoS mean",
                 lambda t: sum(t.value(a, _qos(t)[-1]) - t.value(a, "naive-qos")
                               for a in t.headers[2:-1]) <= 0),
                ("no co-runner is slower under any ASM-QoS bound than under Naive-QoS",
                 lambda t: all(t.value(a, s) <= t.value(a, "naive-qos")
                               for s in _qos(t) for a in t.headers[2:-1])),
            ),
        ),
    ]
}


def target_for(experiment: str) -> Optional[PaperTarget]:
    """The target of ``experiment``; a variant verb such as
    ``fig06-sampled`` shares its figure's target."""
    return PAPER_TARGETS.get(experiment) or PAPER_TARGETS.get(experiment.split("-")[0])
