"""Assemble the archived experiment tables into one report.

``build_report(results_dir)`` collects every ``results/*.txt`` that
``python -m repro <verb> --out results/<stem>.txt`` wrote, pairs each
with the paper's reported numbers from
:mod:`repro.analysis.paper_targets`, prints the status of each paper
claim under the table it reads, and returns a single markdown document
(also written to ``results/REPORT.md`` by default).
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional

from repro.analysis.paper_targets import PAPER_TARGETS, parse_table, target_for
from repro.durability.atomic import atomic_write_text

# results file stem -> the `python -m repro` verb that writes it
_FILE_TO_VERB = {
    "fig01_car_proxy": "fig01",
    "fig02_error_unsampled": "fig02",
    "fig03_error_sampled": "fig03",
    "fig04_error_distribution": "fig04",
    "fig05_prefetching": "fig05",
    "fig06_latency_unsampled": "fig06",
    "fig06_latency_sampled": "fig06-sampled",
    "db_workloads": "db",
    "sec64_mise_vs_asm": "sec64",
    "fig07_core_count": "fig07",
    "fig08_cache_size": "fig08",
    "table3_quantum_epoch": "table3",
    "fig09_asm_cache": "fig09",
    "fig10_asm_mem": "fig10",
    "sec72_combined": "sec72",
    "fig11_qos": "fig11",
    "ablations": "ablations",
}


def build_report(
    results_dir: Path | str = "results",
    output: Optional[Path | str] = "results/REPORT.md",
) -> str:
    """Build (and optionally write) the combined report."""
    results_dir = Path(results_dir)
    claims = [claim for target in PAPER_TARGETS.values() for claim in target.claims]
    tables = {}
    for stem in _FILE_TO_VERB:
        try:
            tables[stem] = parse_table((results_dir / f"{stem}.txt").read_text())
        except (OSError, ValueError):
            pass
    sections = [
        "# Reproduction report",
        "",
        "Generated from the tables that `python -m repro <verb> --out "
        f"{results_dir}/<stem>.txt` wrote. Paper numbers from Subramanian "
        "et al., MICRO 2015; see EXPERIMENTS.md for scale and deviation "
        "notes.",
    ]
    found_any = False
    for stem, verb in _FILE_TO_VERB.items():
        path = results_dir / f"{stem}.txt"
        if not path.exists():
            continue
        found_any = True
        sections.append(f"\n## {stem}\n")
        target = target_for(verb)
        if target is not None:
            sections.append(f"*Paper*: {target.description}.")
            if target.numbers:
                numbers = ", ".join(
                    f"{k}={v:g}" for k, v in target.numbers.items()
                )
                sections.append(f"*Paper numbers*: {numbers}.")
            if target.shape:
                sections.append(f"*Expected shape*: {target.shape}.")
        sections.append("\n```\n" + path.read_text().rstrip() + "\n```")
        for claim in (c for c in claims if c.stems[0] == stem):
            try:
                status = claim.status(tables)
            except (KeyError, ValueError):
                status = "unchecked (a table it reads is missing or unreadable)"
            sections.append(f"- **{status}**: {claim.text}")
    if not found_any:
        raise FileNotFoundError(
            f"no experiment tables found under {results_dir}; run "
            "`python -m repro <verb> --out results/<stem>.txt` first"
        )
    report = "\n".join(sections) + "\n"
    if output is not None:
        atomic_write_text(str(output), report)
    return report
