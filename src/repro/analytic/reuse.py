"""Reuse-distance profile extraction from the workload generators.

The analytic tier never replays a trace through the cache; instead it
samples a bounded prefix of each core's deterministic access stream and
summarises it as a joint *stack-distance* / *time-distance* histogram:

* **stack distance** — distinct lines touched between two accesses to
  the same line. Under LRU (the fully-associative approximation of the
  16-way LLC) a reuse hits iff its stack distance is below capacity.
* **time distance** — accesses elapsed between the two touches. This is
  what co-runner interference scales with: a reuse separated by ``Δt``
  cycles admits ``D_j(λ_j · Δt)`` insertions from each co-runner ``j``
  (see :mod:`repro.analytic.llc`).

Stack distances are computed online from an ascending list holding
each touched line's latest touch. The stack distance of a reuse at
``t`` of a line last touched at ``t0`` is the number of lines whose
latest touch falls strictly between the two: the list entries after
``t0``'s, which one bisection finds. The reuse then deletes ``t0``'s
entry, a memmove of just those stack-distance entries, and every access
appends ``t``, which keeps the list sorted. A cold access costs one dict
operation and one append.

Histograms use geometric buckets (ratio ~1.15, ~75 buckets out to the
sample length) recording per-bucket count and mean stack/time distance;
the hit-rate error this bucketing introduces is bounded by the bucket
width (~15 % in *distance*, far less in hit rate because the CDF is
smooth). The sample length (:data:`SAMPLE_ACCESSES` per core) is the
wall clock knob: extraction cost is independent of simulated cycles, which
is what makes 100M-cycle cells take seconds instead of minutes.
"""

from __future__ import annotations

import itertools
import operator
from bisect import bisect_left
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.workloads.mixes import WorkloadMix
from repro.workloads.synthetic import AppSpec, SyntheticTrace

#: Accesses sampled per core when profiling a generator. Extraction is
#: linear in this, plus per reuse one bisection and a memmove of as many
#: list entries as its stack distance; at 32768 a cold
#: paper-scale 4-core cell, four profiles plus the solve, takes ~0.13 s
#: (docs/fidelity.md) while the distance CDFs are already stable to a few
#: percent.
SAMPLE_ACCESSES = 32768

#: Geometric bucket growth ratio for the distance histogram.
_BUCKET_RATIO = 1.15


def _bucket_bounds(limit: int) -> List[int]:
    """Geometric bucket lower bounds: 0, 1, 2, ... growing by ~15 %."""
    bounds = [0, 1]
    while bounds[-1] < limit:
        bounds.append(max(bounds[-1] + 1, int(bounds[-1] * _BUCKET_RATIO)))
    return bounds


@dataclass(frozen=True)
class ReuseProfile:
    """Distance summary of one core's sampled access stream.

    ``buckets`` holds ``(count, mean_stack_distance, mean_time_distance)``
    per geometric bucket for the *reuse* accesses; cold accesses (first
    touch of a line within the sample) are counted in ``cold_frac`` and
    can never hit. All rate-like fields are measured on the sample, not
    taken from the :class:`~repro.workloads.synthetic.AppSpec`, so the
    profile reflects the generator's integer truncation and scrambling.
    """

    spec_name: str
    accesses: int
    mean_gap: float  # measured non-access instructions between accesses
    write_frac: float
    seq_frac: float  # fraction of accesses at exactly prev_line + 1
    cold_frac: float
    buckets: Tuple[Tuple[int, float, float], ...]

    def distinct_lines(self, n: float) -> float:
        """Expected distinct lines touched in ``n`` consecutive accesses.

        ``D(n) = Σ_{k=0}^{n-1} P(TD > k)`` where TD is the time distance
        of a random access (cold accesses have infinite TD). With the
        bucketed histogram this is ``(Σ_b count_b · min(td_b, n))/N +
        cold_frac · n`` — concave, increasing, and exactly ``n`` when
        every access is cold.
        """
        if n <= 0:
            return 0.0
        # Plain float adds, left to right, on every Python version: sum()
        # compensates float sums from 3.12 on.
        finite = 0.0
        for count, _sd, mean_td in self.buckets:
            finite += count * (n if n < mean_td else mean_td)
        return finite / self.accesses + self.cold_frac * n

    def instructions_per_access(self) -> float:
        """Committed instructions carried by each trace record."""
        return self.mean_gap + 1.0


def extract_profile(mix: WorkloadMix, core: int) -> ReuseProfile:
    """Sample ``mix``'s generator for ``core`` and summarise its reuse.

    Uses :meth:`~repro.workloads.mixes.WorkloadMix.trace_for_core`, so
    the sampled stream is byte-for-byte the prefix the event tier would
    simulate. Profiles are memoised per process on
    ``(spec, mix seed, core)``.
    """
    key = (mix.specs[core], mix.seed, core)
    cached = _PROFILE_CACHE.get(key)
    if cached is not None:
        return cached
    profile = _extract(mix.specs[core], mix.trace_for_core(core), SAMPLE_ACCESSES)
    _PROFILE_CACHE[key] = profile
    return profile


def profile_mix(mix: WorkloadMix) -> List[ReuseProfile]:
    """Per-core reuse profiles for every application in ``mix``."""
    return [extract_profile(mix, core) for core in range(mix.num_cores)]


_PROFILE_CACHE: Dict[Tuple[AppSpec, int, int], ReuseProfile] = {}


def _extract(
    spec: AppSpec, trace: SyntheticTrace, sample_accesses: int
) -> ReuseProfile:
    gaps, lines, writes = trace.take(sample_accesses)
    gap_total = sum(gaps)
    write_total = sum(writes)
    del gaps, writes  # only the line column is walked; free the rest
    # Sequential accesses: lines exactly one past their predecessor.
    seq = operator.countOf(
        map(operator.sub, itertools.islice(lines, 1, None), lines), 1
    )
    bounds = _bucket_bounds(sample_accesses)
    # Bucket of every possible stack distance (all lie below the last
    # bound), as bisect_right(bounds, distance) - 1 would find it. The
    # ~15% growth keeps bucket indices below 256 for any sample that
    # fits in memory.
    bucket_of = b"".join(
        bytes([b]) * (hi - lo)
        for b, (lo, hi) in enumerate(zip(bounds, bounds[1:]))
    )
    counts = [0] * len(bounds)
    sd_sums = [0] * len(bounds)
    td_sums = [0] * len(bounds)
    # Each touched line's latest touch, ascending: one entry per distinct
    # line, so one per cold access. At a reuse, the entries past t0's are
    # the lines touched since, as many as the stack distance.
    latest: List[int] = []
    touch = latest.append
    last_access: Dict[int, int] = {}
    first_touch = last_access.setdefault
    for t, line in enumerate(lines):
        t0 = first_touch(line, t)
        if t0 != t:
            last_access[line] = t
            i = bisect_left(latest, t0)
            stack_distance = len(latest) - i - 1
            del latest[i]  # t0 is no longer its line's latest touch
            bucket = bucket_of[stack_distance]
            counts[bucket] += 1
            sd_sums[bucket] += stack_distance
            td_sums[bucket] += t - t0
        touch(t)
    buckets = tuple(
        (counts[b], sd_sums[b] / counts[b], td_sums[b] / counts[b])
        for b in range(len(bounds))
        if counts[b]
    )
    return ReuseProfile(
        spec_name=spec.name,
        accesses=sample_accesses,
        mean_gap=gap_total / sample_accesses,
        write_frac=write_total / sample_accesses,
        seq_frac=seq / sample_accesses,
        cold_frac=len(latest) / sample_accesses,
        buckets=buckets,
    )


__all__ = [
    "ReuseProfile",
    "SAMPLE_ACCESSES",
    "extract_profile",
    "profile_mix",
]
