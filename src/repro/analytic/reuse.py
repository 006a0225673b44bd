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

Stack distances are computed online with a Fenwick tree over access
timestamps (O(log n) per reuse). A timestamp is *superseded* once its
line is touched again. The stack distance of a reuse at ``t`` of a line
last touched at ``t0`` is the number of lines whose latest touch falls
strictly between the two, i.e. the ``t - t0 - 1`` timestamps in between
less the superseded ones among them. The tree counts superseded
timestamps, so a cold access never touches it and a reuse costs one
prefix walk (superseded timestamps up to ``t0``) plus one update (``t0``
becomes superseded).

Histograms use geometric buckets (ratio ~1.15, ~75 buckets out to the
sample length) recording per-bucket count and mean stack/time distance;
the hit-rate error this bucketing introduces is bounded by the bucket
width (~15 % in *distance*, far less in hit rate because the CDF is
smooth). The sample length (default 32768 accesses/core) is the wall
clock knob: extraction cost is independent of simulated cycles, which
is what makes 100M-cycle cells take seconds instead of minutes.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.workloads.mixes import WorkloadMix
from repro.workloads.synthetic import AppSpec, SyntheticTrace

#: Accesses sampled per core when profiling a generator. Extraction is
#: O(n log n) in this; at 32768 a cold paper-scale 4-core cell, four
#: profiles plus the solve, takes ~0.3 s (docs/fidelity.md) while the
#: distance CDFs are already stable to a few percent.
DEFAULT_SAMPLE_ACCESSES = 32768

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


def extract_profile(
    mix: WorkloadMix,
    core: int,
    sample_accesses: int = DEFAULT_SAMPLE_ACCESSES,
) -> ReuseProfile:
    """Sample ``mix``'s generator for ``core`` and summarise its reuse.

    Uses :meth:`~repro.workloads.mixes.WorkloadMix.trace_for_core`, so
    the sampled stream is byte-for-byte the prefix the event tier would
    simulate. Profiles are memoised per process on
    ``(spec, mix seed, core, sample length)``.
    """
    if sample_accesses < 1:
        raise ValueError(
            f"sample_accesses must be positive, got {sample_accesses}"
        )
    key = (mix.specs[core], mix.seed, core, sample_accesses)
    cached = _PROFILE_CACHE.get(key)
    if cached is not None:
        return cached
    profile = _extract(mix.specs[core], mix.trace_for_core(core), sample_accesses)
    _PROFILE_CACHE[key] = profile
    return profile


def profile_mix(
    mix: WorkloadMix,
    sample_accesses: int = DEFAULT_SAMPLE_ACCESSES,
) -> List[ReuseProfile]:
    """Per-core reuse profiles for every application in ``mix``."""
    return [
        extract_profile(mix, core, sample_accesses)
        for core in range(mix.num_cores)
    ]


_PROFILE_CACHE: Dict[Tuple[AppSpec, int, int, int], ReuseProfile] = {}


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
    # Fenwick tree of superseded timestamps: timestamp s sits at index
    # s + 1, and tree[i] counts the superseded ones whose index lies in
    # (i - (i & -i), i]. Each reuse supersedes one timestamp, so the
    # superseded count is also the reuse count.
    size = sample_accesses + 1
    tree = [0] * size
    superseded = 0
    last_access: Dict[int, int] = {}
    first_touch = last_access.setdefault
    for t, line in enumerate(lines):
        t0 = first_touch(line, t)
        if t0 == t:
            continue  # cold: the line's first touch, one dict operation
        last_access[line] = t
        i = t0 + 1  # prefix walk: superseded timestamps up to t0
        superseded_le_t0 = 0
        while i:
            superseded_le_t0 += tree[i]
            i &= i - 1
        stack_distance = t - t0 - 1 - (superseded - superseded_le_t0)
        bucket = bucket_of[stack_distance]
        counts[bucket] += 1
        sd_sums[bucket] += stack_distance
        td_sums[bucket] += t - t0
        i = t0 + 1  # update: t0 is superseded from now on
        while i < size:
            tree[i] += 1
            i += i & -i
        superseded += 1
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
        cold_frac=(sample_accesses - superseded) / sample_accesses,
        buckets=buckets,
    )


__all__ = [
    "DEFAULT_SAMPLE_ACCESSES",
    "ReuseProfile",
    "extract_profile",
    "profile_mix",
]
