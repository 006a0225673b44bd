"""Shared-LLC hit-rate composition from per-core reuse profiles.

Barai-style interleaving model (PAPERS.md, arXiv:1907.12666): under a
shared LRU cache, a reuse by core ``i`` at stack distance ``d`` whose
touches are ``td`` of core ``i``'s own accesses apart spans
``Δt = td / λ_i`` cycles, during which every co-runner ``j`` inserts
``D_j(λ_j · Δt)`` expected distinct lines between the two touches
(``λ`` in LLC accesses per cycle, ``D_j`` the distinct-line curve from
:meth:`~repro.analytic.reuse.ReuseProfile.distinct_lines`). The shared
stack distance is therefore

::

    d_shared = d + Σ_{j≠i} D_j(λ_j · td / λ_i)

and the reuse hits iff ``d_shared < capacity_lines``. Alone, the same
reuse hits iff ``d < capacity_lines``. Cold accesses never hit in
either case.

A co-runner inserts at most as many distinct lines as it accesses,
``D_j(n) ≤ n``, so a reuse with ``d + Σ_{j≠i} λ_j · Δt`` below capacity
hits without evaluating any ``D_j``; only the other reuses run the sum
above. The bound keeps a 1e-9 relative margin below capacity, because a
computed ``D_j(n)`` can round a few ulps above ``n``. It decides the
same hits as the sum, so results do not change.

The LLC is treated as fully-associative LRU of ``llc.num_lines`` lines
— the classical approximation for a 16-way set-associative cache, and
the same idealisation the paper's ATS reasoning uses. Epoch-based
priority windows (the event tier's cache partitioning pressure) are
*not* modelled; ``docs/fidelity.md`` lists this among the analytic
tier's known-inaccurate regimes.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.analytic.reuse import ReuseProfile

#: Relative margin of the capacity bound in :func:`shared_hit_rates`. A
#: computed ``distinct_lines(n)`` can exceed ``n`` by one rounding per
#: bucket add at most, about 1e-15 relative over 20,000 fuzzed profiles.
_BOUND_MARGIN = 1e-9


def alone_hit_rate(profile: ReuseProfile, capacity_lines: int) -> float:
    """Hit rate of ``profile`` running alone in a cache of ``capacity_lines``."""
    hits = sum(
        count
        for count, mean_sd, _td in profile.buckets
        if mean_sd < capacity_lines
    )
    return hits / profile.accesses


def shared_hit_rates(
    profiles: Sequence[ReuseProfile],
    rates: Sequence[float],
    capacity_lines: int,
) -> List[float]:
    """Per-core hit rates when all ``profiles`` share one cache.

    ``rates[i]`` is core ``i``'s LLC access rate in accesses/cycle (the
    fixed-point variable of :mod:`repro.analytic.cpi`); it converts each
    reuse's time distance from "own accesses" into cycles and back into
    co-runner insertions.
    """
    sure_hit = capacity_lines * (1.0 - _BOUND_MARGIN)
    hit_rates: List[float] = []
    for i, profile in enumerate(profiles):
        own_rate = rates[i]
        if own_rate <= 0.0:
            hit_rates.append(alone_hit_rate(profile, capacity_lines))
            continue
        co_rate = sum(rate for j, rate in enumerate(rates) if j != i)
        hits = 0.0
        for count, mean_sd, mean_td in profile.buckets:
            if mean_sd >= capacity_lines:
                continue  # misses alone; interference cannot help
            elapsed = mean_td / own_rate
            if mean_sd + co_rate * elapsed < sure_hit:
                hits += count
                continue
            # Plain float adds, left to right: sum() compensates float
            # sums from Python 3.12 on.
            insertions = 0.0
            for j, other in enumerate(profiles):
                if j != i:
                    insertions += other.distinct_lines(rates[j] * elapsed)
            inflated = mean_sd + insertions
            if inflated < capacity_lines:
                hits += count
        hit_rates.append(hits / profile.accesses)
    return hit_rates


__all__ = ["alone_hit_rate", "shared_hit_rates"]
