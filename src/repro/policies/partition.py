"""The look-ahead way-partitioning algorithm from UCP [56].

Given one utility curve per application — ``utility[n]`` is the benefit of
owning ``n`` ways — the algorithm greedily assigns blocks of ways: at each
step it computes, for every application, the maximum *marginal utility per
way* over all feasible extensions of its current allocation, and grants the
winning application that block. Looking ahead over multi-way blocks (rather
than one way at a time) lets it climb past plateaus in non-convex curves.

UCP instantiates utility as hit counts; ASM-Cache instantiates it as
slowdown reduction (Section 7.1); MCFQ as a friendliness-weighted hit
count. All three share this implementation.
"""

from __future__ import annotations

from typing import List, Sequence

#: Ways every application receives (a zero-way application could never
#: cache anything).
MIN_WAYS = 1


def lookahead_partition(
    utilities: Sequence[Sequence[float]], total_ways: int
) -> List[int]:
    """Partition ``total_ways`` among applications.

    ``utilities[i][n]`` is application ``i``'s utility with ``n`` ways and
    must have length ``total_ways + 1``. Every application receives at least
    :data:`MIN_WAYS`.
    """
    num_apps = len(utilities)
    if num_apps == 0:
        raise ValueError("need at least one application")
    for curve in utilities:
        if len(curve) != total_ways + 1:
            raise ValueError(
                f"utility curves must have {total_ways + 1} entries"
            )
    if MIN_WAYS * num_apps > total_ways:
        raise ValueError(
            f"cannot give {num_apps} applications {MIN_WAYS} way each "
            f"out of {total_ways}"
        )

    allocation = [MIN_WAYS] * num_apps
    remaining = total_ways - MIN_WAYS * num_apps

    while remaining > 0:
        best_app = -1
        best_rate = -1.0
        best_block = 0
        for app in range(num_apps):
            current = allocation[app]
            base = utilities[app][current]
            for block in range(1, remaining + 1):
                gain = utilities[app][current + block] - base
                rate = gain / block
                if rate > best_rate:
                    best_rate = rate
                    best_app = app
                    best_block = block
        if best_app < 0:  # pragma: no cover - defensive
            break
        allocation[best_app] += best_block
        remaining -= best_block
    return allocation
