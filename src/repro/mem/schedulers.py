"""Memory-request scheduling policies.

* :class:`FrFcfsScheduler` — the paper's baseline [58, 74]: row hits first,
  then oldest first.
* :class:`ParbsScheduler` — Parallelism-Aware Batch Scheduling [47]: form
  batches of the oldest requests per (core, bank), rank cores within a batch
  shortest-job-first by maximum per-bank load, serve marked requests first.
* :class:`TcmScheduler` — Thread Cluster Memory scheduling [31]: cluster
  cores into a latency-sensitive cluster (low memory intensity, always
  prioritised) and a bandwidth-intensive cluster whose relative priorities
  are shuffled periodically to even out slowdowns.

Epoch-based prioritisation of one application (used by MISE/ASM/ASM-Mem) is
implemented in the controller as a filter *above* the scheduler, matching
the paper's description of highest-priority treatment at the controller.
"""

from __future__ import annotations

import random
from typing import Dict, List, Sequence

from repro.mem.dram import Channel
from repro.mem.request import MemRequest

# TCM's latency-sensitive cluster may issue at most this share of a
# clustering window's requests.
TCM_CLUSTER_THRESHOLD = 0.2


class Scheduler:
    """Interface: pick one request to issue among issuable candidates."""

    name = "base"

    def pick(
        self, candidates: Sequence[MemRequest], channel: Channel, now: int
    ) -> MemRequest:
        raise NotImplementedError

    def update(self, now: int, per_core_requests: Sequence[int]) -> None:
        """Periodic policy-state refresh; called by the controller with
        cumulative per-core read counts."""

    @staticmethod
    def _is_row_hit(request: MemRequest, channel: Channel) -> bool:
        return channel.banks[request.bank].open_row == request.row


class FrFcfsScheduler(Scheduler):
    """First-Ready FCFS: row hits over older requests."""

    name = "frfcfs"

    def pick(self, candidates, channel, now):
        """``max`` by (row hit, earlier arrival), first wins ties, in one
        pass without a key function."""
        banks = channel.banks
        best = candidates[0]
        best_hit = banks[best.bank].open_row == best.row
        for request in candidates:
            if banks[request.bank].open_row == request.row:
                if not best_hit:
                    best, best_hit = request, True
                elif request.arrival_time < best.arrival_time:
                    best = request
            elif not best_hit and request.arrival_time < best.arrival_time:
                best = request
        return best


class ParbsScheduler(Scheduler):
    """Parallelism-Aware Batch Scheduling.

    When no marked requests remain, a new batch is formed by marking up to
    ``marking_cap`` oldest requests per (core, bank) across the queues the
    controller exposes through :meth:`register_queues`. Cores are ranked by
    the max-total rule: fewest requests in their busiest bank first (ties by
    total), so "shorter jobs" finish their batch quickly, preserving
    bank-level parallelism.
    """

    name = "parbs"

    def __init__(self, marking_cap: int = 5) -> None:
        self.marking_cap = marking_cap
        self._queues: List[List[MemRequest]] = []
        self._rank: Dict[int, int] = {}

    def register_queues(self, queues: List[List[MemRequest]]) -> None:
        """The controller hands over live references to its read queues."""
        self._queues = queues

    def _marked_remaining(self) -> bool:
        return any(r.marked for q in self._queues for r in q)

    def _form_batch(self) -> None:
        per_core_bank: Dict[tuple, int] = {}
        batch: List[MemRequest] = []
        for queue in self._queues:
            for request in sorted(queue, key=lambda r: r.arrival_time):
                key = (request.core, request.channel, request.bank)
                count = per_core_bank.get(key, 0)
                if count < self.marking_cap:
                    request.marked = True
                    per_core_bank[key] = count + 1
                    batch.append(request)
        # Rank cores: max per-bank load, then total load, fewest first.
        max_load: Dict[int, int] = {}
        total_load: Dict[int, int] = {}
        for (core, _ch, _bank), count in per_core_bank.items():
            max_load[core] = max(max_load.get(core, 0), count)
        for request in batch:
            total_load[request.core] = total_load.get(request.core, 0) + 1
        order = sorted(
            max_load, key=lambda c: (max_load[c], total_load.get(c, 0))
        )
        self._rank = {core: i for i, core in enumerate(order)}

    def pick(self, candidates, channel, now):
        if not self._marked_remaining():
            self._form_batch()
        worst_rank = len(self._rank)
        return max(
            candidates,
            key=lambda r: (
                r.marked,
                -self._rank.get(r.core, worst_rank),
                self._is_row_hit(r, channel),
                -r.arrival_time,
            ),
        )


class BlissScheduler(Scheduler):
    """The Blacklisting memory scheduler (BLISS) [65].

    Observes the stream of scheduled requests: an application that gets
    ``blacklist_threshold`` requests served consecutively is blacklisted
    for ``clearing_interval`` cycles. Non-blacklisted applications'
    requests are prioritised over blacklisted ones; within a class,
    row hits first, then oldest first. A deliberately simple scheme that
    approaches application-aware schedulers' fairness at far lower cost.
    """

    name = "bliss"

    def __init__(
        self,
        num_cores: int,
        blacklist_threshold: int = 4,
        clearing_interval: int = 10_000,
    ) -> None:
        self.num_cores = num_cores
        self.blacklist_threshold = blacklist_threshold
        self.clearing_interval = clearing_interval
        self._blacklisted = [False] * num_cores
        self._last_core = -1
        self._streak = 0
        self._last_clear = 0

    def update(self, now: int, per_core_requests: Sequence[int]) -> None:
        if now - self._last_clear >= self.clearing_interval:
            self._last_clear = now
            self._blacklisted = [False] * self.num_cores

    def pick(self, candidates, channel, now):
        choice = max(
            candidates,
            key=lambda r: (
                not self._blacklisted[r.core],
                self._is_row_hit(r, channel),
                -r.arrival_time,
            ),
        )
        if choice.core == self._last_core:
            self._streak += 1
            if self._streak >= self.blacklist_threshold:
                self._blacklisted[choice.core] = True
        else:
            self._last_core = choice.core
            self._streak = 1
        return choice


class TcmScheduler(Scheduler):
    """Thread Cluster Memory scheduling.

    Cores are re-clustered every ``cluster_period`` cycles: cores are sorted
    by memory intensity (requests issued in the elapsed window) and the
    least intensive cores whose combined traffic stays below
    :data:`TCM_CLUSTER_THRESHOLD` of the total form the latency-sensitive
    cluster.
    Ranks within the bandwidth cluster are shuffled every
    ``shuffle_period`` cycles.
    """

    name = "tcm"

    def __init__(
        self,
        num_cores: int,
        cluster_period: int = 1_000_000,
        shuffle_period: int = 10_000,
        seed: int = 1,
    ) -> None:
        self.num_cores = num_cores
        self.cluster_period = cluster_period
        self.shuffle_period = shuffle_period
        self._rng = random.Random(seed)
        self._latency_cluster = set(range(num_cores))
        self._bw_rank: Dict[int, int] = {c: c for c in range(num_cores)}
        self._last_cluster_time = 0
        self._last_shuffle_time = 0
        self._last_counts = [0] * num_cores

    def update(self, now: int, per_core_requests: Sequence[int]) -> None:
        if now - self._last_cluster_time >= self.cluster_period:
            window = [
                per_core_requests[c] - self._last_counts[c]
                for c in range(self.num_cores)
            ]
            self._last_counts = list(per_core_requests)
            self._last_cluster_time = now
            total = sum(window)
            self._latency_cluster = set()
            if total:
                budget = TCM_CLUSTER_THRESHOLD * total
                used = 0.0
                for core in sorted(range(self.num_cores), key=lambda c: window[c]):
                    if used + window[core] <= budget:
                        self._latency_cluster.add(core)
                        used += window[core]
            else:
                self._latency_cluster = set(range(self.num_cores))
        if now - self._last_shuffle_time >= self.shuffle_period:
            self._last_shuffle_time = now
            order = list(range(self.num_cores))
            self._rng.shuffle(order)
            self._bw_rank = {core: i for i, core in enumerate(order)}

    def pick(self, candidates, channel, now):
        return max(
            candidates,
            key=lambda r: (
                r.core in self._latency_cluster,
                -self._bw_rank.get(r.core, 0),
                self._is_row_hit(r, channel),
                -r.arrival_time,
            ),
        )
