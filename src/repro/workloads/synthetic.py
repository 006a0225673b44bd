"""Synthetic shared-cache access-stream generator.

Each application is described by an :class:`AppSpec` whose parameters map
one-to-one onto the characteristics the paper's analysis depends on:

* ``apki`` — shared-cache accesses per kilo-instruction (memory intensity;
  the private L1 is already folded into the trace, see repro.cpu.trace);
* ``reuse_prob`` / ``reuse_depth`` — fraction of accesses that go to the
  application's *hot set*, and the geometric popularity depth of that hot
  set in distinct lines. An LRU cache of capacity C captures roughly the C
  most popular lines, so the hit rate grows smoothly (and concavely) with
  allocated capacity — this is what "cache sensitivity" means
  operationally, and it yields the utility curves UCP [56] exploits;
* ``seq_frac`` — fraction of *cold* accesses that stream sequentially
  (row-buffer locality) versus jumping randomly within the footprint;
* ``footprint_lines`` — total distinct lines the application touches;
* ``write_frac`` — store fraction of shared-cache accesses.

Hot-set lines are scattered across the footprint with a multiplicative
scramble so that cache-sensitive reuse does not masquerade as row-buffer
locality; sequential streaming is the sole source of row locality, as in
real streaming benchmarks.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass
from functools import partial
from math import log
from typing import Iterator, List, Tuple

from repro.cpu.trace import TraceRecord


@dataclass(frozen=True)
class AppSpec:
    """Parameter set describing one synthetic application."""

    name: str
    apki: float  # shared-cache accesses per kilo-instruction
    reuse_prob: float  # probability an access re-references a recent line
    reuse_depth: int  # mean LRU stack distance of re-references (lines)
    footprint_lines: int  # total distinct lines the app touches
    seq_frac: float  # sequential fraction among new-line accesses
    write_frac: float = 0.1
    suite: str = "synthetic"

    def __post_init__(self) -> None:
        if self.apki <= 0:
            raise ValueError("apki must be positive")
        if not 0.0 <= self.reuse_prob <= 1.0:
            raise ValueError("reuse_prob must be in [0, 1]")
        if not 0.0 <= self.seq_frac <= 1.0:
            raise ValueError("seq_frac must be in [0, 1]")
        if not 0.0 <= self.write_frac <= 1.0:
            raise ValueError("write_frac must be in [0, 1]")
        if self.reuse_depth < 1:
            raise ValueError("reuse_depth must be >= 1")
        if self.footprint_lines < 1:
            raise ValueError("footprint_lines must be >= 1")

    @property
    def mean_gap(self) -> float:
        """Mean non-access instructions between shared-cache accesses."""
        return max(0.0, 1000.0 / self.apki - 1.0)


# Large prime, coprime with any realistic footprint: spreads the popularity
# ranking across the address space bijectively (Knuth multiplicative hash).
_SCRAMBLE_PRIME = 2654435761

# Records each refill of __next__'s buffer draws.
_REFILL = 256

# Builds a TraceRecord from a (gap, line, is_write) tuple in C, without
# the named tuple's Python-level __new__.
_record = partial(tuple.__new__, TraceRecord)


class SyntheticTrace(Iterator[TraceRecord]):
    """Infinite deterministic access stream for one application.

    ``base_line`` offsets the address space so co-running applications never
    share lines (matching multiprogrammed — not multithreaded — workloads).
    """

    def __init__(self, spec: AppSpec, seed: int, base_line: int = 0) -> None:
        self.spec = spec
        self.base_line = base_line
        # zlib.crc32 keeps the stream deterministic across processes
        # (Python's str hash is salted per interpreter run).
        name_salt = zlib.crc32(spec.name.encode()) & 0xFFFF
        self._rng = random.Random((seed << 16) ^ name_salt)
        self._next_seq = 0  # sequential scan cursor within footprint
        # Exponential rates, as random.expovariate takes them; 0.0 marks
        # a zero mean gap, which draws nothing.
        mean_gap = spec.mean_gap
        self._gap_lambd = 1.0 / mean_gap if mean_gap > 0 else 0.0
        self._rank_lambd = 1.0 / spec.reuse_depth
        # Records drawn ahead for __next__, the next one last.
        self._pending: List[TraceRecord] = []

    def __iter__(self) -> "SyntheticTrace":
        return self

    def __next__(self) -> TraceRecord:
        pending = self._pending
        if not pending:
            gaps, lines, writes = self.take(_REFILL)
            pending.extend(map(_record, zip(gaps[::-1], lines[::-1], writes[::-1])))
        return pending.pop()

    def take(self, n: int) -> Tuple[List[int], List[int], List[bool]]:
        """The next ``n`` records as three columns: gaps, line addresses
        and store flags.

        Records ``next()`` has already drawn come first, so ``take`` and
        ``next`` interleave on one stream.
        """
        gaps = [0] * n
        lines = [0] * n
        writes = [False] * n
        pending = self._pending
        drawn = min(n, len(pending))
        for i in range(drawn):
            gaps[i], lines[i], writes[i] = pending.pop()

        # Draws inline random.expovariate's formula, -log(1 - U) / lambd,
        # and randrange's getrandbits rejection loop, so the stream
        # matches one drawn through the stdlib bit for bit. Keep the
        # division: multiplying by the mean rounds differently.
        uniform = self._rng.random
        getrandbits = self._rng.getrandbits
        spec = self.spec
        footprint = spec.footprint_lines
        bits = footprint.bit_length()
        reuse_prob = spec.reuse_prob
        seq_frac = spec.seq_frac
        write_frac = spec.write_frac
        gap_lambd = self._gap_lambd
        rank_lambd = self._rank_lambd
        base = self.base_line
        next_seq = self._next_seq
        for i in range(drawn, n):
            if gap_lambd:
                gaps[i] = int(-log(1.0 - uniform()) / gap_lambd)
            if uniform() < reuse_prob:
                # Hot-set access: geometric popularity rank, scrambled so
                # the hot set is scattered in the address space.
                rank = int(-log(1.0 - uniform()) / rank_lambd) % footprint
                lines[i] = base + (rank * _SCRAMBLE_PRIME) % footprint
            elif uniform() < seq_frac:
                lines[i] = base + next_seq
                next_seq = (next_seq + 1) % footprint
            else:
                line = getrandbits(bits)
                while line >= footprint:
                    line = getrandbits(bits)
                lines[i] = base + line
            writes[i] = uniform() < write_frac
        self._next_seq = next_seq
        return gaps, lines, writes
