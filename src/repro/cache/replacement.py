"""LRU replacement state for one cache set.

A set is an ordered list of entries with the LRU entry at index 0 and the
MRU entry at the end. The list never exceeds the associativity. Entries are
small mutable records so the shared cache can track per-line owner and dirty
state without a parallel structure. A tag is resident at most once (caches
insert a tag only after ``find`` missed), so a dict from tag to entry
answers lookups without walking the list.
"""

from __future__ import annotations

from typing import Dict, List, Optional


class Line:
    """One cache line: tag plus owner/dirty metadata."""

    __slots__ = ("tag", "owner", "dirty")

    def __init__(self, tag: int, owner: int = 0, dirty: bool = False) -> None:
        self.tag = tag
        self.owner = owner
        self.dirty = dirty

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Line(tag={self.tag:#x}, owner={self.owner}, dirty={self.dirty})"


class LruSet:
    """An LRU-ordered cache set of bounded associativity."""

    __slots__ = ("associativity", "lines", "by_tag")

    def __init__(self, associativity: int) -> None:
        self.associativity = associativity
        self.lines: List[Line] = []
        self.by_tag: Dict[int, Line] = {}

    def find(self, tag: int) -> Optional[Line]:
        """Return the line with ``tag`` without touching LRU order."""
        return self.by_tag.get(tag)

    def stack_position(self, tag: int) -> Optional[int]:
        """Return the MRU-stack distance of ``tag`` (0 = MRU).

        This is the quantity UMON-style monitors histogram: a hit at stack
        position ``p`` would still be a hit with any allocation of at least
        ``p + 1`` ways.
        """
        for i, line in enumerate(reversed(self.lines)):
            if line.tag == tag:
                return i
        return None

    def touch(self, line: Line) -> None:
        """Promote ``line`` to MRU."""
        self.lines.remove(line)
        self.lines.append(line)

    def insert(self, line: Line) -> Optional[Line]:
        """Insert ``line`` as MRU, evicting and returning the LRU victim
        if the set is full."""
        victim = None
        if len(self.lines) >= self.associativity:
            victim = self.lines.pop(0)
            del self.by_tag[victim.tag]
        self.lines.append(line)
        self.by_tag[line.tag] = line
        return victim

    def insert_with_quota(self, line: Line, quotas: List[int]) -> Optional[Line]:
        """Insert ``line`` respecting per-owner way quotas (UCP-style).

        If the set is full, the victim is the LRU line among owners whose
        current occupancy in this set exceeds their quota; if every owner is
        within quota (possible because quotas are enforced lazily), the
        victim is the LRU line of the inserting owner, falling back to the
        global LRU line.
        """
        if len(self.lines) < self.associativity:
            self.lines.append(line)
            self.by_tag[line.tag] = line
            return None

        counts = [0] * len(quotas)
        for resident in self.lines:
            counts[resident.owner] += 1

        victim = None
        for resident in self.lines:  # LRU first
            if counts[resident.owner] > quotas[resident.owner]:
                victim = resident
                break
        if victim is None:
            for resident in self.lines:
                if resident.owner == line.owner:
                    victim = resident
                    break
        if victim is None:
            victim = self.lines[0]
        self.lines.remove(victim)
        del self.by_tag[victim.tag]
        self.lines.append(line)
        self.by_tag[line.tag] = line
        return victim

    def occupancy(self) -> int:
        return len(self.lines)
