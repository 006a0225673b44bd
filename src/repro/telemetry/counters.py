"""Counter bank: the guarded read path between simulator and models.

A model allocates one :class:`CounterBank` when it attaches (salted by its
name, so every model owns an independent hardware counter block) and
routes *all* of its telemetry through it:

* event counters it increments itself become :class:`CounterVec` entries
  (``vec.add(core)`` on the write path, ``vec.read(core)`` at the quantum
  boundary);
* counters owned by the simulator (memory-controller queueing cycles,
  per-request interference cycles, busy-cycle trackers) are registered in
  ``attach()`` as :class:`ExternalSample` readers and sampled through the
  bank — ``tests/test_source_rules.py``'s TEL001 test forbids models
  from touching those raw counters anywhere else.

With no :class:`~repro.telemetry.spec.TelemetrySpec` the write path is a
plain list increment and ``read`` returns the true value: a fault-free
run is bit-identical to one without the bank. With a spec, reads pass
through the configured fault class; detectable faults (saturated
patterns, failed or stale read transactions, epoch-register parity
errors) are recorded per core and collected by the model's estimate
guard via :meth:`CounterBank.collect_flags`.

Write-path faults are applied at read time: for monotone counters,
capping each increment (saturation) or reducing it modulo ``2**bits``
(wraparound) commutes with doing so once on the accumulated total, so
the hot increment path stays untouched. Simulator-side oracles (the
resilience invariant checker) index a vec directly (``vec[core]``) and
always see the true value.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional, Union

from repro.telemetry.spec import TelemetrySpec, fault_u01

Number = Union[int, float]

#: Largest upward perturbation an ATS set-sample corruption applies.
_CORRUPTION_SPAN = 64

#: Flag strings surfaced to the estimate guards (hard violations).
FLAG_SATURATED = "saturated-read"
FLAG_DROPPED = "dropped-read"
FLAG_DELAYED = "delayed-read"
FLAG_EPOCH_GLITCH = "epoch-ownership-glitch"


class _GuardedCounter:
    """The guarded read path shared by :class:`CounterVec` and
    :class:`ExternalSample`: one per-core counter's width fault, read
    index, read fault and stale value."""

    __slots__ = ("name", "kind", "_bank", "_narrow", "_stale", "_reads")

    def __init__(self, bank: "CounterBank", name: str, kind: str) -> None:
        self.name = name
        self.kind = kind
        self._bank = bank
        n = bank.num_cores
        self._narrow = bank.narrow_cores(name)
        # Last width-faulted value each core's telemetry path sampled
        # (what a delayed read replays) and a per-core read index so every
        # read site draws an independent fault coin.
        self._stale: List[Number] = [0] * n
        self._reads = [0] * n

    def _finish(self, core: int, value: Number) -> Number:
        bank = self._bank
        if bank.spec is None:
            return value
        if self._narrow is not None and self._narrow[core]:
            value = bank.apply_width_fault(value, core, self.name)
        index = self._reads[core]
        self._reads[core] = index + 1
        out = bank.apply_read_fault(
            value, core, self.name, self.kind, self._stale[core], index
        )
        self._stale[core] = value
        return out


class CounterVec(_GuardedCounter):
    """One per-core hardware counter the model increments itself."""

    __slots__ = ("values",)

    def __init__(self, bank: "CounterBank", name: str, kind: str) -> None:
        super().__init__(bank, name, kind)
        self.values: List[int] = [0] * bank.num_cores

    # -- write path (hot) ----------------------------------------------
    def add(self, core: int, amount: int = 1) -> None:
        self.values[core] += amount

    # -- oracle view (simulator-side invariant checkers, white-box tests)
    def __getitem__(self, core: int) -> int:
        return self.values[core]

    def __setitem__(self, core: int, value: int) -> None:
        self.values[core] = value

    def __iter__(self) -> Iterator[int]:
        return iter(self.values)

    def __len__(self) -> int:
        return len(self.values)

    # -- guarded read path ---------------------------------------------
    def read(self, core: int) -> Number:
        return self._finish(core, self.values[core])

    def reset(self) -> None:
        """Zero the counters in place (aliased ``values`` lists stay live)."""
        values = self.values
        for core in range(len(values)):
            values[core] = 0


class ExternalSample(_GuardedCounter):
    """A simulator-owned counter sampled through the bank.

    ``reader(core)`` fetches the raw value; models register the reader in
    ``attach()`` and afterwards only call :meth:`read` (reset-per-quantum
    counters) or :meth:`rebase`/:meth:`delta` (cumulative counters like
    the controller's queueing cycles)."""

    __slots__ = ("_reader", "_base")

    def __init__(
        self,
        bank: "CounterBank",
        name: str,
        reader: Callable[[int], Number],
    ) -> None:
        super().__init__(bank, name, "counter")
        self._reader = reader
        self._base: List[Number] = [0] * bank.num_cores

    def rebase(self) -> None:
        """Snapshot the raw values as the new delta baseline.

        The snapshot is firmware bookkeeping, not a telemetry read: faults
        apply to the quantum-boundary ``delta`` sample, not the baseline."""
        for core in range(self._bank.num_cores):
            self._base[core] = self._reader(core)

    def read(self, core: int) -> Number:
        return self._finish(core, self._reader(core))

    def delta(self, core: int) -> Number:
        return self._finish(core, self._reader(core) - self._base[core])


class CounterBank:
    """All of one model's telemetry counters plus its fault injector."""

    def __init__(
        self,
        num_cores: int,
        spec: Optional[TelemetrySpec] = None,
        salt: str = "",
    ) -> None:
        self.num_cores = num_cores
        # A zero-rate spec is an injector that never fires; keep it (the
        # read path must then return true values bit-for-bit).
        self.spec = spec
        self.salt = salt
        self.vecs: Dict[str, CounterVec] = {}
        self.externals: Dict[str, ExternalSample] = {}
        self._flags: List[List[str]] = [[] for _ in range(num_cores)]
        self._epoch_index = 0

    # -- registration (models call these from attach()) ----------------
    def vec(self, name: str, kind: str = "counter") -> CounterVec:
        if name in self.vecs:
            raise ValueError(f"counter {name!r} already registered")
        vec = CounterVec(self, name, kind)
        self.vecs[name] = vec
        return vec

    def external(
        self, name: str, reader: Callable[[int], Number]
    ) -> ExternalSample:
        if name in self.externals:
            raise ValueError(f"external counter {name!r} already registered")
        sample = ExternalSample(self, name, reader)
        self.externals[name] = sample
        return sample

    # -- fault machinery ------------------------------------------------
    def narrow_cores(self, name: str) -> Optional[List[bool]]:
        """Which per-core instances of ``name`` are narrow N-bit counters.

        Only saturation/wraparound use narrow counters; selection is a
        deterministic per-(counter, core) draw at rate ``spec.rate``."""
        spec = self.spec
        if spec is None or spec.fault_class not in ("saturation", "wraparound"):
            return None
        return [
            fault_u01(spec.seed, self.salt, name, core, "narrow") < spec.rate
            for core in range(self.num_cores)
        ]

    def apply_width_fault(self, value: Number, core: int, name: str) -> Number:
        spec = self.spec
        assert spec is not None
        limit = 1 << spec.counter_bits
        if spec.fault_class == "saturation":
            if value >= limit - 1:
                # The all-ones pattern is recognisably saturated.
                self.flag(core, FLAG_SATURATED)
                return limit - 1
            return value
        # Wraparound overflows silently.
        return value % limit

    def apply_read_fault(
        self,
        value: Number,
        core: int,
        name: str,
        kind: str,
        stale: Number,
        index: int,
    ) -> Number:
        spec = self.spec
        assert spec is not None
        fc = spec.fault_class
        if fc == "dropped_read":
            if fault_u01(spec.seed, self.salt, name, core, "read", index) < spec.rate:
                self.flag(core, FLAG_DROPPED)
                return 0
        elif fc == "delayed_read":
            if fault_u01(spec.seed, self.salt, name, core, "read", index) < spec.rate:
                self.flag(core, FLAG_DELAYED)
                return stale
        elif fc == "ats_corruption" and kind == "ats":
            if fault_u01(spec.seed, self.salt, name, core, "read", index) < spec.rate:
                # Silent: a corrupted set sample just reads wrong. Only the
                # hits <= accesses invariant can expose it.
                magnitude = fault_u01(spec.seed, self.salt, name, core, "mag", index)
                return value + 1 + int(magnitude * (_CORRUPTION_SPAN - 1))
        return value

    def attribute_epoch(self, owner: int) -> int:
        """Epoch-ownership glitch: possibly misattribute this epoch.

        The controller still prioritises the true owner (the glitch is in
        the *telemetry* ownership register, not the scheduler), so the
        model meanwhile measures the wrong application's 'alone-like'
        behaviour. The register's parity check detects that a glitch
        happened — both involved cores are flagged — but the epoch
        counters for this quantum are already polluted."""
        spec = self.spec
        if (
            spec is None
            or spec.fault_class != "epoch_glitch"
            or self.num_cores < 2
        ):
            return owner
        index = self._epoch_index
        self._epoch_index = index + 1
        if fault_u01(spec.seed, self.salt, "epoch", index) < spec.rate:
            shift = 1 + int(
                fault_u01(spec.seed, self.salt, "epoch-victim", index)
                * (self.num_cores - 1)
            )
            attributed = (owner + shift) % self.num_cores
            self.flag(owner, FLAG_EPOCH_GLITCH)
            self.flag(attributed, FLAG_EPOCH_GLITCH)
            return attributed
        return owner

    # -- flags -----------------------------------------------------------
    def flag(self, core: int, reason: str) -> None:
        flags = self._flags[core]
        if reason not in flags:
            flags.append(reason)

    def collect_flags(self, core: int) -> List[str]:
        """Pop and return the detected-fault flags for ``core``."""
        flags = self._flags[core]
        self._flags[core] = []
        return flags

    # -- lifecycle -------------------------------------------------------
    def reset(self) -> None:
        """Zero every registered vec (quantum boundary)."""
        for vec in self.vecs.values():
            vec.reset()


__all__ = [
    "CounterBank",
    "CounterVec",
    "ExternalSample",
    "FLAG_DELAYED",
    "FLAG_DROPPED",
    "FLAG_EPOCH_GLITCH",
    "FLAG_SATURATED",
]
