"""The fleet-level chaos plane: seeded node faults per round.

Three failure modes, all drawn deterministically per ``(round, node)``
via :func:`~repro.telemetry.spec.fault_u01` so the fault schedule is
independent of placement decisions and process boundaries:

* **kill** — the node crashes at the start of the round: its tenants
  are evacuated back to the queue and the node stays down for
  :data:`~repro.cloud.spec.RESTART_ROUNDS` rounds before restarting.
* **straggler** — the node runs but reports late: its telemetry is
  stale by the time the scheduler reads it, so the node's estimate
  confidence is capped below the policy floor for the round.
* **degrade** — the node's telemetry path corrupts counter reads: the
  node's cell runs under a :class:`~repro.telemetry.spec.TelemetrySpec`
  (the PR 4 injectors), feeding the scheduler degraded estimates with
  honestly reduced confidence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.cloud.spec import FleetChaosSpec
from repro.telemetry.spec import TelemetrySpec, fault_u01

#: Confidence ceiling a straggler's stale telemetry can earn.
STRAGGLER_CONFIDENCE_CAP = 0.5


@dataclass(frozen=True)
class NodeEvents:
    """Chaos outcome for one (round, node): what goes wrong this round."""

    kill: bool
    straggler: bool
    telemetry: Optional[TelemetrySpec]


class FleetChaos:
    """Deterministic per-(round, node) fault drawer for one fleet."""

    def __init__(self, spec: FleetChaosSpec) -> None:
        self.spec = spec

    def events(self, round_index: int, node_id: int) -> NodeEvents:
        """The fault draw for ``node_id`` in ``round_index``.

        A killed node draws nothing else: it is down, not degraded.
        """
        spec = self.spec
        kill = (
            spec.node_kill_rate > 0.0
            and fault_u01(spec.seed, "fleet-kill", round_index, node_id)
            < spec.node_kill_rate
        )
        if kill:
            return NodeEvents(kill=True, straggler=False, telemetry=None)
        straggler = (
            spec.straggler_rate > 0.0
            and fault_u01(spec.seed, "fleet-straggler", round_index, node_id)
            < spec.straggler_rate
        )
        telemetry: Optional[TelemetrySpec] = None
        if (
            spec.telemetry_rate > 0.0
            and fault_u01(spec.seed, "fleet-telemetry", round_index, node_id)
            < spec.telemetry_rate
        ):
            telemetry = TelemetrySpec(
                fault_class=spec.telemetry_class,
                rate=spec.telemetry_fault_rate,
                seed=int(
                    fault_u01(
                        spec.seed, "fleet-telemetry-seed",
                        round_index, node_id,
                    )
                    * (1 << 31)
                ),
            )
        return NodeEvents(kill=False, straggler=straggler, telemetry=telemetry)


__all__ = ["FleetChaos", "NodeEvents", "STRAGGLER_CONFIDENCE_CAP"]
