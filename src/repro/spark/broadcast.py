"""Broadcast variables — one of the two executor-visible shared constructs
the paper notes Spark offers (Section VI-B: "there is no chance of
intercommunication of executors at run time, except for simple constructs
such as Accumulators and Broadcast variables")."""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.sim.engine import current_process
from repro.spark.shuffle import estimate_nbytes

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.spark.context import SparkContext


class Broadcast:
    """A read-only value shipped once to every executor node.

    Created on the driver (inside the application function); the creation
    charges serialisation plus one transfer per distinct executor node —
    a simplification of Spark's torrent broadcast that preserves the
    "pay once, not per task" property that distinguishes broadcasts from
    closure capture.
    """

    def __init__(self, sc: "SparkContext", value: Any) -> None:
        self.id = sc._next_broadcast_id()
        self._value = value
        env = sc.env
        proc = current_process()
        nbytes = max(64, estimate_nbytes([value]))
        self.nbytes = nbytes
        proc.compute_bytes(nbytes, sc.costs.ser_rate_jvm)
        for node_id in sorted({ex.node.id for ex in env.executors
                               if not ex.dead}):
            if node_id != env.driver_node.id:
                env.cluster.network.transmit(
                    proc, env.control_fabric, env.driver_node.id, node_id,
                    nbytes, label=f"broadcast{self.id}")

    @property
    def value(self) -> Any:
        """The broadcast value (shared read-only reference)."""
        return self._value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Broadcast {self.id} nbytes={self.nbytes}>"
