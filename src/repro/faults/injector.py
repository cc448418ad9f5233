"""The fault injector: replays a scenario's fault plans at virtual times.

Design constraints, in priority order:

1. **Observationally free when unused.**  A session with no plans spawns
   nothing and registers nothing — the process id sequence, the resource
   state and every virtual timestamp of a fault-free run are bit-identical
   to a build without this module.  (The differential test in
   ``tests/test_faults.py`` pins this against the golden fingerprints.)
2. **Deterministic when used.**  The injector is one ordinary simulated
   process (``"fault:injector"``) that sleeps to each plan's virtual time
   and applies it under the engine's one-runnable-process invariant, so an
   injection is totally ordered against all application events — there is
   no "racing with the failure detector" nondeterminism to hide.
3. **Mechanism here, policy in the runtimes.**  The injector mutates
   cluster-level truth (``failed_nodes``, datanode liveness, bandwidth
   capacities) and notifies ``cluster.fault_listeners``; what a framework
   *does* about it — recompute lineage, re-execute tasks, abort — lives in
   that framework's runtime, next to its normal scheduling logic.
"""

from __future__ import annotations

from typing import Iterable

from repro.cluster.cluster import Cluster
from repro.errors import ConfigurationError
from repro.faults.plan import FaultPlan
from repro.sim.engine import current_process
from repro.sim.process import SimProcess


class FaultInjector:
    """Arms a set of :class:`FaultPlan` objects on one cluster.

    Construction spawns the injector daemon (when ``plans`` is non-empty),
    so build the injector *before* ``cluster.run()`` — sessions do this
    automatically when :class:`~repro.platform.ScenarioSpec` lists faults.

    Attributes
    ----------
    injected:
        ``(virtual_time, plan)`` pairs, appended as plans are applied —
        experiments read this back to report what actually fired.
    """

    def __init__(self, cluster: Cluster, plans: Iterable[FaultPlan]) -> None:
        self.cluster = cluster
        events: list[tuple[float, int, FaultPlan]] = []
        for plan in plans:
            if not isinstance(plan, FaultPlan):
                raise ConfigurationError(
                    f"faults must be FaultPlan instances, got {plan!r}")
            # a bad target fails the session here, not the run at plan.at
            if plan.kind in ("node_crash", "disk_stall"):
                self._node_id(plan)
            elif plan.kind == "net_degrade":
                cluster.spec.fabric(str(plan.target))
            events.append((plan.at, 0, plan))
            if plan.duration is not None:
                events.append((plan.at + plan.duration, 1, plan))
        # stable total order: time, then apply-before-restore, then identity
        events.sort(key=lambda e: (e[0], e[1], e[2].kind, str(e[2].target)))
        self._events = events
        self.injected: list[tuple[float, FaultPlan]] = []
        if events:
            cluster.spawn(self._main, node_id=0, name="fault:injector")

    # -- the daemon --------------------------------------------------------------

    def _main(self) -> None:
        proc = current_process()
        for at, phase, plan in self._events:
            if at > proc.clock:
                proc.park_until(at, reason="fault:timer")
            if phase == 0:
                self._inject(proc, plan)
            else:
                self._restore(proc, plan)

    def _inject(self, proc: SimProcess, plan: FaultPlan) -> None:
        cluster = self.cluster
        t = proc.clock
        cluster.trace.record(t, proc.name, "fault.inject", fault=plan.kind,
                             target=str(plan.target))
        if plan.kind == "node_crash":
            self._crash_node(plan)
        elif plan.kind == "disk_stall":
            node = cluster.nodes[self._node_id(plan)]
            node.ssd.scale_bandwidth(t, 1.0 / plan.factor)
        elif plan.kind == "net_degrade":
            cluster.network.scale_fabric(t, str(plan.target),
                                         1.0 / plan.factor)
        # proc_kill is pure policy: only the owning runtime knows the
        # process; its listener acts on the plan below.
        self.injected.append((t, plan))
        for listener in list(cluster.fault_listeners):
            listener(plan, t)

    def _restore(self, proc: SimProcess, plan: FaultPlan) -> None:
        """End a ``duration``-limited degradation window."""
        cluster = self.cluster
        t = proc.clock
        if plan.kind == "disk_stall":
            node = cluster.nodes[self._node_id(plan)]
            node.ssd.scale_bandwidth(t, plan.factor)
        elif plan.kind == "net_degrade":
            cluster.network.scale_fabric(t, str(plan.target), plan.factor)
        cluster.trace.record(t, proc.name, "fault.recover", fault=plan.kind,
                             target=str(plan.target), action="restored")

    # -- effect helpers ----------------------------------------------------------

    def _node_id(self, plan: FaultPlan) -> int:
        try:
            nid = int(plan.target)
        except (TypeError, ValueError):
            raise ConfigurationError(
                f"{plan.kind} target must be a node id, "
                f"got {plan.target!r}") from None
        if not 0 <= nid < len(self.cluster.nodes):
            raise ConfigurationError(
                f"{plan.kind} target node {nid} out of range "
                f"0..{len(self.cluster.nodes) - 1}")
        return nid

    def _crash_node(self, plan: FaultPlan) -> None:
        """Cluster-level truth of a node failure.

        Marks the node dead (schedulers consult ``cluster.failed_nodes``)
        and kills its datanode on every filesystem that has one, so block
        reads fail over to surviving replicas — or raise
        ``BlockUnavailableError`` when no replica survives, the paper's
        replication=1 failure mode.
        """
        cluster = self.cluster
        nid = self._node_id(plan)
        if nid in cluster.failed_nodes:
            return
        cluster.failed_nodes.add(nid)
        for fs in cluster.filesystems.values():
            kill = getattr(fs, "kill_datanode", None)
            if kill is not None and nid not in fs.dead_datanodes:
                kill(nid)
