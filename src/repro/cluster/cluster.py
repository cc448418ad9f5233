"""The simulated cluster: engine + nodes + network + shared storage.

A :class:`Cluster` is the root object of every experiment: build one from a
:class:`~repro.cluster.machines.MachineSpec`, launch runtimes against it,
then read virtual timings off the engine.

Example
-------
>>> from repro.cluster import Cluster, get_machine
>>> cl = Cluster(get_machine("comet").with_nodes(2))
>>> def hello():
...     from repro.sim import current_process
...     current_process().compute(1.0)
>>> _ = cl.spawn(hello, node_id=0, name="hello")
>>> cl.run()
1.0
"""

from __future__ import annotations

from typing import Any, Callable

from repro.cluster.machines import MachineSpec
from repro.cluster.network import Network
from repro.cluster.node import Node
from repro.cluster.storage import StorageDevice
from repro.errors import ConfigurationError, FaultAbortError
from repro.sim.engine import Engine
from repro.sim.process import SimProcess
from repro.sim.resources import FlowSystem
from repro.sim.trace import Trace


class Cluster:
    """Simulated hardware instance over one virtual-time engine.

    Parameters
    ----------
    machine:
        The :class:`~repro.cluster.machines.MachineSpec` to instantiate:
        hardware (``machine.cluster``: node count, node spec, fabrics,
        NFS), software costs and fabric routing.  Every runtime launched
        against the cluster reads its fabric and cost constants from
        ``cluster.machine`` — the one place hardware is selected.
    trace:
        Pass a :class:`~repro.sim.Trace` with ``enabled=True`` to record
        structured events (tests do; benchmarks don't, for speed).
    """

    def __init__(self, machine: MachineSpec, *,
                 trace: Trace | None = None) -> None:
        if not isinstance(machine, MachineSpec):
            raise ConfigurationError(
                f"Cluster takes a MachineSpec, got "
                f"{type(machine).__name__}; wrap hardware as "
                f"MachineSpec(name, description, cluster=spec)")
        self.machine = machine
        self.spec = spec = machine.cluster
        self.trace = trace if trace is not None else Trace(enabled=False)
        self.engine = Engine(trace=self.trace)
        self.flows = FlowSystem()
        self.nodes = [Node(i, spec.node, self.flows, self.trace)
                      for i in range(spec.num_nodes)]
        self.network = Network(spec, self.flows, self.trace)
        self.nfs_device = StorageDevice(
            "nfs",
            self.flows,
            read_bw=spec.nfs_bandwidth,
            write_bw=spec.nfs_bandwidth / 2,
            latency=spec.nfs_latency,
            trace=self.trace,
        )
        #: filesystems mounted on this cluster, keyed by scheme
        #: (populated by :mod:`repro.fs`)
        self.filesystems: dict[str, Any] = {}
        #: Spark runtime environments launched against this cluster, in
        #: launch order (populated by :class:`repro.spark.context.SparkEnv`;
        #: the profiler reads shuffle phase stats off their trackers)
        self.spark_envs: list[Any] = []
        #: ids of nodes killed by fault injection (:mod:`repro.faults`);
        #: schedulers consult this before placing work.  Empty in every
        #: fault-free run.
        self.failed_nodes: set[int] = set()
        #: ``listener(plan, t)`` callbacks invoked, in registration order,
        #: when the fault injector applies a plan at virtual time ``t``.
        #: Runtimes register here to implement their recovery (or abort)
        #: policy; a listener raising aborts the whole run.
        self.fault_listeners: list[Callable[[Any, float], None]] = []

    # -- process placement -----------------------------------------------------

    def node_of(self, proc: SimProcess) -> Node:
        """The node a simulated process is pinned to."""
        if not isinstance(proc.node, Node):
            raise ConfigurationError(
                f"process {proc.name!r} is not pinned to a cluster node"
            )
        return proc.node

    def spawn(
        self,
        fn: Callable[..., Any],
        *args: Any,
        node_id: int,
        name: str | None = None,
        **kwargs: Any,
    ) -> SimProcess:
        """Spawn a simulated process pinned to ``node_id``."""
        if not 0 <= node_id < len(self.nodes):
            raise ConfigurationError(
                f"node_id {node_id} out of range 0..{len(self.nodes) - 1}"
            )
        return self.engine.spawn(
            fn, *args, name=name, node=self.nodes[node_id], **kwargs
        )

    def spawn_spmd(self, main: Callable[[int], Any], placement: list[int],
                   *, runtime: str, name: str) -> list[SimProcess]:
        """Launch an HPC job: ``main(i)`` as process ``f"{name}{i}"`` on
        node ``placement[i]``, in index order; returns the processes.

        Also arms the job's fault policy.  MPI, OpenMP and OpenSHMEM have
        no recovery story: when a node or process under the job dies, the
        launcher kills everything (``mpirun``'s behaviour, paper Section
        VI-D).  So a ``node_crash`` on a job node, or a ``proc_kill``
        naming a process with the job's ``"tag:"`` prefix, raises
        :class:`~repro.errors.FaultAbortError`, which the engine surfaces
        unwrapped.  Degradations (``disk_stall``/``net_degrade``) merely
        slow the job.  A fault at ``t`` after every job process has ended
        by its own clock finds no job to abort.
        """
        fatal_nodes = frozenset(placement)
        prefix = "".join(name.partition(":")[:2])  # "mpi:rank" -> "mpi:"

        def abort(plan: Any, t: float) -> None:
            # not "any alive": a rank whose clock is past t may already
            # be DONE on the host, yet was running at t
            if all(not p.alive and p.clock <= t for p in procs):
                return
            if plan.kind == "node_crash" and int(plan.target) in fatal_nodes:
                raise FaultAbortError(
                    f"{runtime} job aborted at t={t:.3f}s (virtual): node "
                    f"{plan.target} crashed under the job; {runtime} has no "
                    "fault tolerance — the launcher kills every process "
                    "when one dies (paper Section VI-D)")
            if plan.kind == "proc_kill" and str(plan.target).startswith(prefix):
                raise FaultAbortError(
                    f"{runtime} job aborted at t={t:.3f}s (virtual): "
                    f"process {str(plan.target)!r} was killed; {runtime} "
                    "has no fault tolerance (paper Section VI-D)")

        self.fault_listeners.append(abort)
        procs = [self.spawn(main, i, node_id=node, name=f"{name}{i}")
                 for i, node in enumerate(placement)]
        return procs

    def placement(self, nprocs: int, procs_per_node: int) -> list[int]:
        """Block placement: node id for each of ``nprocs`` ranks.

        Matches typical MPI block mapping: rank r runs on node
        ``r // procs_per_node``.  Raises if the cluster is too small.
        """
        if procs_per_node < 1:
            raise ConfigurationError("procs_per_node must be >= 1")
        need = -(-nprocs // procs_per_node)  # ceil
        if need > len(self.nodes):
            raise ConfigurationError(
                f"{nprocs} processes at {procs_per_node}/node need {need} nodes; "
                f"cluster has {len(self.nodes)}"
            )
        return [r // procs_per_node for r in range(nprocs)]

    # -- running ----------------------------------------------------------------

    def run(self) -> float:
        """Run the engine to completion; returns the makespan (seconds)."""
        return self.engine.run()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Cluster {self.spec.name} nodes={len(self.nodes)}>"
