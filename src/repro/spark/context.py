"""SparkContext: driver + executor processes over the simulated cluster.

The runtime model matches the paper's deployment: one driver process, one
single-core executor process per "core" (8 executors/node reproduces the
paper's "8 processes per node"), all long-running for the duration of the
application.  The driver parses and manages the RDD code and ships task
closures to executors (Section VI-B: "Spark code is parsed and managed by
the Spark driver program and code segments are then submitted to the
cluster machines for execution").

An executor is all steps (``SimProcess.run_steps``): its body is a
generator function, so it runs without an OS thread, at its turns on
whichever thread holds the token.  Everything a task waits on — the task
message, split reads, cache and checkpoint I/O, the shuffle write and
fetch, the result reply — is a step form composed with ``yield from``;
user closures are plain calls, because a closure never waits.  The
driver is the one Spark process with a thread: it runs the application
function, which may call anything.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable

from repro.cluster.cluster import Cluster
from repro.cluster.node import Node
from repro.costs import SoftwareCosts
from repro.errors import ConfigurationError, SparkError
from repro.sim.engine import current_process
from repro.sim.process import SimProcess, Steps
from repro.sim.sync import Mailbox
from repro.spark import scheduler as sched
from repro.spark.accumulator import Accumulator
from repro.spark.broadcast import Broadcast
from repro.spark.rdd import ParallelizeRDD, RDD, TextFileRDD
from repro.spark.shuffle import MapOutputTracker, estimate_nbytes
from repro.spark.storage import BlockManager
from repro.units import GiB

#: fraction of executor heap available for cached blocks (Spark 1.5's
#: storage fraction of the unified region)
STORAGE_FRACTION = 0.6

#: default virtual seconds charged for driver + executor container spin-up;
#: ``SparkJobResult.app_elapsed`` starts *after* this, so an absolute engine
#: time inside the app is ``DEFAULT_APP_STARTUP + fraction * app_elapsed``
#: (fault plans are scheduled in absolute engine time)
DEFAULT_APP_STARTUP = 4.0


class Executor:
    """One single-core executor (JVM) pinned to a node."""

    def __init__(self, executor_id: int, node: Node, memory: int,
                 costs: SoftwareCosts) -> None:
        self.executor_id = executor_id
        self.node = node
        self.mailbox = Mailbox(f"spark:executor{executor_id}")
        self.block_manager = BlockManager(
            executor_id, node, int(memory * STORAGE_FRACTION), costs)
        self.dead = False


class SparkEnv:
    """Shared runtime state of one Spark application."""

    def __init__(self, cluster: Cluster, shuffle_transport: str,
                 driver_node: Node, record_scale: int = 1) -> None:
        machine = cluster.machine
        self.cluster = cluster
        self.costs = machine.costs
        #: logical records per physical record (the Spark twin of the
        #: filesystem ``scale``): multiplies per-record CPU charges, shuffle
        #: byte estimates and cache block sizes so a scaled-down dataset is
        #: *timed* as the paper-sized one.  Data values are untouched.
        self.record_scale = record_scale
        self.shuffle_transport = shuffle_transport
        #: fabric the shuffle transport rides; raises ConfigurationError
        #: (listing this machine's transports) for an unsupported one
        self.shuffle_fabric = machine.shuffle_fabric(shuffle_transport)
        self.control_fabric = machine.bigdata_fabric
        self.driver_node = driver_node
        self.driver_mailbox = Mailbox("spark:driver")
        self.tracker = MapOutputTracker()
        self.executors: list[Executor] = []
        self.cache_locations: dict[tuple, set[int]] = {}
        #: (rdd_id, partition) -> (records, nbytes): RDD.checkpoint storage,
        #: reliable by construction (survives any executor loss)
        self.checkpoint_store: dict[tuple, tuple[list, int]] = {}
        self.accumulators: dict[int, Accumulator] = {}
        #: TaskContext of the task currently running on each process
        self.active_ctx: dict[int, Any] = {}
        self._epoch = itertools.count()

    def next_epoch(self) -> int:
        return next(self._epoch)


@dataclass
class SparkJobResult:
    """Outcome of one Spark application run."""

    #: the application function's return value
    value: Any
    #: virtual duration of the whole application (incl. startup), seconds
    elapsed: float
    #: virtual duration of the application code only (excl. startup)
    app_elapsed: float


class SparkContext:
    """User entry point: configure once, then :meth:`run` an application.

    Parameters
    ----------
    cluster:
        The simulated hardware.
    executors_per_node:
        Single-core executors per node ("8 processes per node" in the
        paper's runs).
    executor_nodes:
        Optional subset of node ids to place executors on (the paper's
        Section V-B2 locality experiment restricts executors to fewer nodes
        than HDFS datanodes).
    executor_memory:
        Heap per executor; defaults to an even share of 80 % of node memory.
    shuffle_transport:
        ``"socket"`` (default Spark over IPoIB) or ``"rdma"`` (the shuffle
        plugin of Lu et al. — shuffle payloads only).  The transports a
        machine supports — and the fabric each rides — come from
        ``cluster.machine.shuffle_fabrics``.
    app_startup:
        Virtual seconds charged for spinning up driver + executors
        (YARN/standalone container launch); subtract via
        ``SparkJobResult.app_elapsed`` when measuring steady-state jobs.
    """

    def __init__(
        self,
        cluster: Cluster,
        *,
        executors_per_node: int = 8,
        executor_nodes: list[int] | None = None,
        executor_memory: int | None = None,
        shuffle_transport: str = "socket",
        driver_node: int = 0,
        default_parallelism: int | None = None,
        app_startup: float = DEFAULT_APP_STARTUP,
        record_scale: int = 1,
    ) -> None:
        self.cluster = cluster
        self.costs = cluster.machine.costs
        nodes = executor_nodes if executor_nodes is not None else list(
            range(len(cluster.nodes)))
        for n in nodes:
            if not 0 <= n < len(cluster.nodes):
                raise ConfigurationError(f"executor node {n} out of range")
        if executors_per_node < 1:
            raise ConfigurationError("executors_per_node must be >= 1")
        self._executor_placement = [
            cluster.nodes[n] for n in nodes for _ in range(executors_per_node)
        ]
        if executor_memory is None:
            executor_memory = int(
                0.8 * cluster.spec.node.mem_bytes / executors_per_node)
        if executor_memory < 1 * 2**20:
            raise ConfigurationError("executor_memory must be >= 1 MiB")
        self.executor_memory = executor_memory
        if record_scale < 1:
            raise ConfigurationError("record_scale must be >= 1")
        self.env = SparkEnv(cluster, shuffle_transport,
                            cluster.nodes[driver_node], record_scale)
        self._scheduler = sched.DAGScheduler(self.env)
        self.default_parallelism = (
            len(self._executor_placement) if default_parallelism is None
            else default_parallelism)
        if self.default_parallelism < 1:
            raise ConfigurationError("default_parallelism must be >= 1")
        self.app_startup = app_startup
        self._rdd_ids = itertools.count()
        self._shuffle_ids = itertools.count()
        self._broadcast_ids = itertools.count()
        self._accum_ids = itertools.count()
        self._ran = False

    # -- logical/physical scaling ------------------------------------------------------

    @property
    def record_scale(self) -> int:
        """Logical records per physical record (DESIGN.md §2).

        Settable from inside a running app so that workloads whose
        equivalent dataset size varies per step (e.g. the Fig 3 reduce
        sweep) can fold a physical sample while being *timed* as the
        full-size data.  Applies to tasks dispatched after the assignment.
        """
        return self.env.record_scale

    @record_scale.setter
    def record_scale(self, scale: int) -> None:
        if scale < 1:
            raise ConfigurationError("record_scale must be >= 1")
        self.env.record_scale = scale

    # -- RDD creation ------------------------------------------------------------------

    def parallelize(self, data: Any, num_partitions: int | None = None) -> RDD:
        """Distribute driver-local data (the Fig 2 pattern)."""
        data = list(data)
        n = (self.default_parallelism if num_partitions is None
             else num_partitions)
        if n < 1:
            raise SparkError("num_partitions must be >= 1")
        return ParallelizeRDD(self, data, n)

    def text_file(self, url: str, min_partitions: int | None = None) -> RDD:
        """Lines of ``scheme://path`` (``hdfs://``, ``local://``, ``nfs://``).

        HDFS files get one partition per block with locality preferences.
        """
        scheme, _, path = url.partition("://")
        if not path:
            raise SparkError(f"text_file needs scheme://path, got {url!r}")
        if min_partitions is not None and min_partitions < 1:
            raise SparkError("min_partitions must be >= 1")
        return TextFileRDD(self, scheme, path, min_partitions)

    # -- shared variables ----------------------------------------------------------------

    def broadcast(self, value: Any) -> Broadcast:
        """Ship a read-only value to every executor node once."""
        return Broadcast(self, value)

    def accumulator(self, zero: Any = 0,
                    add: Callable[[Any, Any], Any] | None = None) -> Accumulator:
        """A write-only (from tasks) aggregation variable."""
        acc = Accumulator(self, next(self._accum_ids), zero, add)
        self.env.accumulators[acc.id] = acc
        return acc

    # -- application execution ------------------------------------------------------------

    def run(self, app: Callable[["SparkContext"], Any]) -> SparkJobResult:
        """Launch executors + driver, run ``app(self)`` on the driver.

        Owns the cluster's engine for the duration (one application per
        cluster instance, like a dedicated YARN queue).
        """
        if self._ran:
            raise SparkError(
                "this SparkContext already ran an application; build a new "
                "Cluster + SparkContext per run (virtual time is monotonic)"
            )
        self._ran = True
        env = self.env
        for i, node in enumerate(self._executor_placement):
            env.executors.append(
                Executor(i, node, self.executor_memory, self.costs))
        t_app_start: list[float] = []

        def executor_main(ex: Executor) -> Steps[None]:
            proc = current_process()
            proc.compute(self.app_startup)  # container + JVM spin-up
            while True:
                msg = yield from ex.mailbox.recv_steps(
                    proc, reason=f"spark:executor{ex.executor_id}")
                kind = msg.meta.get("kind")
                if kind == "shutdown":
                    return
                if kind != "task":
                    raise SparkError(f"executor got unknown message {kind!r}")
                proc.compute(self.costs.spark_task_overhead)
                if ex.dead:
                    yield from self._reply_steps(proc, ex, msg,
                                                 "executor_lost", None, {})
                    continue
                task_kind, a, partition, fn = msg.payload
                try:
                    if task_kind == "shuffle_map":
                        ctx = yield from sched.run_shuffle_map_task(
                            env, ex, a, partition)
                        result = None
                    else:
                        result, ctx = yield from sched.run_result_task(
                            env, ex, a, partition, fn)
                    if ex.dead:
                        # the executor was killed mid-task (fault injection):
                        # the work is lost with the process
                        yield from self._reply_steps(
                            proc, ex, msg, "executor_lost", None, {})
                        continue
                    yield from self._reply_steps(proc, ex, msg, "ok", result,
                                                 ctx.accum_updates)
                except sched.FetchFailedError as ff:
                    yield from self._reply_steps(
                        proc, ex, msg, "fetch_failed", None, {},
                        shuffle_id=ff.shuffle_id)
                except SparkError:
                    raise
                except Exception as exc:  # user code failed: report upstream
                    yield from self._reply_steps(proc, ex, msg, "error", exc,
                                                 {})

        def driver_main() -> Any:
            proc = current_process()
            proc.compute(self.app_startup)
            t_app_start.append(proc.clock)
            try:
                return app(self)
            finally:
                # one step body: the driver parks at most once to shut down
                proc.run_steps(shutdown_steps(proc))

        def shutdown_steps(proc: SimProcess) -> Steps[None]:
            for ex in env.executors:
                yield from ex.mailbox.post_steps(proc, None, kind="shutdown")

        self.cluster.fault_listeners.append(self._on_fault)
        for ex in env.executors:
            self.cluster.spawn(executor_main, ex, node_id=ex.node.id,
                               name=f"spark:executor{ex.executor_id}")
        driver = self.cluster.spawn(driver_main, node_id=env.driver_node.id,
                                    name="spark:driver")
        elapsed = self.cluster.run()
        return SparkJobResult(
            value=driver.result,
            elapsed=elapsed,
            app_elapsed=driver.clock - t_app_start[0],
        )

    def _reply_steps(self, proc: SimProcess, ex: Executor, msg: Any,
                     status: str, payload: Any, accum: dict,
                     **extra: Any) -> Steps[None]:
        """Post a task's outcome to the driver (a bulk result is sent)."""
        nbytes = 64 + (estimate_nbytes([payload]) if payload is not None else 0)
        proc.compute_bytes(nbytes, self.costs.ser_rate_jvm)
        env = self.env
        if nbytes >= 64 * 2**10:
            arrival = yield from env.cluster.network.transmit_steps(
                proc, env.control_fabric, ex.node.id, env.driver_node.id,
                nbytes, label="spark.result")
        else:
            arrival = env.cluster.network.msg_arrival(
                proc, env.control_fabric, ex.node.id, env.driver_node.id,
                nbytes)
        yield from env.driver_mailbox.post_steps(
            proc, payload, arrival=arrival,
            status=status, partition=msg.payload[2] if msg.payload else None,
            nbytes=nbytes, accum=accum, epoch=msg.meta.get("epoch"), **extra)

    # -- fault injection --------------------------------------------------------------------

    def kill_executor(self, executor_id: int) -> None:
        """Host-side fault injection: the executor's cached blocks and
        shuffle outputs vanish; its in-flight task (if any) is lost, and
        subsequent tasks sent to it fail with ``executor_lost`` and are
        rescheduled.  Recovery is pure lineage recomputation — the DAG
        scheduler re-runs only the missing map partitions and resubmitted
        result tasks (Section VI-D)."""
        self._scheduler._on_executor_lost(executor_id)

    def _on_fault(self, plan: Any, t: float) -> None:
        """Cluster fault listener (:mod:`repro.faults`): translate injected
        faults into executor losses.  ``node_crash`` takes every executor
        on the node; ``proc_kill`` takes the named executor."""
        env = self.env
        if plan.kind == "node_crash":
            nid = int(plan.target)
            for ex in env.executors:
                if ex.node.id == nid and not ex.dead:
                    self.kill_executor(ex.executor_id)
        elif plan.kind == "proc_kill":
            name = str(plan.target)
            prefix = "spark:executor"
            if name.startswith(prefix) and name[len(prefix):].isdigit():
                eid = int(name[len(prefix):])
                if eid < len(env.executors) and not env.executors[eid].dead:
                    self.kill_executor(eid)

    # -- internals -----------------------------------------------------------------------------

    def _next_rdd_id(self) -> int:
        return next(self._rdd_ids)

    def _next_shuffle_id(self) -> int:
        return next(self._shuffle_ids)

    def _next_broadcast_id(self) -> int:
        return next(self._broadcast_ids)

    def _unpersist(self, rdd_id: int) -> None:
        for ex in self.env.executors:
            ex.block_manager.remove_rdd(rdd_id)
        for key in [k for k in self.env.cache_locations if k[0] == rdd_id]:
            del self.env.cache_locations[key]
