"""DAG scheduler + executor-side task execution context.

The driver-side half (:class:`DAGScheduler`) mirrors Spark's: it cuts the
lineage graph into stages at shuffle dependencies, runs parent stages first
(skipping stages whose shuffle outputs still exist — what makes later
iterations of an iterative job cheap), dispatches tasks one at a time
through the driver (the serial dispatch that dominates small-job latency in
Fig 3), prefers executors that hold a cached block or a local HDFS block,
and recovers from executor loss by re-running exactly the lost lineage.

The executor-side half (:class:`TaskContext`) materialises partitions with
cache lookups (lineage recomputation on miss) and performs shuffle reads.

Both halves wait as steps (``SimProcess.run_steps``).  A task body
(:func:`run_shuffle_map_task`, :func:`run_result_task`) and everything it
waits on are step generators composed with ``yield from``, because an
executor has no thread.  On the driver, one stage's dispatch-and-collect
loop is one step body (:meth:`DAGScheduler._run_stage_steps`), so the
driver's thread wakes once per stage rather than once per task result.
The blocking name ``TaskContext.iterator`` is ``run_steps`` over its
step form.
"""

from __future__ import annotations

import inspect
import itertools
from collections import deque
from typing import TYPE_CHECKING, Any, Callable

from repro.errors import JobAbortedError, SparkError
from repro.sim.engine import current_process
from repro.sim.process import SimProcess, Steps
from repro.spark.rdd import (
    Dependency,
    NarrowDependency,
    RDD,
    ShuffleDependency,
)
from repro.spark.shuffle import ShuffleReader, ShuffleWriter, estimate_nbytes

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.spark.context import Executor, SparkEnv

#: estimated wire size of a task closure (code + metadata, no data payload)
CLOSURE_BYTES = 4096
#: maximum resubmissions of one stage after fetch failures / lost executors
MAX_STAGE_RETRIES = 4


class FetchFailedError(SparkError):
    """A reduce task could not obtain a map output (executor loss)."""

    def __init__(self, shuffle_id: int) -> None:
        super().__init__(f"fetch failed for shuffle {shuffle_id}")
        self.shuffle_id = shuffle_id


class Stage:
    """A pipeline of narrow transformations ending at a shuffle or action."""

    def __init__(self, stage_id: int, rdd: RDD,
                 shuffle_dep: ShuffleDependency | None) -> None:
        self.id = stage_id
        self.rdd = rdd
        self.shuffle_dep = shuffle_dep  # None => result stage
        self.parents: list[Stage] = []

    @property
    def is_result(self) -> bool:
        return self.shuffle_dep is None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "Result" if self.is_result else f"ShuffleMap({self.shuffle_dep.shuffle_id})"
        return f"<Stage {self.id} {kind} rdd={self.rdd.id}>"


class TaskContext:
    """Executor-side services available while computing a partition."""

    def __init__(self, env: "SparkEnv", executor: "Executor") -> None:
        self.env = env
        self.executor = executor
        self.proc: SimProcess = current_process()
        self.costs = env.costs
        self.accum_updates: dict[int, Any] = {}
        env.active_ctx[self.proc.pid] = self  # for Accumulator.add

    # -- cost charging ------------------------------------------------------------

    def charge_records(self, n: int, extra: float = 0.0) -> None:
        """Per-record JVM iterator overhead (+ optional modelled CPU).

        Scaled by the context's ``record_scale``: each physical record
        stands for that many logical ones.
        """
        self.proc.compute(n * self.env.record_scale
                          * (self.costs.spark_record_overhead + extra))

    def charge_bytes(self, nbytes: float, rate: float) -> None:
        self.proc.compute_bytes(nbytes, rate)

    # -- partition materialisation ---------------------------------------------------

    def iterator(self, rdd: RDD, index: int) -> list:
        """Materialise ``rdd[index]`` (see :meth:`iterator_steps`)."""
        return self.proc.run_steps(self.iterator_steps(rdd, index))

    def iterator_steps(self, rdd: RDD, index: int) -> Steps[list]:
        """Materialise ``rdd[index]``, honouring cache and checkpoint.

        Priority matches Spark: reliable checkpoint > block-manager cache >
        recompute through the lineage.  The recompute path is Spark's fault
        tolerance (Section VI-D): no replication, just recomputation.
        """
        key = (rdd.id, index)
        proc = self.proc
        if rdd.is_checkpointed:
            stored = self.env.checkpoint_store.get(key)
            if stored is not None:
                records, nbytes = stored
                # read back from reliable (replicated) storage
                yield from self.executor.node.ssd.read_steps(
                    proc, max(1, nbytes), label="rdd.checkpoint")
                self.charge_bytes(max(1, nbytes), self.costs.ser_rate_jvm)
                return records
        if rdd.storage_level is not None:
            cached = yield from self.executor.block_manager.get_steps(
                proc, key)
            if cached is not None:
                return cached
        records = yield from rdd.compute(index, self)
        if rdd.is_checkpointed:
            nbytes = estimate_nbytes(records) * self.env.record_scale
            # write locally + one replica hop = reliable storage
            self.charge_bytes(max(1, nbytes), self.costs.ser_rate_jvm)
            yield from self.executor.node.ssd.write_steps(
                proc, max(1, nbytes), label="rdd.checkpoint")
            nodes = self.env.cluster.nodes
            if len(nodes) > 1:
                peer = (self.executor.node.id + 1) % len(nodes)
                yield from self.env.cluster.network.transmit_steps(
                    proc, self.env.control_fabric,
                    self.executor.node.id, peer, max(1, nbytes),
                    label="rdd.checkpoint")
            self.env.checkpoint_store[key] = (records, nbytes)
        if rdd.storage_level is not None:
            nbytes = estimate_nbytes(records) * self.env.record_scale
            yield from self.executor.block_manager.put_steps(
                proc, key, records, nbytes, rdd.storage_level)
            self.env.cache_locations.setdefault(key, set()).add(
                self.executor.executor_id)
        return records

    def shuffle_read_steps(self, shuffle_id: int, reduce_id: int,
                           n_maps: int) -> Steps[list]:
        """Fetch one reduce partition; raises FetchFailed on missing outputs."""
        if not self.env.tracker.complete(shuffle_id, n_maps):
            raise FetchFailedError(shuffle_id)
        return (yield from ShuffleReader(self.env).read_steps(
            self.proc, self.executor, shuffle_id, reduce_id, n_maps))


# -- task bodies (run on the executor, as steps) ---------------------------------------


def run_shuffle_map_task(env: "SparkEnv", executor: "Executor",
                         dep: ShuffleDependency,
                         partition: int) -> Steps[TaskContext]:
    """Compute one map-side partition and write its shuffle buckets."""
    ctx = TaskContext(env, executor)
    records = yield from ctx.iterator_steps(dep.parent, partition)
    # a combining dependency's map-side combine happens inside the write
    yield from ShuffleWriter(env).write_steps(ctx.proc, executor, dep,
                                              partition, records)
    return ctx


def run_result_task(env: "SparkEnv", executor: "Executor", rdd: RDD,
                    partition: int, fn: Callable[[int, list], Any]
                    ) -> Steps[tuple[Any, TaskContext]]:
    """Compute one partition and apply the action's per-partition function.

    ``fn`` is a plain call; an action whose ``fn`` waits (a timed write)
    writes it as steps, a generator function, and it is run as such.
    """
    ctx = TaskContext(env, executor)
    records = yield from ctx.iterator_steps(rdd, partition)
    if inspect.isgeneratorfunction(fn):
        return (yield from fn(partition, records)), ctx
    return fn(partition, records), ctx


# -- the driver-side scheduler -------------------------------------------------------


class DAGScheduler:
    """Builds stages from lineage and runs them over the executor pool."""

    def __init__(self, env: "SparkEnv") -> None:
        self.env = env
        self._stage_ids = itertools.count()

    # -- stage graph -----------------------------------------------------------------

    def build_stages(self, rdd: RDD) -> Stage:
        """Result stage for ``rdd``, with the full parent-stage DAG behind it."""
        shuffle_stages: dict[int, Stage] = {}

        def stage_for_shuffle(dep: ShuffleDependency) -> Stage:
            st = shuffle_stages.get(dep.shuffle_id)
            if st is None:
                st = Stage(next(self._stage_ids), dep.parent, dep)
                shuffle_stages[dep.shuffle_id] = st
                st.parents = parent_stages(dep.parent)
            return st

        def parent_stages(rdd: RDD) -> list[Stage]:
            out: list[Stage] = []
            seen: set[int] = set()
            stack: list[RDD] = [rdd]
            while stack:
                r = stack.pop()
                if r.id in seen:
                    continue
                seen.add(r.id)
                for dep in r.deps:
                    if isinstance(dep, ShuffleDependency):
                        out.append(stage_for_shuffle(dep))
                    else:
                        stack.append(dep.parent)
            return out

        result = Stage(next(self._stage_ids), rdd, None)
        result.parents = parent_stages(rdd)
        return result

    def _linearise(self, result: Stage) -> list[Stage]:
        """Parent-first topological order of the stage DAG."""
        order: list[Stage] = []
        seen: set[int] = set()

        def visit(st: Stage) -> None:
            if st.id in seen:
                return
            seen.add(st.id)
            for p in st.parents:
                visit(p)
            order.append(st)

        visit(result)
        return order

    # -- job execution -----------------------------------------------------------------

    def run_job(self, rdd: RDD, fn: Callable[[int, list], Any],
                partitions: list[int] | None = None) -> list:
        """Run an action: compute ``fn(index, records)`` per partition.

        Must be called from the driver process.  Returns the per-partition
        results in partition order.  ``fn`` runs on an executor, which has
        no thread: an ``fn`` that waits is written as steps (a generator
        function, see :func:`run_result_task`).
        """
        proc = current_process()
        proc.compute(self.env.costs.spark_job_overhead)
        result_stage = self.build_stages(rdd)
        parts = partitions if partitions is not None else list(
            range(rdd.num_partitions))
        for attempt in range(MAX_STAGE_RETRIES + 1):
            try:
                for st in self._linearise(result_stage):
                    if st.is_result:
                        return self._run_stage(st, parts, fn)
                    missing = self.env.tracker.missing_maps(
                        st.shuffle_dep.shuffle_id, st.rdd.num_partitions)
                    if missing:  # skip fully-materialised stages
                        self._run_stage(st, missing, None)
                raise SparkError("stage graph had no result stage")
            except FetchFailedError as ff:
                # a later stage found map outputs missing (executor loss
                # after the producing stage ran): loop to re-run the holes
                if attempt == MAX_STAGE_RETRIES:
                    raise JobAbortedError(
                        f"job failed after {attempt + 1} attempts: {ff}"
                    ) from ff
                self.env.cluster.trace.record(
                    proc.clock, proc.name, "fault.recover",
                    framework="spark", action="stage_rerun",
                    shuffle=ff.shuffle_id)
        raise AssertionError("unreachable")

    # -- one stage ------------------------------------------------------------------------

    def _run_stage(self, stage: Stage, partitions: list[int],
                   fn: Callable[[int, list], Any] | None) -> list:
        """Run one stage's tasks to completion; see :meth:`_run_stage_steps`."""
        return current_process().run_steps(
            self._run_stage_steps(stage, partitions, fn))

    def _run_stage_steps(self, stage: Stage, partitions: list[int],
                         fn: Callable[[int, list], Any] | None
                         ) -> Steps[list]:
        """One stage as one step body: dispatch a task to every free
        executor, wait for a result, repeat.  The driver's thread parks on
        the whole body, so it wakes once per stage, not once per task."""
        env = self.env
        proc = current_process()
        proc.compute(env.costs.spark_stage_overhead)
        results: dict[int, Any] = {}
        queue = deque(partitions)
        in_flight: dict[int, int] = {}  # partition -> executor_id
        free = deque(
            ex.executor_id for ex in env.executors if not ex.dead
        )
        if not free:
            raise JobAbortedError("no alive executors")
        retries: dict[int, int] = {}
        epoch = env.next_epoch()  # isolates this attempt's result messages
        # Matching state hoisted out of the per-dispatch loop: whether any
        # RDD on the stage's narrow lineage can be cached at all (if not,
        # cache-affinity matching degenerates provably), and a memo of the
        # per-partition preferred nodes (static for a given stage).
        lineage_cacheable = self._lineage_may_cache(stage.rdd)
        node_prefs: dict[int, set[int]] = {}

        def dispatch_one() -> Steps[bool]:
            if not queue or not free:
                return False
            part, eid = self._match_task(stage, queue, free,
                                         lineage_cacheable, node_prefs)
            free.remove(eid)
            ex = env.executors[eid]
            proc.compute(env.costs.spark_task_dispatch)
            # parallelize() slices ship inside the task closure
            payload_bytes = CLOSURE_BYTES + self._task_payload_bytes(
                stage.rdd, part)
            proc.compute_bytes(payload_bytes, env.costs.ser_rate_jvm)
            if stage.is_result:
                task = ("result", stage.rdd, part, fn)
            else:
                task = ("shuffle_map", stage.shuffle_dep, part, None)
            arrival = env.cluster.network.msg_arrival(
                proc, env.control_fabric, env.driver_node.id, ex.node.id,
                payload_bytes)
            yield from ex.mailbox.post_steps(
                proc, task, arrival=arrival, kind="task",
                nbytes=payload_bytes, epoch=epoch)
            in_flight[part] = eid
            return True

        while queue or in_flight:
            while (yield from dispatch_one()):
                pass
            if not in_flight:
                if not free:
                    raise JobAbortedError("no alive executors")
                continue
            msg = yield from env.driver_mailbox.recv_steps(
                proc,
                match=lambda m: m.meta.get("epoch") == epoch,
                reason="spark.driver-wait",
            )
            status = msg.meta["status"]
            part = msg.meta["partition"]
            eid = in_flight.pop(part)
            proc.compute(env.cluster.network.rx_overhead(
                env.control_fabric, msg.meta["nbytes"]))
            if status == "ok":
                results[part] = msg.payload
                for acc_id, update in msg.meta["accum"].items():
                    env.cluster.trace.access(
                        proc, "write", f"spark.accum{acc_id}")
                    env.accumulators[acc_id]._merge(update)
                free.append(eid)
            elif status == "fetch_failed":
                free.append(eid)
                raise FetchFailedError(msg.meta["shuffle_id"])
            elif status == "executor_lost":
                self._on_executor_lost(eid)
                env.cluster.trace.record(
                    proc.clock, proc.name, "fault.recover",
                    framework="spark", action="task_resubmit",
                    partition=part, executor=eid)
                retries[part] = retries.get(part, 0) + 1
                if retries[part] > MAX_STAGE_RETRIES:
                    raise JobAbortedError(
                        f"task for partition {part} failed too many times")
                queue.append(part)
                alive = [e.executor_id for e in env.executors if not e.dead]
                if not alive:
                    raise JobAbortedError("all executors lost")
                # drop the dead executor from the free pool if present
                if eid in free:
                    free.remove(eid)
            else:  # task raised a user exception: surface it
                raise msg.payload
        return [results[p] for p in sorted(results)]

    def _task_payload_bytes(self, rdd: RDD, part: int) -> int:
        """Bytes of driver-resident data the task closure must carry
        (the slices of any parallelize() ancestor on the narrow chain)."""
        total = 0
        stack: list[tuple[RDD, int]] = [(rdd, part)]
        while stack:
            r, i = stack.pop()
            closure_payload = getattr(r, "closure_payload", None)
            if closure_payload is not None:
                total += estimate_nbytes(closure_payload(i)) * self.env.record_scale
            for dep in r.deps:
                if isinstance(dep, NarrowDependency):
                    for pi in dep.parent_partitions(i):
                        stack.append((dep.parent, pi))
        return total

    def _match_task(self, stage: Stage, queue: deque, free: deque,
                    lineage_cacheable: bool,
                    node_prefs: dict[int, set[int]]) -> tuple[int, int]:
        """Pick the next (partition, executor) pairing, locality first.

        A lightweight form of Spark's delay scheduling: prefer dispatching a
        task *onto* an executor that holds its cached block or a local HDFS
        block, and keep unpreferring tasks off executors that other queued
        tasks want — otherwise one dead executor shifts every task off its
        cache and the whole stage recomputes.

        When ``lineage_cacheable`` is False, no RDD on the stage's narrow
        lineage has a storage level, so ``_preferred_executors`` is empty
        for every partition: pass 1 can never hit and pass 3's reserved
        set is empty — both are skipped, selecting identically.
        """
        env = self.env
        # pass 1 (no hit) looks up every queued partition and pass 3 reads
        # them; a memo kept across calls would go stale, because cache
        # locations change while the stage runs
        prefs: dict[int, set[int]] = {}
        if lineage_cacheable:
            # 1. a queued task whose cached-block executor is free
            for qi, part in enumerate(queue):
                pref = self._preferred_executors(stage.rdd, part)
                prefs[part] = pref
                hit = next((e for e in free if e in pref), None)
                if hit is not None:
                    del queue[qi]
                    return part, hit
        # 2. a queued task with a free executor on a preferred node
        for qi, part in enumerate(queue):
            nodes = node_prefs.get(part)
            if nodes is None:
                nodes = node_prefs[part] = set(stage.rdd.preferred_nodes(part))
            if not nodes:
                continue
            hit = next(
                (e for e in free if env.executors[e].node.id in nodes), None)
            if hit is not None:
                del queue[qi]
                return part, hit
        # 3. head of queue onto an executor nobody else is waiting for
        part = queue.popleft()
        if not lineage_cacheable:
            return part, free[0]
        reserved: set[int] = set()
        for q in queue:
            reserved |= prefs[q]
        hit = next((e for e in free if e not in reserved), None)
        return part, hit if hit is not None else free[0]

    def _lineage_may_cache(self, rdd: RDD) -> bool:
        """True if any RDD reachable over narrow dependencies has a storage
        level set (i.e. cache-affinity matching could ever find a hit)."""
        stack = [rdd]
        seen: set[int] = set()
        while stack:
            r = stack.pop()
            if r.id in seen:
                continue
            seen.add(r.id)
            if r.storage_level is not None:
                return True
            for dep in r.deps:
                if isinstance(dep, NarrowDependency):
                    stack.append(dep.parent)
        return False

    def _preferred_executors(self, rdd: RDD, part: int) -> set[int]:
        """Executors holding a cached copy of this partition (or of the
        nearest cached narrow ancestor)."""
        env = self.env
        current, index = rdd, part
        while True:
            if current.storage_level is not None:
                locs = env.cache_locations.get((current.id, index))
                if locs:
                    return {e for e in locs if not env.executors[e].dead}
            narrow = [d for d in current.deps if isinstance(d, NarrowDependency)]
            if len(narrow) != 1:
                return set()
            parents = narrow[0].parent_partitions(index)
            if len(parents) != 1:
                return set()
            current, index = narrow[0].parent, parents[0]

    def _on_executor_lost(self, eid: int) -> None:
        """Forget everything the executor held (blocks + shuffle outputs)."""
        env = self.env
        env.executors[eid].dead = True
        env.executors[eid].block_manager.drop_all()
        env.tracker.unregister_executor(eid)
        for key, locs in list(env.cache_locations.items()):
            locs.discard(eid)
            if not locs:
                del env.cache_locations[key]
