"""The MapReduce job engine: splits, task waves, shuffle, retries.

Execution model (Hadoop 2.x, as the paper ran it):

* the **driver** (client + YARN AM rolled together) pays the job-submission
  cost, computes input splits, then schedules task *attempts* into per-node
  slots, preferring nodes that hold a replica of the split (locality);
* each attempt is its own simulated process paying the **JVM start** cost —
  a dominant term for short tasks and a big part of why Hadoop sits above
  Spark in Fig 4.  An attempt's body is steps (a generator: its waits are
  split reads, spills, fetches and reports; user mapper, combiner and
  reducer closures never wait), so the engine runs it without a thread;
* map output is combined (optionally), hash-partitioned, sorted and
  **spilled to the local SSD**;
* reduce tasks start once every map finished (we do not model slow-start),
  fetch one bucket per map over the cluster's Hadoop fabric, merge-sort,
  reduce, and either return results to the driver or write them to the
  output filesystem (with replication if it is HDFS);
* a failed attempt is retried on another node, up to ``max_attempts``
  (then :class:`~repro.errors.TaskFailedError` aborts the job).
"""

from __future__ import annotations

from collections import deque
from typing import Any

from repro.cluster.cluster import Cluster
from repro.errors import BlockUnavailableError, MapReduceError, TaskFailedError
from repro.fs.hdfs import HDFS
from repro.fs.records import read_split_records
from repro.mapreduce.types import FaultInjector, JobConf, JobCounters, JobResult
from repro.sim.engine import current_process
from repro.sim.process import Steps
from repro.sim.sync import Mailbox
from repro.spark.partitioner import stable_hash
from repro.spark.shuffle import estimate_nbytes


class _InjectedFault(MapReduceError):
    """Raised inside a task attempt by the fault injector."""


class _JobState:
    """Shared state of one running job."""

    def __init__(self, cluster: Cluster, conf: JobConf,
                 fault_injector: FaultInjector | None) -> None:
        self.cluster = cluster
        self.conf = conf
        self.costs = cluster.machine.costs
        self.fabric = cluster.machine.bigdata_fabric
        self.fault_injector = fault_injector
        self.counters = JobCounters()
        self.driver_box = Mailbox("mr:driver")
        scheme, _, path = conf.input_url.partition("://")
        self.fs = cluster.filesystems.get(scheme)
        if self.fs is None:
            raise MapReduceError(f"no filesystem for scheme {scheme!r}")
        self.path = path
        #: (map_id, reduce_id) -> records; map outputs live on map_node
        self.map_outputs: dict[tuple[int, int], list] = {}
        self.map_output_sizes: dict[tuple[int, int], int] = {}
        self.map_node: dict[int, int] = {}

    def splits(self) -> tuple[list[tuple[int, int]], list[list[int]]]:
        """Input splits + preferred nodes (HDFS block locality)."""
        size = self.fs.size(self.path)
        if self.conf.split_size is None and isinstance(self.fs, HDFS):
            locs = self.fs.block_locations(self.path)
            return [(s, e) for s, e, _n in locs], [n for _s, _e, n in locs]
        chunk = self.conf.split_size
        if chunk is None:
            chunk = 128 * 10**6
        elif chunk < 1:
            raise MapReduceError("split_size must be >= 1")
        splits = [(o, min(size, o + chunk)) for o in range(0, max(size, 1), chunk)]
        return splits, [[] for _ in splits]


def run_job(
    cluster: Cluster,
    conf: JobConf,
    *,
    map_slots_per_node: int = 8,
    reduce_slots_per_node: int = 8,
    fault_injector: FaultInjector | None = None,
) -> JobResult:
    """Run one MapReduce job to completion on the cluster's engine.

    Fabric and cost constants come from the cluster's machine
    (``cluster.machine.bigdata_fabric`` / ``.costs``).
    """
    if conf.num_reduces < 1:
        raise MapReduceError("num_reduces must be >= 1")
    state = _JobState(cluster, conf, fault_injector)
    driver = cluster.spawn(_driver_main, state, map_slots_per_node,
                           reduce_slots_per_node, node_id=0, name="mr:driver")
    elapsed = cluster.run()
    output, job_time = driver.result
    return JobResult(output=output, elapsed=job_time, counters=state.counters)


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------


def _driver_main(state: _JobState, map_slots: int, reduce_slots: int) -> Any:
    proc = current_process()
    t0 = proc.clock
    proc.compute(state.costs.hadoop_job_submit)
    splits, preferred = state.splits()
    state.counters.map_tasks = len(splits)
    state.counters.reduce_tasks = state.conf.num_reduces

    map_attempts: dict[int, int] = {}

    def run_maps(task_ids: list[int]) -> None:
        _run_wave(state, "map", task_ids,
                  lambda tid: preferred[tid], map_slots,
                  lambda tid, node: (_map_attempt, state, tid, splits[tid]),
                  attempts=map_attempts)

    def recover_maps(lost: list[int]) -> None:
        """Re-execute map tasks whose output died with a crashed node.

        Hadoop's fetch-failure semantics: a reduce reporting missing map
        output blames the *map*, so the AM restarts the source maps on
        surviving nodes before the reduce retries.  Maps already re-run by
        an earlier report (the re-run shares the per-map attempt budget)
        are skipped.
        """
        stale = [m for m in lost
                 if state.map_node[m] in state.cluster.failed_nodes]
        if stale:
            run_maps(stale)

    run_maps(list(range(len(splits))))
    reduce_tasks = list(range(state.conf.num_reduces))
    results = _run_wave(state, "reduce", reduce_tasks,
                        lambda tid: [], reduce_slots,
                        lambda tid, node: (_reduce_attempt, state, tid,
                                           len(splits)),
                        recover=recover_maps)
    output: list = []
    for tid in sorted(results):
        output.extend(results[tid])
    return output, proc.clock - t0


def _run_wave(state: _JobState, kind: str, task_ids: list[int], preferred,
              slots_per_node: int, make_task, *,
              attempts: dict[int, int] | None = None,
              recover=None) -> dict[int, Any]:
    """Schedule one phase's tasks into node slots; handle retries.

    ``attempts`` shares one cumulative per-task retry budget across waves
    (lost-map re-execution re-enters the map wave with the original
    budget).  ``recover`` handles a ``"lost_maps"`` report — a reduce
    found source map output on a crashed node — by re-running those maps
    before the reduce is requeued.  Map slots and reduce slots are
    disjoint pools in Hadoop, so a recovery map wave nested inside the
    reduce wave contends for nothing the in-flight reduces hold.
    """
    proc = current_process()
    cluster = state.cluster
    free: dict[int, int] = {n.id: slots_per_node for n in cluster.nodes}
    queue = deque(task_ids)
    if attempts is None:
        attempts = {}
    for t in task_ids:
        attempts.setdefault(t, 0)
    in_flight: dict[int, int] = {}
    results: dict[int, Any] = {}

    def pick_node(tid: int) -> int | None:
        dead = cluster.failed_nodes
        pref = [n for n in preferred(tid)
                if free.get(n, 0) > 0 and n not in dead]
        if pref:
            return pref[0]
        avail = [n for n, k in free.items() if k > 0 and n not in dead]
        if not avail:
            return None
        # spread over nodes deterministically
        return avail[tid % len(avail)]

    def count_retry(tid: int, action: str, why: Any) -> None:
        state.counters.task_retries += 1
        cluster.trace.record(proc.clock, proc.name, "fault.recover",
                             framework="hadoop", action=action,
                             wave=kind, task=tid)
        if attempts[tid] >= state.conf.max_attempts:
            raise TaskFailedError(
                f"{kind} task {tid} failed {attempts[tid]} times: {why}")
        queue.append(tid)

    while queue or in_flight:
        proc.compute(state.costs.hadoop_schedule_wave / max(1, len(task_ids)))
        launched = False
        for _ in range(len(queue)):
            tid = queue.popleft()
            node = pick_node(tid)
            if node is None:
                queue.append(tid)
                break
            free[node] -= 1
            attempts[tid] += 1
            fn, *args = make_task(tid, node)
            cluster.spawn(fn, *args, attempts[tid], node_id=node,
                          name=f"mr:{kind}{tid}.{attempts[tid]}")
            in_flight[tid] = node
            launched = True
        if not in_flight:
            if not launched and queue:
                raise MapReduceError("no slots available at all")
            continue
        msg = state.driver_box.recv(
            proc, match=lambda m: m.meta["kind"] == kind,
            reason=f"mr:wait-{kind}")
        tid = msg.meta["task"]
        node = in_flight.pop(tid)
        free[node] += 1
        status = msg.meta["status"]
        if status == "ok" and node in cluster.failed_nodes:
            # the attempt's node crashed while it ran: whatever it produced
            # (spill, reduce output) died with the node
            status = "node_lost"
        if status == "ok":
            results[tid] = msg.payload
        elif status == "lost_maps":
            if recover is None:
                raise MapReduceError(
                    f"{kind} task {tid} reported lost map outputs "
                    f"{msg.payload} but this wave cannot recover them")
            count_retry(tid, "map_rerun", f"lost maps {msg.payload}")
            recover(sorted(set(msg.payload)))
        else:
            count_retry(tid, "task_retry", msg.payload)
    return results


# ---------------------------------------------------------------------------
# task attempts (each a threadless simulated process: its body is steps)
# ---------------------------------------------------------------------------


def _report(state: _JobState, kind: str, tid: int, status: str,
            payload: Any) -> Steps[None]:
    proc = current_process()
    nbytes = 64 + (estimate_nbytes(payload) if isinstance(payload, list) else 0)
    arrival = state.cluster.network.msg_arrival(
        proc, state.fabric, state.cluster.node_of(proc).id, 0, nbytes)
    yield from state.driver_box.post_steps(proc, payload, arrival=arrival,
                                           kind=kind, task=tid, status=status)


def _maybe_fail(state: _JobState, kind: str, tid: int, attempt: int) -> None:
    if state.fault_injector is not None and state.fault_injector(kind, tid, attempt):
        raise _InjectedFault(f"{kind} task {tid} attempt {attempt} killed")


def _map_attempt(state: _JobState, tid: int, split: tuple[int, int],
                 attempt: int) -> Steps[None]:
    proc = current_process()
    conf, costs = state.conf, state.costs
    try:
        proc.compute(costs.hadoop_task_jvm)
        _maybe_fail(state, "map", tid, attempt)
        records = yield from read_split_records(state.fs, proc, state.path,
                                                split[0], split[1])
        proc.compute_bytes(max(1, split[1] - split[0]), costs.parse_rate_jvm)
        out: list[tuple[Any, Any]] = []
        for line in records:
            out.extend(conf.mapper(line))
        proc.compute(len(records) * (conf.map_cost_per_record + 1e-7))
        state.counters.map_input_records += len(records)
        state.counters.map_output_records += len(out)
        if conf.combiner is not None:
            grouped: dict[Any, list] = {}
            get_group = grouped.get
            for k, v in out:
                vs = get_group(k)
                if vs is None:
                    grouped[k] = [v]
                else:
                    vs.append(v)
            out = [kv for k, vs in grouped.items()
                   for kv in conf.combiner(k, vs)]
            state.counters.combine_output_records += len(out)
        # Bucket in one pass with preallocated lists; keys repeat heavily
        # (word-count shaped output), so hash each distinct key once.
        num_reduces = conf.num_reduces
        buckets: list[list] = [[] for _ in range(num_reduces)]
        rid_of: dict[Any, int] = {}
        get_rid = rid_of.get
        for k, v in out:
            rid = get_rid(k)
            if rid is None:
                rid = rid_of[k] = stable_hash(k) % num_reduces
            buckets[rid].append((k, v))
        total = 0
        node = state.cluster.node_of(proc)
        trace = state.cluster.trace
        for rid in range(num_reduces):
            bucket = buckets[rid]
            nbytes = estimate_nbytes(bucket)
            trace.access(proc, "write", f"mr.spill[{tid},{rid}]")
            state.map_outputs[(tid, rid)] = bucket
            state.map_output_sizes[(tid, rid)] = nbytes
            total += nbytes
        # sort + spill to local disk (the defining Hadoop cost)
        proc.compute_bytes(max(1, total), costs.hadoop_sort_rate)
        yield from node.ssd.write_steps(proc, max(1, total),
                                        label=f"mr:spill{tid}")
        state.counters.spilled_bytes += total
        state.map_node[tid] = node.id
        yield from _report(state, "map", tid, "ok", None)
    except (_InjectedFault, BlockUnavailableError) as exc:
        # BlockUnavailable: the split's HDFS replicas all died (node crash
        # at replication=1); the attempt fails like any task failure and
        # the retry budget decides whether the job survives
        yield from _report(state, "map", tid, "failed", str(exc))


def _reduce_attempt(state: _JobState, tid: int, n_maps: int,
                    attempt: int) -> Steps[None]:
    proc = current_process()
    conf, costs = state.conf, state.costs
    try:
        proc.compute(costs.hadoop_task_jvm)
        _maybe_fail(state, "reduce", tid, attempt)
        my_node = state.cluster.node_of(proc)
        merged: list = []
        total = 0
        for mid in range(n_maps):
            proc.compute(costs.hadoop_fetch_overhead)
            if state.map_node[mid] in state.cluster.failed_nodes:
                # fetch failure: the serving node is gone, so every map
                # output it held is lost — report them all so the driver
                # re-executes the source maps before retrying this reduce
                lost = [m for m in range(n_maps)
                        if state.map_node[m] in state.cluster.failed_nodes]
                yield from _report(state, "reduce", tid, "lost_maps", lost)
                return
            nbytes = max(1, state.map_output_sizes[(mid, tid)])
            src = state.map_node[mid]
            yield from state.cluster.nodes[src].ssd.read_steps(
                proc, nbytes, label="mr:serve")
            if src != my_node.id:
                yield from state.cluster.network.transmit_steps(
                    proc, state.fabric, src, my_node.id, nbytes,
                    label=f"mr:fetch{mid}->{tid}")
                state.counters.shuffled_bytes_remote += nbytes
            else:
                state.counters.shuffled_bytes_local += nbytes
            state.cluster.trace.access(proc, "read", f"mr.spill[{mid},{tid}]")
            merged.extend(state.map_outputs[(mid, tid)])
            total += nbytes
        # reduce-side merge sort
        proc.compute_bytes(max(1, total), costs.hadoop_sort_rate)
        grouped: dict[Any, list] = {}
        get_group = grouped.get
        for k, v in merged:
            vs = get_group(k)
            if vs is None:
                grouped[k] = [v]
            else:
                vs.append(v)
        out: list[tuple[Any, Any]] = []
        # sorted() evaluates the key function once per element, so each
        # distinct key is hashed exactly once here
        for k in sorted(grouped, key=stable_hash):
            out.extend(conf.reducer(k, grouped[k]))
        proc.compute(len(merged) * (conf.reduce_cost_per_record + 1e-7))
        state.counters.reduce_output_records += len(out)
        if conf.output_url is not None:
            scheme, _, path = conf.output_url.partition("://")
            ofs = state.cluster.filesystems[scheme]
            yield from ofs.write_steps(proc, f"{path}/part-r-{tid:05d}",
                                       max(1, estimate_nbytes(out)))
        yield from _report(state, "reduce", tid, "ok", out)
    except (_InjectedFault, BlockUnavailableError) as exc:
        yield from _report(state, "reduce", tid, "failed", str(exc))
