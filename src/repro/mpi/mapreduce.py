"""MapReduce implemented over MPI — the related-work [36]/[37] experiment.

The paper's related work surveys two MPI MapReduce efforts: Hoefler-style
``MPI_Scatter``/``MPI_Reduce`` implementations [36] and Plimpton & Devine's
send/receive engine [37], noting that [36] "does not provide any comparison
to reference implementations of Map-Reduce such as Hadoop", and that [37]
shows "more than 100x improvement over standard Hadoop" while lacking
fault tolerance.  This module provides that missing comparison on a single
platform:

* :func:`mapreduce` — the in-job primitive: map over the local records,
  optional local combine, hash-partitioned ``MPI_Alltoall`` exchange,
  local reduce (every rank ends up with its key range);
* :func:`run_mpi_mapreduce` — a job-level driver with the same shape as
  :func:`repro.mapreduce.run_job` (read splits from a filesystem, return
  the full output), so Hadoop and MPI variants are drop-in comparable.

Keys are cut onto ranks and grouped by the kernels Hadoop and Spark use
(``HashPartitioner.buckets``, ``group_values``), so all three engines
partition and group alike and a non-pair record ends in one ``SparkError``.

As the paper's discussion predicts, this engine has **no fault tolerance**:
a failing rank kills the job (combine it with
:mod:`repro.mpi.checkpoint` if that matters).
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.cluster.cluster import Cluster
from repro.fs.base import FileSystem
from repro.fs.records import read_split_records
from repro.mapreduce.types import Combiner, Mapper, Reducer
from repro.mpi.runtime import MPIResult, mpi_run
from repro.sim.engine import current_process
from repro.spark.partitioner import HashPartitioner
from repro.spark.shuffle import group_values

#: modelled native cost per record for the map/reduce plumbing (C hash maps)
RECORD_COST = 40e-9


def mapreduce(
    comm,
    records: Sequence[str],
    mapper: Mapper,
    reducer: Reducer,
    combiner: Combiner | None = None,
) -> list[tuple[Any, Any]]:
    """One MapReduce pass over this rank's ``records`` (collective).

    Returns the reduced pairs whose keys hash to this rank; gather or
    allgather them if a global view is needed.
    """
    proc = current_process()
    # map phase (local)
    out: list[tuple[Any, Any]] = []
    for record in records:
        out.extend(mapper(record))
    proc.compute(len(records) * RECORD_COST)
    # optional combine (local mini-reduce, like Hadoop's combiner)
    if combiner is not None:
        out = [kv for k, vs in group_values(out) for kv in combiner(k, vs)]
        proc.compute(len(out) * RECORD_COST)
    # shuffle: hash keys onto ranks, exchange with MPI_Alltoall
    cut, offsets = HashPartitioner(comm.size).buckets(out)
    bounds = offsets.tolist()
    proc.compute(len(out) * RECORD_COST)
    mine = comm.alltoall([cut[a:b] for a, b in zip(bounds, bounds[1:])])
    # reduce phase (local)
    merged = [kv for part in mine for kv in part]
    result: list[tuple[Any, Any]] = []
    for k, vs in group_values(merged):
        result.extend(reducer(k, vs))
    proc.compute(len(merged) * RECORD_COST)
    return result


def run_mpi_mapreduce(
    cluster: Cluster,
    fs: FileSystem,
    path: str,
    mapper: Mapper,
    reducer: Reducer,
    *,
    nprocs: int,
    procs_per_node: int,
    combiner: Combiner | None = None,
) -> tuple[list[tuple[Any, Any]], float]:
    """Job-level driver: ``(output_pairs, elapsed_seconds)``.

    Each rank reads a contiguous split of ``path`` (record-aligned), then
    runs the collective :func:`mapreduce`; rank 0 gathers the output.
    Comparable head-to-head with :func:`repro.mapreduce.run_job` — same
    input conventions, same output shape — which is exactly the comparison
    the related work left open.
    """

    def job(comm) -> tuple[list | None, float]:
        size = fs.size(path)
        chunk = -(-size // comm.size)
        comm.barrier()
        t0 = comm.wtime()
        proc = current_process()
        records = proc.run_steps(read_split_records(
            fs, proc, path,
            comm.rank * chunk, min(size, (comm.rank + 1) * chunk)))
        local = mapreduce(comm, records, mapper, reducer, combiner)
        gathered = comm.gather(local, root=0)
        comm.barrier()
        elapsed = comm.wtime() - t0
        if comm.rank != 0:
            return None, elapsed
        return [kv for part in gathered for kv in part], elapsed

    res: MPIResult = mpi_run(cluster, job, nprocs,
                             procs_per_node=procs_per_node)
    output = res.returns[0][0]
    elapsed = max(r[1] for r in res.returns)
    return output, elapsed
