"""AnswersCount in OpenMP: one node, worksharing over file chunks.

The paper could only run OpenMP at 8 and 16 cores "since it can only run
on a single node" (Section V-C) — the single-node restriction is enforced
by the runtime itself.
"""

from __future__ import annotations

from repro.cluster.cluster import Cluster
from repro.fs.base import FileSystem
from repro.fs.records import read_split_records
from repro.openmp import omp_run
from repro.units import MiB
from repro.workloads.stackexchange import POST_ANSWER, POST_QUESTION, parse_post

#: bytes each worksharing iteration covers (a comfortable streaming chunk)
CHUNK = 64 * MiB


def openmp_answers_count(
    cluster: Cluster,
    fs: FileSystem,
    path: str,
    num_threads: int,
    *,
    node_id: int = 0,
) -> tuple[float, float]:
    """``(elapsed_seconds, average_answers)`` on one node's cores."""
    size = fs.size(path)
    scale = fs.lookup(path).scale
    n_chunks = max(1, -(-size // CHUNK))

    def region(omp) -> tuple[float, float]:
        from repro.sim import current_process

        proc = current_process()
        t0 = omp.wtime()
        questions = 0
        answers = 0
        for i in omp.for_range(n_chunks, schedule="dynamic"):
            start = i * CHUNK
            records = proc.run_steps(read_split_records(
                fs, proc, path, start, min(size, start + CHUNK)))
            # native-rate text scan of the chunk (logical bytes)
            omp.compute_bytes(len(records.buffer) * scale,
                              cluster.machine.costs.parse_rate_native)
            for line in records:
                _pid, ptype, _parent = parse_post(line)
                if ptype == POST_QUESTION:
                    questions += 1
                elif ptype == POST_ANSWER:
                    answers += 1
        total_q = omp.reduce(questions)
        total_a = omp.reduce(answers)
        elapsed = omp.wtime() - t0
        return elapsed, (total_a / total_q if total_q else 0.0)

    # <boilerplate>
    res = omp_run(cluster, region, num_threads, node_id=node_id)
    elapsed = max(r[0] for r in res.returns)
    return elapsed, res.returns[0][1]
    # </boilerplate>
