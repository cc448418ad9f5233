"""Per-executor block manager: StorageLevel, memory budget, LRU eviction.

Models what ``rdd.persist(...)`` buys (and costs): cached partitions live in
executor memory up to a budget; under pressure, the least-recently-used
block is spilled to the node's local SSD (MEMORY_AND_DISK) or dropped
(MEMORY_ONLY).  Disk-resident blocks are re-read through the storage model,
so caching behaviour has honest time costs — the machinery behind the Fig 6
persist effect and the "spill them to disk if there is not enough RAM"
behaviour of Section III-C.
"""

from __future__ import annotations

import enum
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any

from repro.cluster.node import Node
from repro.costs import SoftwareCosts
from repro.sim.process import SimProcess, Steps


class StorageLevel(enum.Enum):
    """The persist levels the paper's PageRank variants use."""

    MEMORY_ONLY = "memory_only"
    MEMORY_AND_DISK = "memory_and_disk"
    DISK_ONLY = "disk_only"


@dataclass
class _Block:
    records: list
    nbytes: int


class BlockManager:
    """One executor's cache of materialised RDD partitions.

    ``block_id`` is ``(rdd_id, partition_index)``.  All sizes are the
    estimated serialised sizes (see :func:`repro.spark.shuffle.estimate_nbytes`).
    """

    def __init__(self, executor_id: int, node: Node, memory_budget: int,
                 costs: SoftwareCosts) -> None:
        self.executor_id = executor_id
        self.node = node
        self.memory_budget = memory_budget
        self.costs = costs
        self._mem: OrderedDict[tuple, _Block] = OrderedDict()
        self._disk: dict[tuple, _Block] = {}
        self.mem_used = 0

    # -- write -------------------------------------------------------------------

    def put(self, proc: SimProcess, block_id: tuple, records: list, nbytes: int,
            level: StorageLevel) -> None:
        """Cache a block under ``level``; may evict older blocks."""
        proc.run_steps(self.put_steps(proc, block_id, records, nbytes, level))

    def put_steps(self, proc: SimProcess, block_id: tuple, records: list,
                  nbytes: int, level: StorageLevel) -> Steps[None]:
        """Step form of :meth:`put` (see ``SimProcess.run_steps``)."""
        self.node.trace.access(
            proc, "write", f"spark.bm{self.executor_id}.block{block_id}")
        proc.compute(self.costs.spark_cache_block_overhead)
        if level is StorageLevel.DISK_ONLY:
            yield from self._write_disk_steps(proc, block_id, records, nbytes)
            return
        # make room in memory
        while self.mem_used + nbytes > self.memory_budget and self._mem:
            old_id, old = self._mem.popitem(last=False)  # LRU
            self.mem_used -= old.nbytes
            self.node.trace.add("spark.storage.evict", self.executor_id)
            if level is StorageLevel.MEMORY_AND_DISK:
                yield from self._write_disk_steps(proc, old_id, old.records,
                                                  old.nbytes)
        if nbytes > self.memory_budget:
            # block alone exceeds the budget: straight to disk (or drop)
            if level is StorageLevel.MEMORY_AND_DISK:
                yield from self._write_disk_steps(proc, block_id, records,
                                                  nbytes)
            return
        self._mem[block_id] = _Block(records, nbytes)
        self.mem_used += nbytes

    def _write_disk_steps(self, proc: SimProcess, block_id: tuple,
                          records: list, nbytes: int) -> Steps[None]:
        self.node.trace.add("spark.storage.spill", self.executor_id)
        proc.compute_bytes(nbytes, self.costs.ser_rate_jvm)
        yield from self.node.ssd.write_steps(proc, nbytes,
                                             label=f"bm[{self.executor_id}]")
        self._disk[block_id] = _Block(records, nbytes)

    # -- read ----------------------------------------------------------------------

    def get(self, proc: SimProcess, block_id: tuple) -> list | None:
        """Fetch a cached block, charging disk+deser if it was spilled."""
        return proc.run_steps(self.get_steps(proc, block_id))

    def get_steps(self, proc: SimProcess,
                  block_id: tuple) -> Steps[list | None]:
        """Step form of :meth:`get` (see ``SimProcess.run_steps``)."""
        self.node.trace.access(
            proc, "read", f"spark.bm{self.executor_id}.block{block_id}")
        blk = self._mem.get(block_id)
        if blk is not None:
            self._mem.move_to_end(block_id)  # refresh LRU position
            return blk.records
        blk = self._disk.get(block_id)
        if blk is not None:
            yield from self.node.ssd.read_steps(
                proc, blk.nbytes, label=f"bm[{self.executor_id}]")
            proc.compute_bytes(blk.nbytes, self.costs.ser_rate_jvm)
            return blk.records
        return None

    def drop_all(self) -> None:
        """Lose every block (executor failure)."""
        self._mem.clear()
        self._disk.clear()
        self.mem_used = 0

    @property
    def blocks_in_memory(self) -> int:
        return len(self._mem)

    @property
    def blocks_on_disk(self) -> int:
        return len(self._disk)
