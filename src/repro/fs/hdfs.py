"""HDFS: blocks, replication, locality and transparent datanode failure.

This models the parts of HDFS the paper's experiments exercise:

* files are split into fixed-size **blocks** (128 MB by default) distributed
  over datanodes with a **replication factor** (3 by default; the paper's
  Section V-B2 raises it to the executor count to fix locality);
* a reader served by a **local replica** pays only its node's SSD; a remote
  replica adds a network transfer over the Hadoop fabric (IPoIB on Comet);
* **datanode failure is transparent**: reads fall over to surviving replicas
  (Section VI-D's "failure at HDFS level ... will not propagate to the
  application level"); only when every replica of a block is dead does
  :class:`~repro.errors.BlockUnavailableError` surface;
* block locations are exposed so Spark/MapReduce schedulers can place tasks
  near their data.

Placement policy: replica 0 of block *i* lands on datanode ``i % N`` and
further replicas on the following distinct nodes — deterministic, which the
paper's locality experiment needs (it manufactures *non*-local blocks by
restricting executors to a subset of nodes).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Iterable

from repro.cluster.cluster import Cluster
from repro.costs import HDFS_CLIENT_RATE, HDFS_NAMENODE_LOOKUP
from repro.errors import BlockUnavailableError, ConfigurationError, HDFSError
from repro.fs.base import FileSystem, SimFile
from repro.fs.content import BytesContent
from repro.sim.process import SimProcess, Steps
from repro.units import MB

DEFAULT_BLOCK_SIZE = 128 * MB


@dataclass
class Block:
    """One HDFS block: a logical byte range plus its replica set."""

    index: int
    start: int              # logical offset of first byte
    end: int                # logical offset one past last byte
    replicas: list[int] = field(default_factory=list)
    label: str = ""         # "hdfs:<path>#<index>", names its transfers

    @property
    def size(self) -> int:
        return self.end - self.start


class HDFS(FileSystem):
    """A simulated HDFS instance bound to one cluster.

    Parameters
    ----------
    cluster:
        Hardware to place datanodes on (one datanode per cluster node).
    block_size:
        Logical block size in bytes.
    replication:
        Replica count of every block (clamped to the node count).

    Remote block fetches travel over the machine's Big Data fabric
    (``cluster.machine.bigdata_fabric`` — IPoIB on Comet, matching default
    Spark/Hadoop).
    """

    scheme = "hdfs"

    def __init__(
        self,
        cluster: Cluster,
        *,
        block_size: int = DEFAULT_BLOCK_SIZE,
        replication: int = 3,
    ) -> None:
        if block_size < 1:
            raise ConfigurationError("block_size must be >= 1")
        if replication < 1:
            raise ConfigurationError("replication must be >= 1")
        self.cluster = cluster
        self.block_size = block_size
        self.replication = replication
        self.fabric = cluster.machine.bigdata_fabric
        self._files: dict[str, SimFile] = {}
        self._blocks: dict[str, list[Block]] = {}
        #: ``Block.end`` of every block per file, the key ``read`` bisects
        self._ends: dict[str, list[int]] = {}
        self._dead: set[int] = set()
        cluster.filesystems[self.scheme] = self

    # -- namespace ------------------------------------------------------------------

    def lookup(self, path: str) -> SimFile:
        return self._check_have(self._files, path)

    def paths(self) -> Iterable[str]:
        return list(self._files)

    def blocks(self, path: str) -> list[Block]:
        """Block list of a file (namenode metadata; host-side)."""
        return self._check_have(self._blocks, path)

    def block_locations(self, path: str) -> list[tuple[int, int, list[int]]]:
        """``(start, end, alive_replica_nodes)`` per block — the locality
        information schedulers consume."""
        return [(b.start, b.end, self._alive(b.replicas))
                for b in self.blocks(path)]

    def _alive(self, replicas: list[int]) -> list[int]:
        """The datanodes of ``replicas`` that are not dead, in order."""
        return [r for r in replicas if r not in self._dead]

    # -- host-side setup ----------------------------------------------------------------

    def create(self, path: str, content: BytesContent, *, scale: int = 1) -> SimFile:
        """Install a file (untimed) with blocks placed by the default policy."""
        f = self._install(self._files, path, content, scale)
        blocks = self._place(path, f.logical_size)
        self._blocks[path] = blocks
        self._ends[path] = [b.end for b in blocks]
        return f

    def _place(self, path: str, logical_size: int) -> list[Block]:
        """Blocks tiling the file (one empty block for an empty file)."""
        n = len(self.cluster.nodes)
        repl = min(self.replication, n)
        starts = range(0, max(logical_size, 1), self.block_size)
        return [Block(i, start, min(start + self.block_size, logical_size),
                      [(i + j) % n for j in range(repl)], f"hdfs:{path}#{i}")
                for i, start in enumerate(starts)]

    def delete(self, path: str) -> None:
        self._check_have(self._files, path)
        del self._files[path]
        del self._blocks[path]
        del self._ends[path]

    # -- failure injection -----------------------------------------------------------------

    def kill_datanode(self, node_id: int) -> None:
        """Mark a datanode dead; its replicas stop serving immediately."""
        if not 0 <= node_id < len(self.cluster.nodes):
            raise ConfigurationError(f"no such node: {node_id}")
        self._dead.add(node_id)

    def restart_datanode(self, node_id: int) -> None:
        """Bring a datanode back (its replicas are assumed intact)."""
        self._dead.discard(node_id)

    @property
    def dead_datanodes(self) -> frozenset[int]:
        return frozenset(self._dead)

    def repair(self, proc: SimProcess, path: str) -> int:
        """Re-replicate under-replicated blocks (what the namenode does in
        the background after a datanode death).  Timed: each new replica is
        read from a survivor and streamed to a fresh node.  Returns the
        number of replicas created; raises if a block has no live source.
        """
        n = len(self.cluster.nodes)
        created = 0
        for b in self.under_replicated(path):
            alive = self._alive(b.replicas)
            if not alive:
                raise BlockUnavailableError(
                    f"block {b.index} of {path!r} has no live replica to "
                    "repair from")
            want = min(self.replication, n - len(self._dead))
            candidates = [i for i in range(n)
                          if i not in self._dead and i not in alive]
            while len(alive) < want and candidates:
                src = alive[b.index % len(alive)]
                dst = candidates.pop(0)
                self.cluster.nodes[src].ssd.read(proc, b.size,
                                                 label=f"repair:{path}")
                self.cluster.network.transmit(
                    proc, self.fabric, src, dst, b.size,
                    label=f"repair:{path}#{b.index}")
                self.cluster.nodes[dst].ssd.write(proc, b.size,
                                                  label=f"repair:{path}")
                b.replicas.append(dst)
                alive.append(dst)
                created += 1
        return created

    def under_replicated(self, path: str) -> list[Block]:
        """Blocks whose alive replica count is below the target (fsck).

        The target is the filesystem's replication factor, capped by the
        number of live datanodes (you cannot place two replicas on one
        node).
        """
        target = min(self.replication,
                     len(self.cluster.nodes) - len(self._dead))
        return [
            b
            for b in self.blocks(path)
            if len(self._alive(b.replicas)) < target
        ]

    # -- timed I/O -------------------------------------------------------------------------

    def read_steps(self, proc: SimProcess, path: str, offset: int,
                   length: int) -> Steps[bytes]:
        """Read a logical range, block by block, preferring local replicas."""
        f = self._check_have(self._files, path)
        lo, hi = f.logical_range(offset, length)
        node = self.cluster.node_of(proc)
        blocks = self._blocks[path]
        trace = self.cluster.trace
        # Blocks are contiguous and sorted; binary-search the first one
        # overlapping [lo, hi) instead of scanning the whole list.  Skipped
        # blocks would have contributed nothing (take <= 0), so the charge
        # sequence is unchanged.
        first = bisect_right(self._ends[path], lo)
        for b in blocks[first:]:
            take = min(hi, b.end) - max(lo, b.start)
            if take <= 0:
                break
            proc.compute(HDFS_NAMENODE_LOOKUP)
            src = self._pick_replica(b, node.id)
            if trace.hb:
                trace.access(proc, "read", f"hdfs:{path}",
                             start=max(lo, b.start), stop=min(hi, b.end))
            yield from self.cluster.nodes[src].ssd.read_steps(
                proc, take, label=b.label)
            proc.compute_bytes(take, HDFS_CLIENT_RATE)
            if src != node.id:
                yield from self.cluster.network.transmit_steps(
                    proc, self.fabric, src, node.id, take, label=b.label)
        return f.sample(lo, hi)

    def _pick_replica(self, block: Block, reader_node: int) -> int:
        alive = self._alive(block.replicas)
        if not alive:
            raise BlockUnavailableError(
                f"block {block.index} [{block.start}, {block.end}) has no live replica"
            )
        if reader_node in alive:
            return reader_node
        # Deterministic spread: hash-free rotation by block index.
        return alive[block.index % len(alive)]

    def write_steps(self, proc: SimProcess, path: str,
                    nbytes: int) -> Steps[None]:
        """Timed write with pipeline replication.

        The writer streams each block to the first replica's disk while the
        pipeline forwards to the remaining replicas; we charge the writer the
        local write plus one network hop per remote replica (the pipeline's
        serialisation point).
        """
        node = self.cluster.node_of(proc)
        f = self._touch(self._files, path)
        blocks = self._blocks.setdefault(path, [])
        ends = self._ends.setdefault(path, [])
        n = len(self.cluster.nodes)
        repl = min(self.replication, n)
        written = 0
        base = blocks[-1].end if blocks else 0
        while written < nbytes:
            take = min(self.block_size, nbytes - written)
            index = len(blocks)
            replicas = self._alive([(node.id + j) % n for j in range(repl)])
            if not replicas:
                raise HDFSError("no live datanodes to write to")
            self.cluster.trace.access(proc, "write", f"hdfs:{path}",
                                      start=base + written,
                                      stop=base + written + take)
            for r in replicas:
                if r == node.id:
                    yield from self.cluster.nodes[r].ssd.write_steps(
                        proc, take, label=f"hdfs:{path}")
                else:
                    yield from self.cluster.network.transmit_steps(
                        proc, self.fabric, node.id, r, take, label=f"hdfs:{path}"
                    )
            blocks.append(Block(index, base + written, base + written + take,
                                replicas, f"hdfs:{path}#{index}"))
            ends.append(base + written + take)
            written += take
        f.logical_size += nbytes
