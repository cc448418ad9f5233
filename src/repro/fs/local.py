"""Node-local scratch filesystem (the Comet 320 GB SSD per node).

One :class:`LocalFS` instance manages a *separate namespace per node* —
a file exists only on the nodes it was created (or replicated) on, and a
process can only access files on its own node, exactly like ``/scratch`` on
a real cluster.  The paper's MPI file-read experiments replicate the input
to every node's scratch first; :meth:`LocalFS.create_replicated` models that
setup step.
"""

from __future__ import annotations

from typing import Iterable

from repro.cluster.cluster import Cluster
from repro.errors import FileNotFoundInSim
from repro.fs.base import FileSystem, SimFile
from repro.fs.content import ContentProvider
from repro.sim.process import SimProcess, Steps


class LocalFS(FileSystem):
    """Per-node scratch space backed by each node's SSD device."""

    scheme = "local"

    def __init__(self, cluster: Cluster) -> None:
        self.cluster = cluster
        self._files: list[dict[str, SimFile]] = [
            {} for _ in range(len(cluster.nodes))
        ]
        cluster.filesystems[self.scheme] = self

    # -- namespace ---------------------------------------------------------------

    def lookup(self, path: str, node_id: int | None = None) -> SimFile:
        """Find ``path``; searches all nodes unless ``node_id`` is given."""
        if node_id is not None:
            return self._check_have(self._files[node_id], path)
        for files in self._files:
            if path in files:
                return files[path]
        raise FileNotFoundInSim(f"local://{path} not found on any node")

    def nodes_with(self, path: str) -> list[int]:
        """Node ids holding ``path``."""
        return [i for i, files in enumerate(self._files) if path in files]

    def paths(self) -> Iterable[str]:
        seen = {}
        for files in self._files:
            seen.update(files)
        return list(seen)

    # -- host-side setup -----------------------------------------------------------

    def create(
        self,
        path: str,
        content: ContentProvider,
        *,
        scale: int = 1,
        node_id: int = 0,
    ) -> SimFile:
        """Install a file on one node's scratch."""
        self._check_new(self._files[node_id], path)
        f = SimFile(path, content, scale)
        self._files[node_id][path] = f
        return f

    def create_replicated(
        self, path: str, content: ContentProvider, *, scale: int = 1
    ) -> SimFile:
        """Install identical copies of a file on every node (paper's setup
        for the MPI parallel-read and AnswersCount runs)."""
        f = SimFile(path, content, scale)
        for files in self._files:
            self._check_new(files, path)
            files[path] = f
        return f

    def delete(self, path: str) -> None:
        found = False
        for files in self._files:
            if files.pop(path, None) is not None:
                found = True
        if not found:
            raise FileNotFoundInSim(f"local://{path} not found")

    # -- timed I/O --------------------------------------------------------------------

    def read(self, proc: SimProcess, path: str, offset: int, length: int) -> bytes:
        return proc.run_steps(self.read_steps(proc, path, offset, length))

    def read_steps(self, proc: SimProcess, path: str, offset: int,
                   length: int) -> Steps[bytes]:
        node = self.cluster.node_of(proc)
        f = self._check_have(self._files[node.id], path)
        start, end = f.physical_range(offset, length)
        nbytes = min(offset + length, f.logical_size) - min(offset, f.logical_size)
        if nbytes > 0:
            self.cluster.trace.access(
                proc, "read", f"local:{path}@node{node.id}",
                start=min(offset, f.logical_size),
                stop=min(offset + length, f.logical_size))
            yield from node.ssd.read_steps(proc, nbytes, label=f"local:{path}")
        return f.content.read(start, end - start)

    def write(self, proc: SimProcess, path: str, nbytes: int) -> None:
        proc.run_steps(self.write_steps(proc, path, nbytes))

    def write_steps(self, proc: SimProcess, path: str,
                    nbytes: int) -> Steps[None]:
        node = self.cluster.node_of(proc)
        files = self._files[node.id]
        if path not in files:
            from repro.fs.content import BytesContent

            files[path] = SimFile(path, BytesContent(b""), 1)
        # Appends don't track offsets, so the access covers the whole file:
        # any concurrent touch of the same node-local path is a real race.
        self.cluster.trace.access(proc, "write", f"local:{path}@node{node.id}")
        yield from node.ssd.write_steps(proc, nbytes, label=f"local:{path}")
