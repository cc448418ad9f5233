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
from repro.cluster.storage import StorageDevice
from repro.errors import FileNotFoundInSim
from repro.fs.base import DeviceFileSystem, SimFile
from repro.fs.content import BytesContent
from repro.sim.process import SimProcess


class LocalFS(DeviceFileSystem):
    """Per-node scratch space backed by each node's SSD device."""

    scheme = "local"

    def __init__(self, cluster: Cluster) -> None:
        self.cluster = cluster
        self._files: list[dict[str, SimFile]] = [
            {} for _ in range(len(cluster.nodes))
        ]
        cluster.filesystems[self.scheme] = self

    # -- namespace ---------------------------------------------------------------

    def lookup(self, path: str) -> SimFile:
        """Find ``path`` on any node."""
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
        content: BytesContent,
        *,
        scale: int = 1,
        node_id: int = 0,
    ) -> SimFile:
        """Install a file on one node's scratch."""
        return self._install(self._files[node_id], path, content, scale)

    def create_replicated(
        self, path: str, content: BytesContent, *, scale: int = 1
    ) -> SimFile:
        """Install identical copies of a file on every node (paper's setup
        for the MPI parallel-read and AnswersCount runs)."""
        for files in self._files:  # all or nothing: check every node first
            self._check_new(files, path)
        f = SimFile(path, content, scale)
        for files in self._files:
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

    def _locate(self, proc: SimProcess,
                path: str) -> tuple[dict[str, SimFile], StorageDevice, str]:
        node = self.cluster.node_of(proc)
        return self._files[node.id], node.ssd, f"local:{path}@node{node.id}"
