"""Shared NFS filesystem — the traditional HPC storage model (Section IV).

A single namespace visible from every node; all traffic funnels through the
cluster's NFS front-end device, so concurrent readers on *different* nodes
still contend — the storage-contention problem Section III-C highlights for
embarrassingly parallel readers.
"""

from __future__ import annotations

from typing import Iterable

from repro.cluster.cluster import Cluster
from repro.fs.base import FileSystem, SimFile
from repro.fs.content import BytesContent, ContentProvider
from repro.sim.process import SimProcess, Steps


class NFSFileSystem(FileSystem):
    """One shared namespace backed by the cluster's NFS device."""

    scheme = "nfs"

    def __init__(self, cluster: Cluster) -> None:
        self.cluster = cluster
        self._files: dict[str, SimFile] = {}
        cluster.filesystems[self.scheme] = self

    def lookup(self, path: str) -> SimFile:
        return self._check_have(self._files, path)

    def paths(self) -> Iterable[str]:
        return list(self._files)

    def create(self, path: str, content: ContentProvider, *, scale: int = 1) -> SimFile:
        self._check_new(self._files, path)
        f = SimFile(path, content, scale)
        self._files[path] = f
        return f

    def delete(self, path: str) -> None:
        self._check_have(self._files, path)
        del self._files[path]

    def read(self, proc: SimProcess, path: str, offset: int, length: int) -> bytes:
        return proc.run_steps(self.read_steps(proc, path, offset, length))

    def read_steps(self, proc: SimProcess, path: str, offset: int,
                   length: int) -> Steps[bytes]:
        f = self._check_have(self._files, path)
        start, end = f.physical_range(offset, length)
        nbytes = min(offset + length, f.logical_size) - min(offset, f.logical_size)
        if nbytes > 0:
            self.cluster.trace.access(
                proc, "read", f"nfs:{path}",
                start=min(offset, f.logical_size),
                stop=min(offset + length, f.logical_size))
            yield from self.cluster.nfs_device.read_steps(
                proc, nbytes, label=f"nfs:{path}")
        return f.content.read(start, end - start)

    def write(self, proc: SimProcess, path: str, nbytes: int) -> None:
        proc.run_steps(self.write_steps(proc, path, nbytes))

    def write_steps(self, proc: SimProcess, path: str,
                    nbytes: int) -> Steps[None]:
        if path not in self._files:
            self._files[path] = SimFile(path, BytesContent(b""), 1)
        # Appends don't track offsets, so the access covers the whole file.
        self.cluster.trace.access(proc, "write", f"nfs:{path}")
        yield from self.cluster.nfs_device.write_steps(
            proc, nbytes, label=f"nfs:{path}")
