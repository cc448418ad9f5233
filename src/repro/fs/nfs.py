"""Shared NFS filesystem — the traditional HPC storage model (Section IV).

A single namespace visible from every node; all traffic funnels through the
cluster's NFS front-end device, so concurrent readers on *different* nodes
still contend — the storage-contention problem Section III-C highlights for
embarrassingly parallel readers.
"""

from __future__ import annotations

from typing import Iterable

from repro.cluster.cluster import Cluster
from repro.cluster.storage import StorageDevice
from repro.fs.base import DeviceFileSystem, SimFile
from repro.fs.content import BytesContent
from repro.sim.process import SimProcess


class NFSFileSystem(DeviceFileSystem):
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

    def create(self, path: str, content: BytesContent, *, scale: int = 1) -> SimFile:
        return self._install(self._files, path, content, scale)

    def delete(self, path: str) -> None:
        self._check_have(self._files, path)
        del self._files[path]

    def _locate(self, proc: SimProcess,
                path: str) -> tuple[dict[str, SimFile], StorageDevice, str]:
        return self._files, self.cluster.nfs_device, f"nfs:{path}"
