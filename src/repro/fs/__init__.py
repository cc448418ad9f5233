"""Simulated filesystems: node-local scratch, shared NFS, and HDFS.

Files separate *logical* size (what timing is charged for) from *physical*
payload (what computations actually see) via an integer ``scale`` factor, so
an "80 GB" benchmark input can carry megabytes of real, deterministic text.
See :mod:`repro.fs.base` for the contract.
"""

from repro.fs.base import FileSystem, SimFile
from repro.fs.content import BytesContent, LineContent
from repro.fs.hdfs import HDFS, Block
from repro.fs.local import LocalFS
from repro.fs.nfs import NFSFileSystem

__all__ = [
    "FileSystem",
    "SimFile",
    "BytesContent",
    "LineContent",
    "LocalFS",
    "NFSFileSystem",
    "HDFS",
    "Block",
]
