"""Filesystem contract shared by local scratch, NFS and HDFS.

Logical vs physical
-------------------
Every :class:`SimFile` has a *physical* payload (real bytes, a
:class:`~repro.fs.content.BytesContent`) and an integer ``scale``; its
*logical* size is ``physical_size * scale``.  All offsets/lengths in the
timed I/O API are **logical**: they drive the storage and network cost
models.  The bytes returned are the corresponding *physical* sample
(``[offset // scale, (offset + length) // scale)``), so computation operates
on real data while the clock advances as if the file were ``scale`` times
larger.  ``scale == 1`` (the default) makes logical and physical identical.

Because the logical->physical mapping floors at boundaries, a tiling of the
logical range maps to a tiling of the physical payload: parallel readers
that partition the logical file collectively see every physical byte exactly
once.  Tests rely on this invariant.

Timed I/O
---------
A filesystem writes two step bodies, ``read_steps`` and ``write_steps``,
which runtime code composes with ``yield from``; the blocking ``read`` and
``write`` are :class:`FileSystem`'s, ``proc.run_steps`` over them.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Iterable

from repro.errors import FileArgumentError, FileExistsInSim, FileNotFoundInSim
from repro.fs.content import BytesContent
from repro.sim.process import SimProcess, Steps

if TYPE_CHECKING:
    from repro.cluster.storage import StorageDevice


class SimFile:
    """Metadata + payload of one simulated file."""

    def __init__(self, path: str, content: BytesContent, scale: int = 1) -> None:
        if scale < 1:
            raise FileArgumentError(f"scale must be >= 1, got {scale}")
        self.path = path
        self.content = content
        self.scale = int(scale)
        #: the payload's logical size plus every timed write's ``nbytes``
        #: (a filesystem's ``write_steps`` grows it when the write is
        #: done).  A written range has no payload: it reads as no bytes
        #: but costs its logical length, like any other range.
        self.logical_size = self.content.size * self.scale

    @property
    def physical_size(self) -> int:
        return self.content.size

    def logical_range(self, offset: int, length: int) -> tuple[int, int]:
        """Clamp logical ``[offset, offset + length)`` to the file."""
        if offset < 0 or length < 0:
            raise FileArgumentError(
                f"invalid range: offset={offset} length={length}")
        size = self.logical_size
        return min(offset, size), min(offset + length, size)

    def physical_range(self, offset: int, length: int) -> tuple[int, int]:
        """Map a logical byte range to the physical sample range."""
        lo, hi = self.logical_range(offset, length)
        return lo // self.scale, hi // self.scale

    def sample(self, lo: int, hi: int) -> bytes:
        """Physical bytes behind a clamped logical range ``[lo, hi)``."""
        start = lo // self.scale
        return self.content.read(start, hi // self.scale - start)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<SimFile {self.path!r} physical={self.physical_size}"
            f" scale={self.scale}>"
        )


class FileSystem(ABC):
    """Common interface of the three simulated filesystems.

    Creation (:meth:`create`) is a host-side setup operation and is never
    timed.  A subclass writes the timed step bodies; the blocking pair
    below runs them and must be called from within a simulated process.
    """

    #: URL-ish scheme used in traces and experiment configs
    scheme: str = "file"

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        # Every filesystem holds the blocking pair in its own namespace, so
        # wrapping ``LocalFS.read`` (as benchmarks/perf/ledger.py does, and
        # restores from ``vars(LocalFS)``) touches that filesystem only.
        for name in ("read", "write"):
            if name not in vars(cls):
                setattr(cls, name, getattr(cls, name))

    # -- namespace -------------------------------------------------------------

    @abstractmethod
    def lookup(self, path: str) -> SimFile:
        """Return the file's metadata or raise :class:`FileNotFoundInSim`."""

    @abstractmethod
    def paths(self) -> Iterable[str]:
        """All paths currently present."""

    def exists(self, path: str) -> bool:
        try:
            self.lookup(path)
            return True
        except FileNotFoundInSim:
            return False

    def size(self, path: str) -> int:
        """Logical size of ``path`` in bytes."""
        return self.lookup(path).logical_size

    # -- host-side setup ---------------------------------------------------------

    @abstractmethod
    def create(self, path: str, content: BytesContent, *, scale: int = 1) -> SimFile:
        """Install a file without charging simulated time (experiment setup)."""

    @abstractmethod
    def delete(self, path: str) -> None:
        """Remove a file (host-side)."""

    # -- timed I/O ----------------------------------------------------------------

    def read(self, proc: SimProcess, path: str, offset: int, length: int) -> bytes:
        """Timed read of logical range ``[offset, offset+length)``.

        Blocks ``proc`` for the modelled I/O duration and returns the
        physical sample bytes.
        """
        return proc.run_steps(self.read_steps(proc, path, offset, length))

    @abstractmethod
    def read_steps(self, proc: SimProcess, path: str, offset: int,
                   length: int) -> Steps[bytes]:
        """Step form of :meth:`read` (see ``SimProcess.run_steps``).

        Charges the I/O time and records the race-checker accesses
        (``trace.access``), so a reader written as steps is ordered like
        any other.
        """

    def write(self, proc: SimProcess, path: str, nbytes: int) -> None:
        """Timed write creating/extending ``path`` by ``nbytes`` logical bytes.

        Output files carry no payload (benchmark outputs are verified at the
        application level); only the cost matters.  Blocks ``proc``.
        """
        proc.run_steps(self.write_steps(proc, path, nbytes))

    @abstractmethod
    def write_steps(self, proc: SimProcess, path: str,
                    nbytes: int) -> Steps[None]:
        """Step form of :meth:`write` (see ``SimProcess.run_steps``)."""

    # -- helpers -------------------------------------------------------------------

    def _check_new(self, known: dict, path: str) -> None:
        if path in known:
            raise FileExistsInSim(f"{self.scheme}://{path} already exists")

    def _check_have(self, known: dict, path: str):
        try:
            return known[path]
        except KeyError:
            raise FileNotFoundInSim(f"{self.scheme}://{path} not found") from None

    def _install(self, files: dict[str, SimFile], path: str,
                 content: BytesContent, scale: int) -> SimFile:
        self._check_new(files, path)
        f = files[path] = SimFile(path, content, scale)
        return f

    def _touch(self, files: dict[str, SimFile], path: str) -> SimFile:
        """``path`` in ``files``, created empty by its first write."""
        f = files.get(path)
        if f is None:
            f = files[path] = SimFile(path, BytesContent(b""))
        return f


class DeviceFileSystem(FileSystem):
    """A filesystem whose request is one storage-device transfer: node-local
    scratch (each node's SSD) and NFS (the cluster's front-end device).
    A subclass says where a path lives (:meth:`_locate`)."""

    @abstractmethod
    def _locate(self, proc: SimProcess,
                path: str) -> tuple[dict[str, SimFile], StorageDevice, str]:
        """``(namespace, device, trace location)`` of ``path`` for ``proc``."""

    def read_steps(self, proc: SimProcess, path: str, offset: int,
                   length: int) -> Steps[bytes]:
        files, device, where = self._locate(proc, path)
        f = self._check_have(files, path)
        lo, hi = f.logical_range(offset, length)
        if hi > lo:
            self.cluster.trace.access(proc, "read", where, start=lo, stop=hi)
            yield from device.read_steps(proc, hi - lo,
                                         label=f"{self.scheme}:{path}")
        return f.sample(lo, hi)

    def write_steps(self, proc: SimProcess, path: str,
                    nbytes: int) -> Steps[None]:
        files, device, where = self._locate(proc, path)
        f = self._touch(files, path)
        # Appends don't track offsets, so the access covers the whole file:
        # any concurrent touch of the same path is a real race.
        self.cluster.trace.access(proc, "write", where)
        yield from device.write_steps(proc, nbytes,
                                      label=f"{self.scheme}:{path}")
        f.logical_size += nbytes
