"""Filesystem contract shared by local scratch, NFS and HDFS.

Logical vs physical
-------------------
Every :class:`SimFile` has a *physical* payload (real bytes, supplied by a
:class:`~repro.fs.content.ContentProvider`) and an integer ``scale``; its
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
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Iterable

from repro.errors import FileExistsInSim, FileNotFoundInSim
from repro.fs.content import ContentProvider
from repro.sim.process import SimProcess, Steps


class SimFile:
    """Metadata + payload of one simulated file."""

    def __init__(self, path: str, content: ContentProvider, scale: int = 1) -> None:
        if scale < 1:
            raise ValueError(f"scale must be >= 1, got {scale}")
        self.path = path
        self.content = content
        self.scale = int(scale)
        #: cached product: ContentProvider sizes are fixed after
        #: construction and nothing reassigns ``content``/``scale``
        #: (writes extend the filesystems' block maps, not the payload),
        #: so the value cannot go stale.  This sits on the per-block read
        #: hot path of every filesystem.
        self.logical_size = self.content.size * self.scale

    @property
    def physical_size(self) -> int:
        return self.content.size

    def physical_range(self, offset: int, length: int) -> tuple[int, int]:
        """Map a logical byte range to the physical sample range."""
        if offset < 0 or length < 0:
            raise ValueError(f"invalid range: offset={offset} length={length}")
        start = min(offset, self.logical_size) // self.scale
        end = min(offset + length, self.logical_size) // self.scale
        return start, max(start, end)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<SimFile {self.path!r} physical={self.physical_size}"
            f" scale={self.scale}>"
        )


class FileSystem(ABC):
    """Common interface of the three simulated filesystems.

    Creation (:meth:`create`) is a host-side setup operation and is never
    timed; the timed surface is :meth:`read` and :meth:`write`, which must be
    called from within a simulated process.  Each has one body, its step
    form (:meth:`read_steps`, :meth:`write_steps`), which runtime code
    composes with ``yield from``; the blocking name is
    ``proc.run_steps(...)`` over it, kept in each filesystem's own class.
    """

    #: URL-ish scheme used in traces and experiment configs
    scheme: str = "file"

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
    def create(self, path: str, content: ContentProvider, *, scale: int = 1) -> SimFile:
        """Install a file without charging simulated time (experiment setup)."""

    @abstractmethod
    def delete(self, path: str) -> None:
        """Remove a file (host-side)."""

    # -- timed I/O ----------------------------------------------------------------

    @abstractmethod
    def read(self, proc: SimProcess, path: str, offset: int, length: int) -> bytes:
        """Timed read of logical range ``[offset, offset+length)``.

        Blocks ``proc`` for the modelled I/O duration and returns the
        physical sample bytes: ``proc.run_steps(self.read_steps(...))``.
        """

    @abstractmethod
    def read_steps(self, proc: SimProcess, path: str, offset: int,
                   length: int) -> Steps[bytes]:
        """Step form of :meth:`read` (see ``SimProcess.run_steps``).

        Charges the same time in the same order as the blocking read, and
        records the same race-checker accesses (``trace.access``), so a
        reader written as steps is ordered like any other.
        """

    @abstractmethod
    def write(self, proc: SimProcess, path: str, nbytes: int) -> None:
        """Timed write creating/extending ``path`` by ``nbytes`` logical bytes.

        Output files carry no payload (benchmark outputs are verified at the
        application level); only the cost matters.  Blocks ``proc``:
        ``proc.run_steps(self.write_steps(...))``.
        """

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
