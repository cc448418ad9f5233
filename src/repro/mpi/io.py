"""MPI-IO: collective file access — including its famous ``int`` limit.

Models the MPI-2 parallel I/O routines the paper's benchmarks use
(Section II-B / V-C).  The crucial reproduced artefact: *the per-process
count argument of* ``MPI_File_read_at_all`` *is a C* ``int``, so a chunk
larger than ``INT_MAX`` (2 GiB - 1) raises
:class:`~repro.errors.MPIIntOverflowError`.  This is why the paper's 80 GB
AnswersCount run "could not support this amount of data unless the number of
processes is greater than 40" — reproduced mechanically by the Fig 4
harness.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import MPIError, MPIIntOverflowError
from repro.fs.base import FileSystem
from repro.sim.engine import current_process
from repro.units import INT_MAX

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.mpi.comm import Communicator


class MPIFile:
    """A file handle opened collectively over a communicator.

    Parameters mirror ``MPI_File_open``: every rank of ``comm`` must call
    :meth:`open` (collectively) with the same path.  The underlying
    ``FileSystem`` may be node-local scratch (the paper replicates inputs to
    every node), NFS or HDFS — MPI itself is storage-agnostic.
    """

    def __init__(self, comm: "Communicator", fs: FileSystem, path: str) -> None:
        self.comm = comm
        self.fs = fs
        self.path = path
        self._open = True

    @classmethod
    def open(cls, comm: "Communicator", fs: FileSystem, path: str) -> "MPIFile":
        """Collective open: validates existence and synchronises ranks."""
        fs.lookup(path)  # raises FileNotFoundInSim on every rank identically
        comm.barrier()
        return cls(comm, fs, path)

    def size(self) -> int:
        """Logical file size in bytes (``MPI_File_get_size``)."""
        self._check_open()
        return self.fs.size(self.path)

    # -- reads ---------------------------------------------------------------------

    def read_at(self, offset: int, count: int) -> bytes:
        """Independent read at an explicit offset (``MPI_File_read_at``)."""
        self._check_open()
        _check_int(count)
        return self.fs.read(current_process(), self.path, offset, count)

    def read_at_all(self, offset: int, count: int) -> bytes:
        """Collective read at explicit offsets (``MPI_File_read_at_all``).

        All ranks must call; each passes its own offset/count.  ``count``
        must fit in a C ``int`` — the 2 GiB limitation of Section V-C.
        Collective coordination costs two synchronisations around the I/O,
        which is what buys the implementation the chance to merge requests.
        """
        self._check_open()
        _check_int(count)
        proc = current_process()
        proc.compute(self.comm.env.costs.mpi_io_coordination)
        self.comm.barrier()
        data = self.fs.read(proc, self.path, offset, count)
        self.comm.barrier()
        return data

    # -- writes --------------------------------------------------------------------

    def write_at_all(self, offset: int, count: int) -> None:
        """Collective write (``MPI_File_write_at_all``)."""
        self._check_open()
        _check_int(count)
        proc = current_process()
        proc.compute(self.comm.env.costs.mpi_io_coordination)
        self.comm.barrier()
        self.fs.write(proc, self.path, count)
        self.comm.barrier()

    def close(self) -> None:
        """Collective close."""
        self._check_open()
        self.comm.barrier()
        self._open = False

    def _check_open(self) -> None:
        if not self._open:
            raise MPIError(f"file {self.path!r} is closed")


def _check_int(count: int) -> None:
    if count < 0:
        raise MPIError(f"negative count: {count}")
    if count > INT_MAX:
        raise MPIIntOverflowError(
            f"MPI-IO count {count} exceeds INT_MAX ({INT_MAX}); "
            "a C int cannot express chunks above 2 GiB - 1 "
            "(the Section V-C limitation)"
        )


def chunk_for_rank(file_size: int, rank: int, nprocs: int) -> tuple[int, int]:
    """The contiguous (offset, count) a rank owns under even striping.

    This is the decomposition the paper's MPI benchmarks use: the file is
    divided into ``nprocs`` contiguous chunks (the last rank absorbs the
    remainder).  The caller is responsible for passing the count through
    the ``int``-checked read — that is the point.
    """
    base = file_size // nprocs
    offset = rank * base
    count = base if rank < nprocs - 1 else file_size - offset
    return offset, count
