"""Exception hierarchy for the :mod:`repro` package.

Every error raised by the simulator, the filesystems or the programming-model
runtimes derives from :class:`ReproError`, so callers can catch one base
class.  Errors that correspond to behaviour *observed in the paper* (e.g. the
``int`` overflow of ``MPI_File_read_at_all`` in Section V-C) have their own
type so the benchmark harness can distinguish "the model failed the way the
real system fails" from genuine bugs.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class SimulationError(ReproError):
    """Base class for errors raised by the virtual-time engine."""


class DeadlockError(SimulationError):
    """All live simulated processes are blocked and nothing can wake them.

    The message lists every blocked process and what it is waiting on, which
    is usually enough to diagnose e.g. an MPI send/recv cycle.
    """


class SimProcessError(SimulationError):
    """A simulated process terminated with an exception.

    The original exception is available as ``__cause__``.
    """

    def __init__(self, process_name: str, message: str = "") -> None:
        self.process_name = process_name
        super().__init__(message or f"simulated process {process_name!r} failed")


class TraceSchemaError(SimulationError):
    """A trace event violated the event schema.

    Raised by :class:`repro.sim.trace.Trace` at record time (and by the
    analysis layer when replaying externally built event streams) when an
    event is malformed: wrong field types, a negative or non-finite virtual
    timestamp, or a timestamp that moves backwards for the same process.
    Failing at the emission site keeps the broken event's origin in the
    traceback instead of surfacing as a confusing downstream analysis error.
    """


class AnalysisError(ReproError):
    """Errors raised by the static/dynamic analysis layer (:mod:`repro.analysis`)."""


class SimKilled(BaseException):  # noqa: N818 - deliberate: not an Exception
    """Injected into a simulated process to unwind it when the run aborts.

    Derives from :class:`BaseException` so that user code with a broad
    ``except Exception`` cannot accidentally swallow the shutdown request.
    """


class ConfigurationError(ReproError):
    """A cluster, runtime or experiment was configured inconsistently."""


class FaultError(ReproError):
    """Base class for errors raised by the fault-injection subsystem."""


class FaultAbortError(FaultError):
    """An injected fault killed a job that has no recovery mechanism.

    Raised (with a human-readable diagnostic naming the fault, its virtual
    time and the runtime) when a ``node_crash``/``proc_kill`` hits an MPI,
    OpenMP or OpenSHMEM job: those models abort the whole run, exactly as
    ``mpirun`` kills every rank when one dies (paper Section VI-D).  The
    fault-tolerant runtimes (Spark, Hadoop, HDFS) never raise this — they
    recover instead.
    """


class FileSystemError(ReproError):
    """Base class for simulated-filesystem errors."""


class FileNotFoundInSim(FileSystemError):
    """The requested path does not exist in the simulated filesystem."""


class FileExistsInSim(FileSystemError):
    """The path already exists and the operation does not allow overwrite."""


class FileArgumentError(FileSystemError, ValueError):
    """A file scale below 1, or a negative offset or length."""


class HDFSError(FileSystemError):
    """HDFS-specific failure (e.g. not enough live datanodes to replicate)."""


class BlockUnavailableError(HDFSError):
    """Every datanode holding a replica of the requested block is dead."""


class MPIError(ReproError):
    """Base class for errors raised by the MPI-like runtime."""


class MPIIntOverflowError(MPIError):
    """An MPI count argument exceeded ``INT_MAX`` (2**31 - 1).

    This reproduces the limitation discussed in Section V-C of the paper:
    ``MPI_File_read_at_all`` expresses the per-process chunk size as a C
    ``int``, so a file larger than ``nprocs * 2 GiB`` cannot be read
    collectively.
    """


class MPICommError(MPIError):
    """Invalid rank, tag or communicator usage."""


class ShmemError(ReproError):
    """Errors raised by the OpenSHMEM-like runtime."""


class OpenMPError(ReproError):
    """Errors raised by the OpenMP-like runtime."""


class SparkError(ReproError):
    """Base class for errors raised by the Spark-like engine."""


class JobAbortedError(SparkError):
    """A job failed permanently (e.g. too many task retries)."""


class MapReduceError(ReproError):
    """Errors raised by the Hadoop-MapReduce-like engine."""


class TaskFailedError(MapReduceError):
    """A map or reduce task exhausted its retry budget."""
