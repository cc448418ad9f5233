"""SHMEM job launch and the per-PE API handle."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.cluster.cluster import Cluster
from repro.errors import ConfigurationError, ShmemError
from repro.shmem.heap import SymmetricArray, SymmetricHeap
from repro.sim.engine import current_process
from repro.sim.process import SimProcess, Steps
from repro.sim.sync import Mailbox, SimLock
from repro.spark.partitioner import stable_hash


class ShmemEnv:
    """Shared state of one SHMEM job."""

    def __init__(self, cluster: Cluster, npes: int,
                 placement: list[int]) -> None:
        self.cluster = cluster
        self.npes = npes
        self.placement = placement
        self.fabric = cluster.machine.hpc_fabric
        self.costs = cluster.machine.costs
        self.heap = SymmetricHeap(npes)
        self.signals = [Mailbox(f"shmem:pe{i}") for i in range(npes)]
        self.locks: dict[Any, SimLock] = {}
        self.pe_of_proc: dict[int, int] = {}
        #: PE processes in PE order, filled by :func:`shmem_run`; used by
        #: the deadlock diagnosis to name candidate wakers.
        self.procs: list[SimProcess] = []


@dataclass
class ShmemResult:
    """Outcome of one SHMEM job."""

    returns: list[Any]
    elapsed: float


class PE:
    """Per-PE view of the SHMEM runtime (the ``shmem_*`` API surface)."""

    def __init__(self, env: ShmemEnv, my_pe: int) -> None:
        self.env = env
        self.my_pe = my_pe

    @property
    def n_pes(self) -> int:
        """``shmem_n_pes``."""
        return self.env.npes

    def wtime(self) -> float:
        """Virtual time on this PE."""
        return current_process().clock

    # -- symmetric heap ------------------------------------------------------------

    def alloc(self, size: int, dtype: Any = np.float64,
              init: float | np.ndarray | None = None) -> SymmetricArray:
        """``shmem_malloc``: collective symmetric allocation.

        Every PE must call with identical size/dtype; the call synchronises
        (as the OpenSHMEM spec requires).  ``init`` fills the local copy.
        """
        proc = current_process()
        proc.compute(self.env.costs.shmem_alloc)
        arr = self.env.heap.collective_alloc(self.my_pe, size, np.dtype(dtype))
        if init is not None:
            arr.local(self.my_pe)[:] = init
        self.barrier_all()
        return arr

    def local(self, sym: SymmetricArray) -> np.ndarray:
        """This PE's copy of a symmetric array (real memory)."""
        return sym.local(self.my_pe)

    # -- one-sided data movement -------------------------------------------------------

    def _rma_nodes(self, target_pe: int) -> tuple[int, int]:
        if not 0 <= target_pe < self.n_pes:
            raise ShmemError(f"PE {target_pe} out of range 0..{self.n_pes - 1}")
        return self.env.placement[self.my_pe], self.env.placement[target_pe]

    def put(self, sym: SymmetricArray, data: np.ndarray | float, pe: int,
            offset: int = 0) -> None:
        """``shmem_put``: write into ``pe``'s copy; blocks until delivered
        (our puts have ``shmem_quiet`` semantics)."""
        proc = current_process()
        data = np.atleast_1d(np.asarray(data, dtype=sym.dtype))
        target = sym.local(pe)
        if offset + data.size > target.size:
            raise ShmemError(
                f"put of {data.size} at offset {offset} overflows "
                f"symmetric array of {target.size}"
            )
        proc.compute(self.env.costs.shmem_rma_overhead)
        src_node, dst_node = self._rma_nodes(pe)
        self.env.cluster.network.transmit(
            proc, self.env.fabric, src_node, dst_node, data.nbytes,
            label=f"shmem.put->{pe}",
        )
        self.env.cluster.trace.access(
            proc, "write", f"shmem.sym{sym.handle}@pe{pe}",
            start=offset, stop=offset + data.size)
        target[offset : offset + data.size] = data
        if proc.vc is not None:
            sym.sync_release(pe, proc._hb_release())
        sym.notify(pe, proc.clock)

    def get(self, sym: SymmetricArray, pe: int, offset: int = 0,
            count: int | None = None) -> np.ndarray:
        """``shmem_get``: read from ``pe``'s copy into a private array."""
        proc = current_process()
        return proc.run_steps(
            self._fetch_steps(proc, sym, pe, offset, count)).copy()

    def _fetch_steps(self, proc: SimProcess, sym: SymmetricArray, pe: int,
                     offset: int = 0,
                     count: int | None = None) -> Steps[np.ndarray]:
        """The transfer of :meth:`get` as steps, returning a *view* of
        ``pe``'s copy.

        For the collectives, which consume the view before their next
        checkpoint — until then no other PE can run, let alone write it.
        """
        source = sym.local(pe)
        count = source.size - offset if count is None else count
        if offset + count > source.size:
            raise ShmemError(
                f"get of {count} at offset {offset} overflows "
                f"symmetric array of {source.size}"
            )
        proc.compute(self.env.costs.shmem_rma_overhead)
        src_node, dst_node = self._rma_nodes(pe)
        view = source[offset : offset + count]
        yield from self.env.cluster.network.transmit_steps(
            proc, self.env.fabric, dst_node, src_node, view.nbytes,
            label=f"shmem.get<-{pe}",
        )
        self.env.cluster.trace.access(
            proc, "read", f"shmem.sym{sym.handle}@pe{pe}",
            start=offset, stop=offset + count)
        return view

    # -- atomics -----------------------------------------------------------------------------

    def _atomic(self, sym: SymmetricArray, pe: int, offset: int, op: str,
                update: Callable[[Any], Any], *, words: int = 1,
                fetch: bool = True) -> Any:
        """One read-modify-write of element ``offset`` of ``pe``'s copy;
        returns the prior element.

        The engine's one-at-a-time execution makes it atomic.  The request
        (``words`` elements) crosses the fabric, then ``update(old)`` is
        applied where it lands — ``None`` leaves the element — and a
        changed element is visible, as a ``put``'s is, at that instant.
        A fetching atomic then pays the reply's trip back.
        """
        proc = current_process()
        proc.compute(self.env.costs.shmem_rma_overhead)
        src_node, dst_node = self._rma_nodes(pe)
        itemsize = np.dtype(sym.dtype).itemsize
        network = self.env.cluster.network
        network.transmit(proc, self.env.fabric, src_node, dst_node,
                         words * itemsize, label=f"shmem.{op}->{pe}")
        self.env.cluster.trace.access(
            proc, "write", f"shmem.sym{sym.handle}@pe{pe}",
            start=offset, stop=offset + 1, atomic=True)
        target = sym.local(pe)
        old = target[offset]
        new = update(old)
        if new is not None:
            target[offset] = new
            if proc.vc is not None:
                sym.sync_release(pe, proc._hb_release())
            sym.notify(pe, proc.clock)
        if fetch:
            network.transmit(proc, self.env.fabric, dst_node, src_node,
                             itemsize, label=f"shmem.{op}<-{pe}")
        return old.item() if hasattr(old, "item") else old

    def atomic_fetch_add(self, sym: SymmetricArray, value: float, pe: int,
                         offset: int = 0) -> float:
        """``shmem_atomic_fetch_add`` on one element of ``pe``'s copy; the
        time cost is a network round-trip (fetch semantics)."""
        return self._atomic(sym, pe, offset, "amo", lambda old: old + value)

    def atomic_add(self, sym: SymmetricArray, value: float, pe: int,
                   offset: int = 0) -> None:
        """``shmem_atomic_add``: non-fetching (one-way latency)."""
        self._atomic(sym, pe, offset, "amo", lambda old: old + value,
                     fetch=False)

    def atomic_swap(self, sym: SymmetricArray, value: float, pe: int,
                    offset: int = 0) -> float:
        """``shmem_atomic_swap``: write ``value``, return the old element."""
        return self._atomic(sym, pe, offset, "swap", lambda old: value)

    def atomic_compare_swap(self, sym: SymmetricArray, cond: float,
                            value: float, pe: int, offset: int = 0) -> float:
        """``shmem_atomic_compare_swap``: write ``value`` iff the element
        equals ``cond``; returns the prior element either way."""
        return self._atomic(sym, pe, offset, "cswap",
                            lambda old: value if old == cond else None,
                            words=2)

    # -- point-to-point synchronisation --------------------------------------------------------

    def wait_until(self, sym: SymmetricArray, pred: Callable[[np.ndarray], bool]) -> None:
        """``shmem_wait_until``: block until a remote update makes ``pred``
        true of *this PE's* copy."""
        proc = current_process()
        proc.run_steps(self.wait_until_steps(proc, sym, pred))

    def wait_until_steps(self, proc: SimProcess, sym: SymmetricArray,
                         pred: Callable[[np.ndarray], bool]) -> Steps[None]:
        """Step form of :meth:`wait_until` (see ``SimProcess.run_steps``)."""
        yield from proc.checkpoint_steps()
        if not pred(self.local(sym)):
            sym.add_waiter(self.my_pe, proc, pred)
            # Any other PE's put/atomic may satisfy the predicate, hence
            # the broad waker set.
            yield from proc.block_steps(
                reason=f"shmem.wait_until(pe={self.my_pe})", obj=sym,
                wakers=lambda eng, waiter: [p for p in self.env.procs
                                            if p is not waiter])
        # Woken by a writer, or the flag was already set (no _wake edge):
        # either way acquire the writers' accumulated release clock.
        proc._hb_join(sym.sync_vc(self.my_pe))

    # -- locks -----------------------------------------------------------------------------------

    def set_lock(self, name: Any) -> None:
        """``shmem_set_lock``: acquire a job-global distributed lock."""
        lock = self.env.locks.setdefault(name, SimLock(f"shmem.lock:{name}"))
        proc = current_process()
        # lock acquisition costs a remote round-trip to the lock's home PE;
        # stable_hash keeps the home (and hence the priced network path)
        # identical across interpreter runs — builtin hash(str) is
        # randomised by PYTHONHASHSEED
        home = stable_hash(name) % self.n_pes
        src_node, dst_node = self._rma_nodes(home)
        self.env.cluster.network.transmit(proc, self.env.fabric, src_node,
                                          dst_node, 8, label="shmem.lock")
        lock.acquire(proc)

    def clear_lock(self, name: Any) -> None:
        """``shmem_clear_lock``."""
        lock = self.env.locks.get(name)
        if lock is None:
            raise ShmemError(f"clear_lock on unknown lock {name!r}")
        lock.release(current_process())

    # -- collectives (implemented in repro.shmem.collectives) -------------------------------------

    def barrier_all(self) -> None:
        """``shmem_barrier_all`` (dissemination over the fabric)."""
        from repro.shmem import collectives

        collectives.barrier_all(self)

    def broadcast(self, sym: SymmetricArray, root: int = 0) -> None:
        """``shmem_broadcast``: root's copy replaces everyone's."""
        from repro.shmem import collectives

        collectives.broadcast(self, sym, root)

    def sum_to_all(self, sym: SymmetricArray) -> None:
        """``shmem_sum_to_all``: elementwise sum lands in every copy."""
        from repro.shmem import collectives

        collectives.sum_to_all(self, sym)

    def collect(self, sym: SymmetricArray) -> np.ndarray:
        """``shmem_collect``: concatenation of all PEs' copies (returned)."""
        from repro.shmem import collectives

        return collectives.collect(self, sym)


def shmem_run(
    cluster: Cluster,
    fn: Callable[..., Any],
    npes: int,
    *,
    pes_per_node: int | None = None,
    args: tuple = (),
) -> ShmemResult:
    """Launch ``fn(pe, *args)`` as an SPMD SHMEM job of ``npes`` PEs.

    Fabric and cost constants come from the cluster's machine
    (``cluster.machine.hpc_fabric`` / ``.costs``).
    """
    if npes < 1:
        raise ConfigurationError("npes must be >= 1")
    if pes_per_node is None:
        pes_per_node = -(-npes // len(cluster.nodes))
    placement = cluster.placement(npes, pes_per_node)
    env = ShmemEnv(cluster, npes, placement)

    def pe_main(idx: int) -> Any:
        proc = current_process()
        env.pe_of_proc[proc.pid] = idx
        pe = PE(env, idx)
        pe.barrier_all()  # shmem_init synchronisation
        return fn(pe, *args)

    env.procs = cluster.spawn_spmd(pe_main, placement, runtime="OpenSHMEM",
                                   name="shmem:pe")
    elapsed = cluster.run()
    return ShmemResult(returns=[p.result for p in env.procs], elapsed=elapsed)
