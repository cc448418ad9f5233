"""Collective algorithms, built on point-to-point messages.

Each collective uses the textbook algorithm of the MPI implementations the
paper benchmarked (MPICH/Open MPI lineage):

===========  =================================================  ============
collective   algorithm                                          cost shape
===========  =================================================  ============
barrier      dissemination                                      ceil(log2 p) rounds
bcast        binomial tree                                      log2 p * (α + nβ)
reduce       binomial tree (commutative ops)                    log2 p * (α + nβ + nγ)
allreduce    recursive doubling (+ pre/post for non-2^k)        log2 p rounds
gather       linear at root                                     (p-1) messages
scatter      linear at root                                     (p-1) messages
allgather    ring                                               (p-1) rounds
alltoall     pairwise exchange (sendrecv)                       (p-1) rounds
===========  =================================================  ============

where α is latency, β inverse bandwidth and γ the reduction rate.  Because
these run over the simulated network, collective timing *emerges* from the
same mechanisms as on the real machine — the log-p scaling of the Fig 3
MPI reduce line is produced, not asserted.

Every algorithm is written once, as steps (``SimProcess.run_steps``) that
compose the point-to-point step forms of :mod:`repro.mpi.p2p` with
``yield from``; each public function records the sanitizer entry and runs
them.  Between the rounds of a collective the rank's thread sleeps: each
round resumes at the rank's turn on whichever thread holds the token.

All reduction operators are assumed commutative+associative (true for the
built-ins in :mod:`repro.mpi.datatypes`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.mpi import p2p
from repro.mpi.datatypes import ReduceOp, SUM, combine, copy_payload, nbytes_of
from repro.sim.engine import current_process
from repro.sim.process import SimProcess, Steps
from repro.sim.trace import call_site

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.mpi.comm import Communicator

#: tag space reserved for collective internals (user tags are >= 0)
_T_BARRIER = -1
_T_BCAST = -2
_T_REDUCE = -3
_T_ALLREDUCE = -4
_T_GATHER = -5
_T_SCATTER = -6
_T_ALLGATHER = -7
_T_ALLTOALL = -8
_T_SCAN = -9
_T_EXSCAN = -10


def _charge_combine(comm: "Communicator", proc: SimProcess, obj: Any) -> None:
    """CPU cost of applying a reduction op to one buffer."""
    proc.compute_bytes(max(8, nbytes_of(obj)), comm.env.costs.reduce_rate_native)


def _private(acc: Any, obj: Any) -> Any:
    """A result the caller exclusively owns: never its own input ``obj``."""
    return copy_payload(acc) if acc is obj else acc


#: sentinel distinguishing "no data argument" from a literal ``None`` payload
_NO_DATA = object()


def _dtype_of(obj: Any) -> str:
    """Coarse datatype tag for collective-matching (sanitizer).

    Numeric scalars collapse to one tag — Python ints, floats and NumPy
    scalars mix freely in the built-in reduction ops, so flagging ``int``
    vs ``np.int64`` across ranks would be a false positive.
    """
    if getattr(obj, "ndim", None):
        return f"ndarray[{obj.dtype}]"
    if isinstance(obj, (bool, int, float, complex)) or hasattr(obj, "dtype"):
        return "scalar"
    return type(obj).__name__


def _enter(comm: "Communicator", proc: SimProcess, op: str, p: int, *,
           root: int | None = None, obj: Any = _NO_DATA,
           site: str | None = None) -> str | None:
    """Record this rank's collective entry for the sanitizer (hb mode only).

    ``root`` and ``obj`` (-> datatype) are passed only where the matching
    contract constrains them: broadcast-shaped collectives legitimately
    take data at the root only, so no dtype is recorded for them.  Returns
    the user's call site (``None`` outside hb mode): a collective built on
    another (exscan on scan) passes it to the nested entry, which may run
    on another thread, so the site is found once, on the rank's own.
    """
    trace = proc.engine.trace
    if not (trace.enabled and trace.hb):
        return None
    if site is None:
        site = call_site(("repro/sim/", "repro/mpi/"))
    trace.coll(
        proc, op, f"mpi:ctx{comm.ctx}", parties=p, root=root,
        dtype=None if obj is _NO_DATA else _dtype_of(obj), site=site,
    )
    return site


def barrier(comm: "Communicator", me: int, p: int) -> None:
    """Dissemination barrier: ceil(log2 p) rounds of pairwise notifications."""
    proc = current_process()
    _enter(comm, proc, "barrier", p)
    proc.run_steps(_barrier_steps(comm, proc, me, p))


def _barrier_steps(comm: "Communicator", proc: SimProcess, me: int,
                   p: int) -> Steps[None]:
    if p == 1:
        yield from proc.checkpoint_steps()
        return
    k = 1
    while k < p:
        dest = (me + k) % p
        src = (me - k) % p
        yield from p2p._send_steps(comm, proc, me, dest, None, _T_BARRIER)
        yield from p2p._recv_steps(comm, proc, me, src, _T_BARRIER)
        k <<= 1


def bcast(comm: "Communicator", me: int, p: int, obj: Any, root: int) -> Any:
    """Binomial-tree broadcast; returns the object on every rank."""
    proc = current_process()
    _enter(comm, proc, "bcast", p, root=root)
    return proc.run_steps(_bcast_steps(comm, proc, me, p, obj, root))


def _bcast_steps(comm: "Communicator", proc: SimProcess, me: int, p: int,
                 obj: Any, root: int) -> Steps[Any]:
    vrank = (me - root) % p
    # receive phase: wait for the parent in the binomial tree
    mask = 1
    while mask < p:
        if vrank & mask:
            src = (me - mask) % p
            obj, _, _ = yield from p2p._recv_steps(comm, proc, me, src, _T_BCAST)
            break
        mask <<= 1
    # forward phase: relay to children
    mask >>= 1
    while mask > 0:
        if vrank + mask < p:
            dest = (me + mask) % p
            yield from p2p._send_steps(comm, proc, me, dest, obj, _T_BCAST)
        mask >>= 1
    return obj


def reduce(
    comm: "Communicator", me: int, p: int, obj: Any, op: ReduceOp, root: int
) -> Any:
    """Binomial-tree reduction; result is returned at ``root`` (None elsewhere)."""
    proc = current_process()
    _enter(comm, proc, "reduce", p, root=root, obj=obj)
    return proc.run_steps(_reduce_steps(comm, proc, me, p, obj, op, root))


def _reduce_steps(comm: "Communicator", proc: SimProcess, me: int, p: int,
                  obj: Any, op: ReduceOp, root: int) -> Steps[Any]:
    vrank = (me - root) % p
    acc = obj
    owned = False  # acc is a buffer this rank received, not the caller's
    mask = 1
    while mask < p:
        if vrank & mask == 0:
            partner_v = vrank | mask
            if partner_v < p:
                src = (partner_v + root) % p
                data, _, _ = yield from p2p._recv_steps(
                    comm, proc, me, src, _T_REDUCE)
                acc = combine(op, acc, data, out=data)
                owned = acc is data
                _charge_combine(comm, proc, acc)
        else:
            dest = ((vrank & ~mask) + root) % p
            yield from p2p._send_steps(comm, proc, me, dest, acc, _T_REDUCE,
                                       move=owned)
            return None
        mask <<= 1
    return _private(acc, obj) if me == root else None


def allreduce(comm: "Communicator", me: int, p: int, obj: Any, op: ReduceOp) -> Any:
    """Recursive-doubling allreduce with pre/post folding for non-powers of 2."""
    proc = current_process()
    _enter(comm, proc, "allreduce", p, obj=obj)
    return proc.run_steps(_allreduce_steps(comm, proc, me, p, obj, op))


def _allreduce_steps(comm: "Communicator", proc: SimProcess, me: int, p: int,
                     obj: Any, op: ReduceOp) -> Steps[Any]:
    if p == 1:
        yield from proc.checkpoint_steps()
        return copy_payload(obj)
    p2 = 1
    while p2 * 2 <= p:
        p2 *= 2
    rem = p - p2
    acc = obj
    new_rank: int | None
    # Fold the first 2*rem ranks pairwise so a power-of-2 subgroup remains.
    if me < 2 * rem:
        if me % 2 == 0:
            yield from p2p._send_steps(comm, proc, me, me + 1, acc, _T_ALLREDUCE)
            new_rank = None  # sits out the doubling phase
        else:
            data, _, _ = yield from p2p._recv_steps(
                comm, proc, me, me - 1, _T_ALLREDUCE)
            acc = combine(op, acc, data, out=data)
            _charge_combine(comm, proc, acc)
            new_rank = me // 2
    else:
        new_rank = me - rem
    if new_rank is not None:
        mask = 1
        while mask < p2:
            partner_new = new_rank ^ mask
            partner = (
                partner_new * 2 + 1 if partner_new < rem else partner_new + rem
            )
            data = yield from p2p._sendrecv_steps(
                comm, proc, me, partner, acc, partner, _T_ALLREDUCE)
            acc = combine(op, acc, data, out=data)
            _charge_combine(comm, proc, acc)
            mask <<= 1
    # Deliver results back to the folded-out even ranks.
    if me < 2 * rem:
        if me % 2 == 1:
            yield from p2p._send_steps(comm, proc, me, me - 1, acc, _T_ALLREDUCE)
        else:
            acc, _, _ = yield from p2p._recv_steps(
                comm, proc, me, me + 1, _T_ALLREDUCE)
    return acc


def gather(comm: "Communicator", me: int, p: int, obj: Any, root: int) -> list | None:
    """Linear gather; returns the rank-ordered list at ``root``."""
    proc = current_process()
    _enter(comm, proc, "gather", p, root=root)
    return proc.run_steps(_gather_steps(comm, proc, me, p, obj, root))


def _gather_steps(comm: "Communicator", proc: SimProcess, me: int, p: int,
                  obj: Any, root: int) -> Steps[list | None]:
    if me != root:
        yield from p2p._send_steps(comm, proc, me, root, obj, _T_GATHER)
        return None
    out: list[Any] = [None] * p
    out[me] = copy_payload(obj)
    for _ in range(p - 1):
        payload, src, _ = yield from p2p._recv_steps(
            comm, proc, me, None, _T_GATHER)
        out[src] = payload
    return out


def scatter(comm: "Communicator", me: int, p: int, objs: list | None, root: int) -> Any:
    """Linear scatter of ``objs[i]`` to rank ``i``."""
    proc = current_process()
    _enter(comm, proc, "scatter", p, root=root)
    if me == root and (objs is None or len(objs) != p):
        raise ValueError(f"scatter at root needs a list of length {p}")
    return proc.run_steps(_scatter_steps(comm, proc, me, p, objs, root))


def _scatter_steps(comm: "Communicator", proc: SimProcess, me: int, p: int,
                   objs: list | None, root: int) -> Steps[Any]:
    if me == root:
        for dest in range(p):
            if dest != me:
                yield from p2p._send_steps(comm, proc, me, dest, objs[dest],
                                           _T_SCATTER)
        return copy_payload(objs[me])
    payload, _, _ = yield from p2p._recv_steps(comm, proc, me, root, _T_SCATTER)
    return payload


def allgather(comm: "Communicator", me: int, p: int, obj: Any) -> list:
    """Ring allgather: p-1 rounds, each forwarding the newest block."""
    proc = current_process()
    _enter(comm, proc, "allgather", p)
    return proc.run_steps(_allgather_steps(comm, proc, me, p, obj))


def _allgather_steps(comm: "Communicator", proc: SimProcess, me: int, p: int,
                     obj: Any) -> Steps[list]:
    out: list[Any] = [None] * p
    out[me] = copy_payload(obj)
    if p == 1:
        yield from proc.checkpoint_steps()
        return out
    right = (me + 1) % p
    left = (me - 1) % p
    carry_idx = me
    for _ in range(p - 1):
        idx, payload = yield from p2p._sendrecv_steps(
            comm, proc, me, right, (carry_idx, out[carry_idx]), left,
            _T_ALLGATHER)
        out[idx] = payload
        carry_idx = idx
    return out


def alltoall(comm: "Communicator", me: int, p: int, objs: list) -> list:
    """Pairwise-exchange alltoall: ``objs[i]`` goes to rank ``i``."""
    proc = current_process()
    _enter(comm, proc, "alltoall", p)
    if len(objs) != p:
        raise ValueError(f"alltoall needs a list of length {p}")
    return proc.run_steps(_alltoall_steps(comm, proc, me, p, objs))


def _alltoall_steps(comm: "Communicator", proc: SimProcess, me: int, p: int,
                    objs: list) -> Steps[list]:
    out: list[Any] = [None] * p
    out[me] = copy_payload(objs[me])
    for round_ in range(1, p):
        dest = (me + round_) % p
        src = (me - round_) % p
        out[src] = yield from p2p._sendrecv_steps(
            comm, proc, me, dest, objs[dest], src, _T_ALLTOALL)
    return out


def scan(comm: "Communicator", me: int, p: int, obj: Any, op: ReduceOp) -> Any:
    """Inclusive prefix reduction (``MPI_Scan``): rank ``i`` receives
    ``op(obj_0, ..., obj_i)``.

    Hillis-Steele doubling: ``ceil(log2 p)`` rounds; in round ``k`` every
    rank sends its running value to ``me + 2^k`` and folds in the value
    from ``me - 2^k`` — the standard implementation shape.
    """
    proc = current_process()
    _enter(comm, proc, "scan", p, obj=obj)
    return proc.run_steps(_scan_steps(comm, proc, me, p, obj, op))


def _scan_steps(comm: "Communicator", proc: SimProcess, me: int, p: int,
                obj: Any, op: ReduceOp) -> Steps[Any]:
    acc = obj
    k = 1
    while k < p:
        if me + k < p:
            yield from p2p._send_steps(comm, proc, me, me + k, acc, _T_SCAN)
        if me - k >= 0:
            data, _, _ = yield from p2p._recv_steps(
                comm, proc, me, me - k, _T_SCAN)
            acc = combine(op, data, acc, out=data)
            _charge_combine(comm, proc, acc)
        k <<= 1
    return _private(acc, obj)


def exscan(comm: "Communicator", me: int, p: int, obj: Any, op: ReduceOp) -> Any:
    """Exclusive prefix reduction (``MPI_Exscan``): rank ``i`` receives
    ``op(obj_0, ..., obj_{i-1})``; rank 0 receives ``None``."""
    proc = current_process()
    site = _enter(comm, proc, "exscan", p, obj=obj)
    return proc.run_steps(_exscan_steps(comm, proc, me, p, obj, op, site))


def _exscan_steps(comm: "Communicator", proc: SimProcess, me: int, p: int,
                  obj: Any, op: ReduceOp, site: str | None) -> Steps[Any]:
    _enter(comm, proc, "scan", p, obj=obj, site=site)
    inclusive = yield from _scan_steps(comm, proc, me, p, obj, op)
    # shift right by one rank: rank i hands its inclusive value to i+1
    if me + 1 < p:
        yield from p2p._send_steps(comm, proc, me, me + 1, inclusive, _T_EXSCAN)
    if me == 0:
        return None
    data, _, _ = yield from p2p._recv_steps(comm, proc, me, me - 1, _T_EXSCAN)
    return data


def reduce_scatter_block(
    comm: "Communicator", me: int, p: int, objs: list, op: ReduceOp = SUM
) -> Any:
    """Reduce-scatter: rank ``i`` gets ``op``-reduction of all ``objs[i]``.

    Implemented as pairwise alltoall + local combine — the pattern the MPI
    PageRank benchmark uses to exchange rank contributions.
    """
    proc = current_process()
    site = _enter(comm, proc, "reduce_scatter_block", p, obj=objs)
    _enter(comm, proc, "alltoall", p, site=site)
    if len(objs) != p:
        raise ValueError(f"alltoall needs a list of length {p}")
    return proc.run_steps(
        _reduce_scatter_block_steps(comm, proc, me, p, objs, op))


def _reduce_scatter_block_steps(comm: "Communicator", proc: SimProcess,
                                me: int, p: int, objs: list,
                                op: ReduceOp) -> Steps[Any]:
    # every element is this rank's: received, or alltoall's copy of objs[me]
    mine = yield from _alltoall_steps(comm, proc, me, p, objs)
    acc = mine[0]
    for x in mine[1:]:
        acc = combine(op, acc, x, out=acc)
    _charge_combine(comm, proc, acc)
    return acc
