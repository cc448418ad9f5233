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

All reduction operators are assumed commutative+associative (true for the
built-ins in :mod:`repro.mpi.datatypes`).
"""

from __future__ import annotations

from typing import Any

from typing import TYPE_CHECKING

from repro.mpi import p2p
from repro.mpi.datatypes import ReduceOp, SUM, combine, copy_payload, nbytes_of
from repro.sim.engine import current_process
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


def _charge_combine(comm: "Communicator", obj: Any) -> None:
    """CPU cost of applying a reduction op to one buffer."""
    current_process().compute_bytes(
        max(8, nbytes_of(obj)), comm.env.costs.reduce_rate_native
    )


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


def _enter(comm: "Communicator", op: str, p: int, *, root: int | None = None,
           obj: Any = _NO_DATA) -> None:
    """Record this rank's collective entry for the sanitizer (hb mode only).

    ``root`` and ``obj`` (-> datatype) are passed only where the matching
    contract constrains them: broadcast-shaped collectives legitimately
    take data at the root only, so no dtype is recorded for them.
    """
    proc = current_process()
    trace = proc.engine.trace
    if not (trace.enabled and trace.hb):
        return
    trace.coll(
        proc, op, f"mpi:ctx{comm.ctx}", parties=p, root=root,
        dtype=None if obj is _NO_DATA else _dtype_of(obj),
        site=call_site(("repro/sim/", "repro/mpi/")),
    )


def barrier(comm: "Communicator", me: int, p: int) -> None:
    """Dissemination barrier: ceil(log2 p) rounds of pairwise notifications."""
    _enter(comm, "barrier", p)
    if p == 1:
        current_process().checkpoint()
        return
    k = 1
    while k < p:
        dest = (me + k) % p
        src = (me - k) % p
        p2p.send(comm, me, dest, None, _T_BARRIER)
        p2p.recv(comm, me, src, _T_BARRIER)
        k <<= 1


def bcast(comm: "Communicator", me: int, p: int, obj: Any, root: int) -> Any:
    """Binomial-tree broadcast; returns the object on every rank."""
    _enter(comm, "bcast", p, root=root)
    vrank = (me - root) % p
    # receive phase: wait for the parent in the binomial tree
    mask = 1
    while mask < p:
        if vrank & mask:
            src = (me - mask) % p
            obj, _, _ = p2p.recv(comm, me, src, _T_BCAST)
            break
        mask <<= 1
    # forward phase: relay to children
    mask >>= 1
    while mask > 0:
        if vrank + mask < p:
            dest = (me + mask) % p
            p2p.send(comm, me, dest, obj, _T_BCAST)
        mask >>= 1
    return obj


def reduce(
    comm: "Communicator", me: int, p: int, obj: Any, op: ReduceOp, root: int
) -> Any:
    """Binomial-tree reduction; result is returned at ``root`` (None elsewhere)."""
    _enter(comm, "reduce", p, root=root, obj=obj)
    vrank = (me - root) % p
    acc = obj
    owned = False  # acc is a buffer this rank received, not the caller's
    mask = 1
    while mask < p:
        if vrank & mask == 0:
            partner_v = vrank | mask
            if partner_v < p:
                src = (partner_v + root) % p
                data, _, _ = p2p.recv(comm, me, src, _T_REDUCE)
                acc = combine(op, acc, data, out=data)
                owned = acc is data
                _charge_combine(comm, acc)
        else:
            dest = ((vrank & ~mask) + root) % p
            p2p.send(comm, me, dest, acc, _T_REDUCE, move=owned)
            return None
        mask <<= 1
    return _private(acc, obj) if me == root else None


def allreduce(comm: "Communicator", me: int, p: int, obj: Any, op: ReduceOp) -> Any:
    """Recursive-doubling allreduce with pre/post folding for non-powers of 2."""
    _enter(comm, "allreduce", p, obj=obj)
    if p == 1:
        current_process().checkpoint()
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
            p2p.send(comm, me, me + 1, acc, _T_ALLREDUCE)
            new_rank = None  # sits out the doubling phase
        else:
            data, _, _ = p2p.recv(comm, me, me - 1, _T_ALLREDUCE)
            acc = combine(op, acc, data, out=data)
            _charge_combine(comm, acc)
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
            data = p2p.sendrecv(comm, me, partner, acc, partner, _T_ALLREDUCE)
            acc = combine(op, acc, data, out=data)
            _charge_combine(comm, acc)
            mask <<= 1
    # Deliver results back to the folded-out even ranks.
    if me < 2 * rem:
        if me % 2 == 1:
            p2p.send(comm, me, me - 1, acc, _T_ALLREDUCE)
        else:
            acc, _, _ = p2p.recv(comm, me, me + 1, _T_ALLREDUCE)
    return acc


def gather(comm: "Communicator", me: int, p: int, obj: Any, root: int) -> list | None:
    """Linear gather; returns the rank-ordered list at ``root``."""
    _enter(comm, "gather", p, root=root)
    if me != root:
        p2p.send(comm, me, root, obj, _T_GATHER)
        return None
    out: list[Any] = [None] * p
    out[me] = copy_payload(obj)
    for _ in range(p - 1):
        payload, src, _ = p2p.recv(comm, me, None, _T_GATHER)
        out[src] = payload
    return out


def scatter(comm: "Communicator", me: int, p: int, objs: list | None, root: int) -> Any:
    """Linear scatter of ``objs[i]`` to rank ``i``."""
    _enter(comm, "scatter", p, root=root)
    if me == root:
        if objs is None or len(objs) != p:
            raise ValueError(f"scatter at root needs a list of length {p}")
        for dest in range(p):
            if dest != me:
                p2p.send(comm, me, dest, objs[dest], _T_SCATTER)
        return copy_payload(objs[me])
    payload, _, _ = p2p.recv(comm, me, root, _T_SCATTER)
    return payload


def allgather(comm: "Communicator", me: int, p: int, obj: Any) -> list:
    """Ring allgather: p-1 rounds, each forwarding the newest block."""
    _enter(comm, "allgather", p)
    out: list[Any] = [None] * p
    out[me] = copy_payload(obj)
    if p == 1:
        current_process().checkpoint()
        return out
    right = (me + 1) % p
    left = (me - 1) % p
    carry_idx = me
    for _ in range(p - 1):
        idx, payload = p2p.sendrecv(
            comm, me, right, (carry_idx, out[carry_idx]), left, _T_ALLGATHER)
        out[idx] = payload
        carry_idx = idx
    return out


def alltoall(comm: "Communicator", me: int, p: int, objs: list) -> list:
    """Pairwise-exchange alltoall: ``objs[i]`` goes to rank ``i``."""
    _enter(comm, "alltoall", p)
    if len(objs) != p:
        raise ValueError(f"alltoall needs a list of length {p}")
    out: list[Any] = [None] * p
    out[me] = copy_payload(objs[me])
    for round_ in range(1, p):
        dest = (me + round_) % p
        src = (me - round_) % p
        out[src] = p2p.sendrecv(comm, me, dest, objs[dest], src, _T_ALLTOALL)
    return out


def scan(comm: "Communicator", me: int, p: int, obj: Any, op: ReduceOp) -> Any:
    """Inclusive prefix reduction (``MPI_Scan``): rank ``i`` receives
    ``op(obj_0, ..., obj_i)``.

    Hillis-Steele doubling: ``ceil(log2 p)`` rounds; in round ``k`` every
    rank sends its running value to ``me + 2^k`` and folds in the value
    from ``me - 2^k`` — the standard implementation shape.
    """
    _enter(comm, "scan", p, obj=obj)
    acc = obj
    k = 1
    while k < p:
        if me + k < p:
            p2p.send(comm, me, me + k, acc, _T_SCAN)
        if me - k >= 0:
            data, _, _ = p2p.recv(comm, me, me - k, _T_SCAN)
            acc = combine(op, data, acc, out=data)
            _charge_combine(comm, acc)
        k <<= 1
    return _private(acc, obj)


def exscan(comm: "Communicator", me: int, p: int, obj: Any, op: ReduceOp) -> Any:
    """Exclusive prefix reduction (``MPI_Exscan``): rank ``i`` receives
    ``op(obj_0, ..., obj_{i-1})``; rank 0 receives ``None``."""
    _enter(comm, "exscan", p, obj=obj)
    inclusive = scan(comm, me, p, obj, op)
    # shift right by one rank: rank i hands its inclusive value to i+1
    if me + 1 < p:
        p2p.send(comm, me, me + 1, inclusive, _T_EXSCAN)
    if me == 0:
        return None
    data, _, _ = p2p.recv(comm, me, me - 1, _T_EXSCAN)
    return data


def reduce_scatter_block(
    comm: "Communicator", me: int, p: int, objs: list, op: ReduceOp = SUM
) -> Any:
    """Reduce-scatter: rank ``i`` gets ``op``-reduction of all ``objs[i]``.

    Implemented as pairwise alltoall + local combine — the pattern the MPI
    PageRank benchmark uses to exchange rank contributions.
    """
    _enter(comm, "reduce_scatter_block", p, obj=objs)
    # every element is this rank's: received, or alltoall's copy of objs[me]
    mine = alltoall(comm, me, p, objs)
    acc = mine[0]
    for x in mine[1:]:
        acc = combine(op, acc, x, out=acc)
    _charge_combine(comm, acc)
    return acc
