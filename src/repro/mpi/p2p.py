"""Point-to-point messaging: eager/rendezvous protocols, requests.

Small messages (≤ ``costs.mpi_eager_threshold``) use the **eager** protocol:
the sender deposits the payload and continues; the receive completes at the
modelled arrival time.  Large messages use **rendezvous**: the sender posts a
request-to-send and blocks until the receiver matches it, then streams the
payload through the contended network path.  This reproduces real MPI
semantics, including the classic deadlock of two processes issuing large
blocking sends at each other — which surfaces here as a
:class:`~repro.errors.DeadlockError` naming both ranks.

All functions take the communicator plus an **explicit calling rank** (local
to that communicator), so helper processes that implement non-blocking
requests can drive the protocol on a rank's behalf.

Each protocol has one body, written as steps (``_send_steps``,
``_recv_steps``, ``_sendrecv_steps``; see ``SimProcess.run_steps``).  The
blocking functions run it for the calling process; the collectives compose
it with ``yield from``, so a whole collective wakes the rank's thread once.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.errors import DeadlockError
from repro.mpi.datatypes import copy_payload, nbytes_of
from repro.sim.engine import current_process
from repro.sim.process import ProcState, SimProcess, Steps
from repro.sim.sync import Future, Message
from repro.sim.trace import call_site

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.mpi.comm import Communicator

#: estimated wire size of a rendezvous control message
_RTS_BYTES = 64


def _node(comm: "Communicator", rank: int) -> int:
    return comm.env.node_of_rank(comm.world_rank(rank))


def _rank_proc(comm: "Communicator", rank: int) -> SimProcess | None:
    """The process driving comm-local ``rank``, if known (diagnostics only)."""
    world = comm.world_rank(rank)
    procs = comm.env.procs
    return procs[world] if world < len(procs) else None


def _check_sendsend(
    comm: "Communicator", proc: SimProcess, src: int, dest: int,
    size: int, dest_proc: SimProcess | None,
) -> None:
    """Diagnose the classic large-payload send/send cycle *before* wedging.

    We are about to block on ``dest``'s clear-to-send.  If ``dest`` is
    already blocked on a CTS that only *we* can grant (its rendezvous send
    targets us), and its request-to-send sits undelivered in our mailbox
    with no receiver registered, neither side can ever progress — the
    eager-vs-rendezvous trap of two blocking sends at each other.  Raising
    here (instead of letting the engine detect the wedge later) lets the
    report name the protocol, both ranks and the fix.
    """
    if dest_proc is None or dest_proc.state is not ProcState.BLOCKED:
        return
    pending = dest_proc.wait_obj
    if not (isinstance(pending, Future) and pending.waker is proc
            and pending.meta.get("kind") == "cts"):
        return
    counter_rts = comm.env.mailbox(comm.ctx, src).undelivered(
        lambda m: (m.meta.get("kind") == "rts"
                   and m.meta.get("msg_id") == pending.meta.get("msg_id"))
    )
    if not counter_rts:
        return
    threshold = comm.env.costs.mpi_eager_threshold
    raise DeadlockError(
        "MPI send/send cycle: two blocking rendezvous sends at each other\n"
        f"  - rank {src} ({proc.name}) sends {size} B to rank {dest} "
        f"at {call_site(('repro/sim/', 'repro/mpi/'), proc)}\n"
        f"  - rank {dest} ({dest_proc.name}) sends "
        f"{pending.meta.get('nbytes')} B to rank {src} "
        "and is already waiting for our clear-to-send\n"
        f"  both payloads exceed the eager threshold ({threshold} B), so "
        "each send blocks until the peer posts a receive that never comes; "
        "use sendrecv, or isend/irecv, for pairwise exchanges"
    )


def send(
    comm: "Communicator",
    src: int,
    dest: int,
    obj: Any,
    tag: int,
    *,
    nbytes: int | None = None,
    move: bool = False,
) -> None:
    """Blocking send from rank ``src`` (the calling process).

    ``move`` is the terminal send of a runtime temporary: a collective
    passes it for a buffer it created itself and drops straight after, so
    the receiver takes ownership of ``obj`` instead of a copy.  Never set
    for a buffer the caller can still see.
    """
    proc = current_process()
    proc.run_steps(_send_steps(comm, proc, src, dest, obj, tag, nbytes, move))


def _send_steps(
    comm: "Communicator", proc: SimProcess, src: int, dest: int, obj: Any,
    tag: int, nbytes: int | None = None, move: bool = False,
) -> Steps[None]:
    """:func:`send` as steps (``SimProcess.run_steps``): eager or rendezvous."""
    env = comm.env
    size = nbytes_of(obj) if nbytes is None else nbytes
    proc.compute(env.costs.mpi_per_call)
    src_node = _node(comm, src)
    dst_node = _node(comm, dest)
    box = env.mailbox(comm.ctx, dest)
    if size <= env.costs.mpi_eager_threshold:
        arrival = env.cluster.network.msg_arrival(
            proc, env.fabric, src_node, dst_node, size
        )
        yield from box.post_steps(
            proc, obj if move else copy_payload(obj), arrival=arrival,
            src=src, tag=tag, kind="eager", nbytes=size,
        )
        return
    # rendezvous: RTS -> wait CTS -> bulk transfer -> DATA
    cts = Future(f"cts:{src}->{dest}")
    msg_id = env.new_msg_id()
    dest_proc = _rank_proc(comm, dest)
    cts.waker = dest_proc
    cts.meta = {
        "kind": "cts", "src": src, "dest": dest, "ctx": comm.ctx,
        "nbytes": size, "msg_id": msg_id,
    }
    arrival = env.cluster.network.msg_arrival(
        proc, env.fabric, src_node, dst_node, _RTS_BYTES
    )
    yield from box.post_steps(
        proc, cts, arrival=arrival,
        src=src, tag=tag, kind="rts", msg_id=msg_id, nbytes=size,
    )
    _check_sendsend(comm, proc, src, dest, size, dest_proc)
    yield from cts.wait_steps(proc)
    done = yield from env.cluster.network.transmit_steps(
        proc, env.fabric, src_node, dst_node, size,
        label=f"mpi:{src}->{dest}",
    )
    yield from box.post_steps(proc, obj if move else copy_payload(obj),
                              arrival=done, kind="data", msg_id=msg_id)


def recv(
    comm: "Communicator",
    me: int,
    source: int | None,
    tag: int | None,
) -> tuple[Any, int, int]:
    """Blocking receive at rank ``me``.

    ``source``/``tag`` of ``None`` mean ``MPI_ANY_SOURCE``/``MPI_ANY_TAG``.
    Returns ``(payload, actual_source, actual_tag)``.
    """
    proc = current_process()
    return proc.run_steps(_recv_steps(comm, proc, me, source, tag))


def _recv_steps(
    comm: "Communicator", proc: SimProcess, me: int, source: int | None,
    tag: int | None,
) -> Steps[tuple[Any, int, int]]:
    """:func:`recv` as steps (``SimProcess.run_steps``)."""
    env = comm.env
    box = env.mailbox(comm.ctx, me)

    def match(m: Message) -> bool:
        if m.meta.get("kind") not in ("eager", "rts"):
            return False
        if source is not None and m.meta["src"] != source:
            return False
        if tag is None:
            # ANY_TAG matches user tags only, never collective internals
            return m.meta["tag"] >= 0
        return m.meta["tag"] == tag

    msg = yield from box.recv_steps(
        proc, match,
        reason=f"mpi.recv(rank={me},src={source},tag={tag})",
        waker=None if source is None else _rank_proc(comm, source),
    )
    fab = env.cluster.spec.fabric(env.fabric)
    proc.compute(env.costs.mpi_per_call + fab.sw_overhead(msg.meta["nbytes"]))
    if msg.meta["kind"] == "eager":
        return msg.payload, msg.meta["src"], msg.meta["tag"]
    # rendezvous: grant clear-to-send, then take the data message
    yield from msg.payload.set_steps(proc)
    msg_id = msg.meta["msg_id"]
    data = yield from box.recv_steps(
        proc,
        lambda m: m.meta.get("kind") == "data" and m.meta.get("msg_id") == msg_id,
        reason=f"mpi.recv-data(rank={me})",
        waker=_rank_proc(comm, msg.meta["src"]),
    )
    return data.payload, msg.meta["src"], msg.meta["tag"]


class Request:
    """Handle for a non-blocking operation (``MPI_Request``)."""

    def __init__(self, future: Future | None, value: Any = None) -> None:
        self._future = future
        self._value = value

    def wait(self) -> Any:
        """Block until complete; returns the received payload (irecv) or None."""
        if self._future is None:
            return self._value
        return self._future.wait(current_process())

    def test(self) -> bool:
        """True if the operation already completed (non-blocking probe)."""
        if self._future is None:
            return True
        current_process().checkpoint()
        return self._future.done


def isend(comm: "Communicator", src: int, dest: int, obj: Any, tag: int) -> Request:
    """Non-blocking send: eager completes locally; rendezvous runs on a
    helper process (modelling the progress engine / NIC DMA)."""
    env = comm.env
    size = nbytes_of(obj)
    if size <= env.costs.mpi_eager_threshold:
        send(comm, src, dest, obj, tag, nbytes=size)
        return Request(None)
    proc = current_process()
    fut = Future(f"isend:{src}->{dest}")

    def dma() -> None:
        send(comm, src, dest, obj, tag, nbytes=size)
        fut.set(current_process())

    env.cluster.spawn(dma, node_id=_node(comm, src), name=f"mpi:isend{src}->{dest}")
    proc.compute(env.costs.mpi_per_call)
    return Request(fut)


def irecv(comm: "Communicator", me: int, source: int | None, tag: int | None) -> Request:
    """Non-blocking receive via a helper process; ``wait()`` yields the payload."""
    env = comm.env
    proc = current_process()
    fut = Future(f"irecv:rank{me}")

    def progress() -> None:
        payload, _src, _tag = recv(comm, me, source, tag)
        fut.set(current_process(), payload)

    env.cluster.spawn(progress, node_id=_node(comm, me), name=f"mpi:irecv@{me}")
    proc.compute(env.costs.mpi_per_call)
    return Request(fut)


def sendrecv(
    comm: "Communicator",
    me: int,
    dest: int,
    send_obj: Any,
    source: int | None,
    tag: int,
) -> Any:
    """Combined send+receive (deadlock-free pairwise exchange).

    Implemented with receiver-driven transfer accounting: the outgoing
    payload is announced with a small descriptor, and whichever side
    receives charges the bulk network path as it pulls the data in.  This
    is timing-equivalent to the rendezvous protocol for the symmetric
    exchanges collectives perform, without needing a progress helper
    process per large message.
    """
    proc = current_process()
    return proc.run_steps(
        _sendrecv_steps(comm, proc, me, dest, send_obj, source, tag))


def _sendrecv_steps(
    comm: "Communicator", proc: SimProcess, me: int, dest: int,
    send_obj: Any, source: int | None, tag: int,
) -> Steps[Any]:
    """:func:`sendrecv` as steps (``SimProcess.run_steps``)."""
    env = comm.env
    size = nbytes_of(send_obj)
    proc.compute(env.costs.mpi_per_call)
    src_node = _node(comm, me)
    dst_node = _node(comm, dest)
    box = env.mailbox(comm.ctx, dest)
    arrival = env.cluster.network.msg_arrival(
        proc, env.fabric, src_node, dst_node, _RTS_BYTES
    )
    yield from box.post_steps(
        proc, copy_payload(send_obj), arrival=arrival,
        src=me, tag=tag, kind="xdesc", nbytes=size,
    )
    my_box = env.mailbox(comm.ctx, me)

    def match(m: Message) -> bool:
        return (
            m.meta.get("kind") == "xdesc"
            and (source is None or m.meta["src"] == source)
            and m.meta["tag"] == tag
        )

    msg = yield from my_box.recv_steps(
        proc, match, reason=f"mpi.sendrecv(rank={me})",
        waker=None if source is None else _rank_proc(comm, source),
    )
    fab = env.cluster.spec.fabric(env.fabric)
    proc.compute(env.costs.mpi_per_call + fab.sw_overhead(msg.meta["nbytes"]))
    if msg.meta["nbytes"] > env.costs.mpi_eager_threshold:
        yield from env.cluster.network.transmit_steps(
            proc, env.fabric, _node(comm, msg.meta["src"]), src_node,
            msg.meta["nbytes"], label=f"mpi:xchg{msg.meta['src']}->{me}",
        )
    return msg.payload
