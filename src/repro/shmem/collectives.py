"""SHMEM collectives, built from signals and one-sided transfers.

OpenSHMEM collectives are implemented over the same RDMA machinery as the
puts/gets; ``barrier_all`` uses the dissemination pattern with tiny signal
messages, broadcast and reductions use get-from-peer trees.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.sim.engine import current_process
from repro.sim.trace import call_site

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.shmem.heap import SymmetricArray
    from repro.shmem.runtime import PE

#: signal payload size (a flag write)
_SIGNAL_BYTES = 8


def _enter(pe: "PE", op: str, *, root: int | None = None) -> None:
    """Record this PE's collective entry for the sanitizer (hb mode only)."""
    proc = current_process()
    trace = proc.engine.trace
    if not (trace.enabled and trace.hb):
        return
    trace.coll(
        proc, op, "shmem:world", parties=pe.n_pes, root=root,
        site=call_site(("repro/sim/", "repro/shmem/")),
    )


def _signal(pe: "PE", dest: int, tag: str, round_: int) -> None:
    proc = current_process()
    env = pe.env
    arrival = env.cluster.network.msg_arrival(
        proc, env.fabric,
        env.placement[pe.my_pe], env.placement[dest], _SIGNAL_BYTES,
    )
    env.signals[dest].post(proc, None, arrival=arrival, tag=tag,
                           src=pe.my_pe, round=round_)


def _wait_signal(pe: "PE", src: int, tag: str, round_: int) -> None:
    proc = current_process()
    env = pe.env
    env.signals[pe.my_pe].recv(
        proc,
        match=lambda m: (m.meta["tag"] == tag and m.meta["src"] == src
                         and m.meta["round"] == round_),
        reason=f"shmem.{tag}(pe={pe.my_pe})",
        waker=env.procs[src] if src < len(env.procs) else None,
    )


def barrier_all(pe: "PE") -> None:
    """Dissemination barrier over all PEs."""
    _enter(pe, "barrier_all")
    proc = current_process()
    proc.compute(pe.env.costs.shmem_barrier_base)
    p = pe.n_pes
    if p == 1:
        proc.checkpoint()
        return
    k = 1
    while k < p:
        _signal(pe, (pe.my_pe + k) % p, "barrier", k)
        _wait_signal(pe, (pe.my_pe - k) % p, "barrier", k)
        k <<= 1


def broadcast(pe: "PE", sym: "SymmetricArray", root: int) -> None:
    """Binomial-tree broadcast of ``root``'s copy into every PE's copy.

    Each non-root PE pulls from its tree parent once the parent signals that
    its copy is valid.
    """
    _enter(pe, "broadcast", root=root)
    p = pe.n_pes
    vrank = (pe.my_pe - root) % p
    mask = 1
    while mask < p:
        if vrank & mask:
            parent = (pe.my_pe - mask) % p
            _wait_signal(pe, parent, "bcast", mask)
            pe.local(sym)[:] = pe._fetch(sym, parent)
            break
        mask <<= 1
    mask >>= 1
    while mask > 0:
        if vrank + mask < p:
            _signal(pe, (pe.my_pe + mask) % p, "bcast", mask)
        mask >>= 1
    barrier_all(pe)


def sum_to_all(pe: "PE", sym: "SymmetricArray") -> None:
    """Elementwise sum across PEs; the result lands in every PE's copy.

    Binomial-tree reduce onto PE 0 followed by a broadcast — the classic
    SHMEM reference implementation shape.
    """
    _enter(pe, "sum_to_all")
    proc = current_process()
    p = pe.n_pes
    mask = 1
    while mask < p:
        if pe.my_pe & mask == 0:
            partner = pe.my_pe | mask
            if partner < p:
                _wait_signal(pe, partner, "reduce", mask)
                mine = pe.local(sym)
                mine += pe._fetch(sym, partner)
                proc.compute_bytes(max(8, mine.nbytes),
                                   pe.env.costs.reduce_rate_native)
        else:
            parent = pe.my_pe & ~mask
            _signal(pe, parent, "reduce", mask)
            break
        mask <<= 1
    broadcast(pe, sym, root=0)


def collect(pe: "PE", sym: "SymmetricArray") -> "object":
    """Concatenate all PEs' copies (``shmem_collect``); returns the result.

    Implemented as an all-gather of gets after a barrier.
    """
    import numpy as np

    _enter(pe, "collect")

    barrier_all(pe)
    mine = pe.local(sym)
    out = np.empty(pe.n_pes * mine.size, dtype=mine.dtype)
    for src in range(pe.n_pes):
        part = mine if src == pe.my_pe else pe._fetch(sym, src)
        out[src * mine.size:(src + 1) * mine.size] = part
    barrier_all(pe)
    return out
