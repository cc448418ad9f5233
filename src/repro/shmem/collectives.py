"""SHMEM collectives, built from signals and one-sided transfers.

OpenSHMEM collectives are implemented over the same RDMA machinery as the
puts/gets; ``barrier_all`` uses the dissemination pattern with tiny signal
messages, broadcast and reductions use get-from-peer trees.  Each is
written once, as steps (``SimProcess.run_steps``) composed with
``yield from``, so a PE's thread wakes once per collective.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.sim.engine import current_process
from repro.sim.process import SimProcess, Steps
from repro.sim.trace import call_site

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.shmem.heap import SymmetricArray
    from repro.shmem.runtime import PE

#: signal payload size (a flag write)
_SIGNAL_BYTES = 8


def _enter(pe: "PE", proc: SimProcess, op: str, *, root: int | None = None,
           site: str | None = None) -> str | None:
    """Record this PE's collective entry for the sanitizer (hb mode only).

    Returns the user's call site (``None`` outside hb mode) for the entries
    of the collectives this one is built on, which may run on another
    thread: the site is found once, on the PE's own.
    """
    trace = proc.engine.trace
    if not (trace.enabled and trace.hb):
        return None
    if site is None:
        site = call_site(("repro/sim/", "repro/shmem/"))
    trace.coll(proc, op, "shmem:world", parties=pe.n_pes, root=root, site=site)
    return site


def _signal_steps(pe: "PE", proc: SimProcess, dest: int, tag: str,
                  round_: int) -> Steps[None]:
    env = pe.env
    arrival = env.cluster.network.msg_arrival(
        proc, env.fabric,
        env.placement[pe.my_pe], env.placement[dest], _SIGNAL_BYTES,
    )
    yield from env.signals[dest].post_steps(
        proc, None, arrival=arrival, tag=tag, src=pe.my_pe, round=round_)


def _wait_signal_steps(pe: "PE", proc: SimProcess, src: int, tag: str,
                       round_: int) -> Steps[None]:
    env = pe.env
    yield from env.signals[pe.my_pe].recv_steps(
        proc,
        match=lambda m: (m.meta["tag"] == tag and m.meta["src"] == src
                         and m.meta["round"] == round_),
        reason=f"shmem.{tag}(pe={pe.my_pe})",
        waker=env.procs[src] if src < len(env.procs) else None,
    )


def barrier_all(pe: "PE") -> None:
    """Dissemination barrier over all PEs."""
    proc = current_process()
    _enter(pe, proc, "barrier_all")
    proc.run_steps(_barrier_all_steps(pe, proc))


def _barrier_all_steps(pe: "PE", proc: SimProcess) -> Steps[None]:
    proc.compute(pe.env.costs.shmem_barrier_base)
    p = pe.n_pes
    if p == 1:
        yield from proc.checkpoint_steps()
        return
    k = 1
    while k < p:
        yield from _signal_steps(pe, proc, (pe.my_pe + k) % p, "barrier", k)
        yield from _wait_signal_steps(pe, proc, (pe.my_pe - k) % p,
                                      "barrier", k)
        k <<= 1


def broadcast(pe: "PE", sym: "SymmetricArray", root: int) -> None:
    """Binomial-tree broadcast of ``root``'s copy into every PE's copy.

    Each non-root PE pulls from its tree parent once the parent signals that
    its copy is valid.
    """
    proc = current_process()
    site = _enter(pe, proc, "broadcast", root=root)
    proc.run_steps(_broadcast_steps(pe, proc, sym, root, site))


def _broadcast_steps(pe: "PE", proc: SimProcess, sym: "SymmetricArray",
                     root: int, site: str | None) -> Steps[None]:
    p = pe.n_pes
    vrank = (pe.my_pe - root) % p
    mask = 1
    while mask < p:
        if vrank & mask:
            parent = (pe.my_pe - mask) % p
            yield from _wait_signal_steps(pe, proc, parent, "bcast", mask)
            pe.local(sym)[:] = yield from pe._fetch_steps(proc, sym, parent)
            break
        mask <<= 1
    mask >>= 1
    while mask > 0:
        if vrank + mask < p:
            yield from _signal_steps(pe, proc, (pe.my_pe + mask) % p,
                                     "bcast", mask)
        mask >>= 1
    _enter(pe, proc, "barrier_all", site=site)
    yield from _barrier_all_steps(pe, proc)


def sum_to_all(pe: "PE", sym: "SymmetricArray") -> None:
    """Elementwise sum across PEs; the result lands in every PE's copy.

    Binomial-tree reduce onto PE 0 followed by a broadcast — the classic
    SHMEM reference implementation shape.
    """
    proc = current_process()
    site = _enter(pe, proc, "sum_to_all")
    proc.run_steps(_sum_to_all_steps(pe, proc, sym, site))


def _sum_to_all_steps(pe: "PE", proc: SimProcess, sym: "SymmetricArray",
                      site: str | None) -> Steps[None]:
    p = pe.n_pes
    mask = 1
    while mask < p:
        if pe.my_pe & mask == 0:
            partner = pe.my_pe | mask
            if partner < p:
                yield from _wait_signal_steps(pe, proc, partner, "reduce", mask)
                mine = pe.local(sym)
                mine += yield from pe._fetch_steps(proc, sym, partner)
                proc.compute_bytes(max(8, mine.nbytes),
                                   pe.env.costs.reduce_rate_native)
        else:
            parent = pe.my_pe & ~mask
            yield from _signal_steps(pe, proc, parent, "reduce", mask)
            break
        mask <<= 1
    _enter(pe, proc, "broadcast", root=0, site=site)
    yield from _broadcast_steps(pe, proc, sym, 0, site)


def collect(pe: "PE", sym: "SymmetricArray") -> "object":
    """Concatenate all PEs' copies (``shmem_collect``); returns the result.

    Implemented as an all-gather of gets after a barrier.
    """
    proc = current_process()
    site = _enter(pe, proc, "collect")
    return proc.run_steps(_collect_steps(pe, proc, sym, site))


def _collect_steps(pe: "PE", proc: SimProcess, sym: "SymmetricArray",
                   site: str | None) -> Steps["object"]:
    import numpy as np

    _enter(pe, proc, "barrier_all", site=site)
    yield from _barrier_all_steps(pe, proc)
    mine = pe.local(sym)
    out = np.empty(pe.n_pes * mine.size, dtype=mine.dtype)
    for src in range(pe.n_pes):
        if src == pe.my_pe:
            part = mine
        else:
            part = yield from pe._fetch_steps(proc, sym, src)
        out[src * mine.size:(src + 1) * mine.size] = part
    _enter(pe, proc, "barrier_all", site=site)
    yield from _barrier_all_steps(pe, proc)
    return out
