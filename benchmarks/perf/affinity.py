"""Pin a worker to one CPU, and let it go again.

The engine lets exactly one simulated thread run at a time, so a worker can
use one core whatever it is given.  Left to the kernel, each token hand-off
may wake the next thread on the other core, and that wake-up costs several
times a same-core one: on the 2-core reference host ``reduce_latency`` takes
1.4 s per repetition pinned and 2.5 to 3.5 s unpinned, changing from
repetition to repetition.  The gated end-to-end metrics are therefore
measured pinned; ``host.unpinned_wall_s`` and
``sim.engine.forced_switch_unpinned_us`` keep the unpinned cost in view.
"""

from __future__ import annotations

import contextlib
import os
from typing import Iterator


def pin() -> set[int] | None:
    """Pin this process to its highest allowed CPU; return the old mask."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(allowed)})
    return allowed


def unpin(allowed: set[int] | None) -> None:
    if allowed is not None:
        os.sched_setaffinity(0, allowed)


@contextlib.contextmanager
def unpinned(allowed: set[int] | None) -> Iterator[None]:
    """Run a block on every CPU of ``allowed``, then pin again."""
    unpin(allowed)
    try:
        yield
    finally:
        pin()
