"""Record-oriented split reading (the ``TextInputFormat`` convention).

Parallel text processing assigns each reader a byte range of the file.
Records (newline-delimited lines) rarely align with range boundaries, so
every real system uses the same convention, which we reproduce exactly:

* a record belongs to the reader whose range contains its **first byte**;
* a reader whose range starts mid-record skips forward to the first record
  boundary;
* a reader whose last record crosses its range end reads past the end to
  finish it.

Together these rules make the union of all readers' records exactly the
file, with no duplicates — a property the tests check for arbitrary split
points (hypothesis).
"""

from __future__ import annotations

from typing import Iterator

from repro.fs.base import FileSystem
from repro.sim.blocks import RecordBlock
from repro.sim.process import SimProcess, Steps
from repro.units import KiB

#: Bytes fetched per probe when finishing a record that crosses the split end.
LOOKAHEAD = 64 * KiB


def read_split_records(
    fs: FileSystem,
    proc: SimProcess,
    path: str,
    start: int,
    end: int,
    *,
    lookahead: int = LOOKAHEAD,
) -> Steps[RecordBlock]:
    """Timed read of the records owned by logical split ``[start, end)``.

    Written as steps: a thread runs it as ``proc.run_steps(
    read_split_records(...))``, a step body composes it with ``yield
    from``, and either way the split read and its boundary probes park the
    owner's thread at most once.

    Returns a :class:`~repro.sim.blocks.RecordBlock` over the split's
    buffer: the records as decoded lines (no trailing newlines), decoded
    on first use, with the raw bytes in ``buffer`` for columnar kernels.
    I/O time is charged for the split plus any boundary lookahead, exactly
    as a real reader would incur it.
    """
    f = fs.lookup(path)
    lsize = f.logical_size
    start = max(0, start)
    start, end = f.logical_range(start, max(0, end - start))
    if start == end:
        return RecordBlock(b"")
    buf = yield from fs.read_steps(proc, path, start, end - start)
    pstart, pend = start // f.scale, end // f.scale
    psize = f.physical_size

    # Finish a record that crosses the end of the split.
    probe_l = end
    probe_p = pend
    while probe_p < psize and not buf.endswith(b"\n"):
        step = min(lookahead, lsize - probe_l)
        if step <= 0:
            break
        more = yield from fs.read_steps(proc, path, probe_l, step)
        probe_l += step
        probe_p += len(more)
        nl = more.find(b"\n")
        if nl >= 0:
            buf += more[: nl + 1]
            break
        buf += more

    # Drop the partial leading record (it belongs to the previous split) —
    # unless the split happens to start exactly on a record boundary, which
    # we detect from the physical byte just before the split.
    if pstart > 0:
        prev = f.content.read(pstart - 1, 1)
        if prev != b"\n":
            nl = buf.find(b"\n")
            buf = buf[nl + 1 :] if nl >= 0 else b""

    return RecordBlock(buf)


def iter_all_records(fs: FileSystem, path: str) -> Iterator[str]:
    """Untimed host-side iterator over the whole file's records.

    Yields, chunk by chunk, the lines a :class:`RecordBlock` over the
    whole file reads as, so the union of any tiling of splits equals it.
    """
    f = fs.lookup(path)
    content = f.content
    size = content.size
    pos = 0
    tail = b""
    chunk_size = 4 * 1024 * 1024
    while pos < size:
        data = tail + content.read(pos, min(chunk_size, size - pos))
        pos += min(chunk_size, size - pos)
        nl = data.rfind(b"\n") + 1
        tail = data[nl:]
        yield from RecordBlock(data[:nl])
    if tail:
        yield from RecordBlock(tail)
