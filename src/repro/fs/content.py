"""Deterministic file payloads.

A :class:`BytesContent` holds the *physical* bytes of a simulated file.
Payloads are deterministic functions of their construction parameters, so
the same experiment always processes the same data, and a sequential
reference implementation can re-derive the expected answer.
"""

from __future__ import annotations

from typing import Callable, Iterator

from repro.errors import FileArgumentError


class BytesContent:
    """A simulated file's physical payload: one contiguous ``bytes`` buffer."""

    def __init__(self, data: bytes) -> None:
        self._data = bytes(data)

    @property
    def size(self) -> int:
        """Physical payload size in bytes."""
        return len(self._data)

    def read(self, offset: int, length: int) -> bytes:
        """Bytes in ``[offset, offset + length)``, clamped to the payload."""
        if offset < 0 or length < 0:
            raise FileArgumentError(
                f"invalid range: offset={offset} length={length}")
        return self._data[offset : offset + length]

    def read_all(self) -> bytes:
        """The whole physical payload (host-side convenience)."""
        return self._data


class LineContent(BytesContent):
    """Newline-delimited records produced by a deterministic generator.

    Parameters
    ----------
    line_fn:
        ``line_fn(i) -> str`` returning record ``i`` *without* the trailing
        newline.  Must be deterministic.
    n_lines:
        Number of records.

    Construction renders every record once into the one contiguous buffer
    :class:`BytesContent` serves (and so validates every record); the
    staged inputs are a few MB of physical bytes (``scale`` carries the
    logical size), so nothing is gained by rendering lazily.
    """

    #: records rendered per intermediate chunk — bounds the transient
    #: ``str`` garbage of a render, not the payload
    _RENDER_LINES = 4096

    def __init__(self, line_fn: Callable[[int], str], n_lines: int) -> None:
        if n_lines < 0:
            raise ValueError(f"n_lines must be >= 0, got {n_lines}")
        self.n_lines = n_lines
        chunks = []
        for lo in range(0, n_lines, self._RENDER_LINES):
            lines = [line_fn(i)
                     for i in range(lo, min(n_lines, lo + self._RENDER_LINES))]
            for i, line in enumerate(lines, lo):
                if "\n" in line:
                    raise ValueError(f"line {i} contains a newline: {line!r}")
            chunks.append(("\n".join(lines) + "\n").encode())
        super().__init__(b"".join(chunks))

    def lines(self) -> Iterator[str]:
        """Iterate records (host-side convenience for references/tests)."""
        return iter(self._data.decode().split("\n")[:-1])
