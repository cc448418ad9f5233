"""Cache key derivation: canonical value encoding + the code-version digest.

Every artifact-cache key is the SHA-256 of a *canonical encoding* of the
inputs that determine the artifact: experiment id + resolved parameters +
machine spec + code version for a unit result.  The
encoding must satisfy two properties the plain ``repr`` does not guarantee:

* **stable across processes** — no memory addresses, no hash-seed
  dependence, no set/dict iteration order;
* **injective over the supported types** — two different parameter values
  never encode identically (``1`` vs ``1.0`` vs ``True`` vs ``"1"`` all
  differ).

Values outside the supported set (functions, live sessions, arbitrary
objects) raise :class:`UncacheableError` — callers then simply run
uncached rather than risk a colliding or unstable key.
"""

from __future__ import annotations

import dataclasses
import hashlib
from pathlib import Path

__all__ = [
    "FORMAT_VERSION",
    "UncacheableError",
    "encode_value",
    "cache_key",
    "code_version",
]

#: on-disk format + key-derivation version; bump on any layout or encoding
#: change so stale stores read as misses instead of being trusted
FORMAT_VERSION = 1


class UncacheableError(TypeError):
    """A value has no stable canonical encoding — run uncached instead."""


def encode_value(value: object) -> str:
    """Canonical, process-stable text encoding of a parameter value.

    Supports the closed set of types experiment parameters are built from:
    ``None``, ``bool``, ``int``, ``float`` (exact, via ``hex()``), ``str``,
    ``bytes``, ``tuple``/``list``, ``dict`` (sorted by encoded key),
    ``set``/``frozenset`` (sorted by encoded element) and dataclass
    instances (qualified class name + every field).  Exact-type checks
    only: a subclass (e.g. an ``IntEnum``) could render differently across
    versions, so it is rejected rather than guessed at.
    """
    if value is None:
        return "N"
    t = type(value)
    if t is bool:
        return "T" if value else "F"
    if t is int:
        return f"i{value}"
    if t is float:
        return f"f{value.hex()}"
    if t is str:
        return "s" + repr(value)
    if t is bytes:
        return "b" + repr(value)
    if t is tuple or t is list:
        tag = "t" if t is tuple else "l"
        return tag + "(" + ",".join(encode_value(v) for v in value) + ")"
    if t is dict:
        items = sorted(
            (encode_value(k), encode_value(v)) for k, v in value.items())
        return "d(" + ",".join(f"{k}:{v}" for k, v in items) + ")"
    if t is set or t is frozenset:
        return "S(" + ",".join(sorted(encode_value(v) for v in value)) + ")"
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = ",".join(
            f"{f.name}={encode_value(getattr(value, f.name))}"
            for f in dataclasses.fields(value))
        return f"@{t.__module__}.{t.__qualname__}({fields})"
    raise UncacheableError(
        f"no stable cache encoding for {t.__module__}.{t.__qualname__} "
        f"value {value!r}")


def cache_key(*parts: object) -> str:
    """SHA-256 key over canonical encodings of ``parts`` (hex digest).

    The format version is always folded in, so bumping it invalidates
    every existing entry at the key level as well as on verification.
    """
    h = hashlib.sha256()
    h.update(f"repro-cache-v{FORMAT_VERSION}".encode())
    for part in parts:
        h.update(b"\x1f")
        h.update(encode_value(part).encode())
    return h.hexdigest()


_code_version: str | None = None


def code_version() -> str:
    """Digest of every ``repro`` source file (content, not mtime).

    Folded into result-plane keys so editing any simulator source
    invalidates cached unit results — the conservative interpretation of
    "code version": we cannot know which module a unit's execution
    transitively touched, so any change misses.  Computed once per
    process (~1 MB of source; negligible next to one unit run).
    """
    global _code_version
    if _code_version is None:
        import repro

        root = Path(repro.__file__).resolve().parent
        h = hashlib.sha256()
        for path in sorted(root.rglob("*.py")):
            h.update(path.relative_to(root).as_posix().encode())
            h.update(b"\x00")
            h.update(hashlib.sha256(path.read_bytes()).digest())
        _code_version = h.hexdigest()[:16]
    return _code_version
