"""The on-disk artifact store: one plane, atomic publish, verify-on-open.

Layout (default ``.repro-cache/``, see :func:`resolve_root`)::

    .repro-cache/
      results/<key>.json    # {"format", "sha256", "meta", "payload"}

Publishing is atomic: entries are written to a ``*.tmp-<pid>`` sibling and
``os.replace``d into place, so a crashed writer leaves at most a stray tmp
file (ignored by readers and by entry counts) and concurrent writers of
the same key converge on identical content — keys are derived from the
inputs, so two racing publishers write the same bytes.

Nothing read from the store is ever trusted:
:meth:`ArtifactStore.load_result` re-hashes the payload against the
recorded SHA-256 and treats any mismatch — or a format-version mismatch —
as a miss, dropping the entry so the caller re-executes the unit.

There is no process-wide store: whoever needs one constructs
``ArtifactStore(root)`` (construction is free) and passes it along.

This module is the registered home of the cache environment hatches
(``repro.analysis.lint`` R006): ``REPRO_CACHE_DIR`` relocates the default
store (:func:`default_root` reads it) and ``REPRO_NO_CACHE=1`` disables
caching globally (:func:`resolve_root` reads it).
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Any

from repro.cache.keys import FORMAT_VERSION

__all__ = [
    "ArtifactStore",
    "default_root",
    "resolve_root",
    "store_info",
]


def _canonical(payload: dict) -> bytes:
    """Canonical JSON bytes of a result payload (the checksummed form)."""
    return json.dumps(payload, sort_keys=True,
                      separators=(",", ":")).encode()


class ArtifactStore:
    """One content-addressed store rooted at a directory.

    Construction is cheap and creates nothing; directories appear on the
    first publish.  All methods tolerate a missing or empty store.
    """

    def __init__(self, root: Path | str) -> None:
        self.root = Path(root)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ArtifactStore({str(self.root)!r})"

    def _entry(self, key: str) -> Path:
        return self.root / "results" / f"{key}.json"

    def _atomic_write(self, path: Path, data: bytes) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f"{path.name}.tmp-{os.getpid()}")
        tmp.write_bytes(data)
        os.replace(tmp, path)

    def _load_entry(self, path: Path) -> dict | None:
        try:
            raw = path.read_text()
        except OSError:
            return None
        try:
            entry = json.loads(raw)
        except ValueError:
            return {}  # unparseable = corrupt; caller drops it
        return entry if isinstance(entry, dict) else {}

    def drop(self, key: str) -> None:
        """Remove one entry; missing is fine."""
        try:
            self._entry(key).unlink()
        except OSError:
            pass  # reprolint: disable=swallowed-error

    def entry_count(self) -> int:
        """Committed entries (tmp leftovers excluded)."""
        try:
            names = sorted(os.listdir(self.root / "results"))
        except OSError:
            return 0
        return sum(1 for n in names
                   if n.endswith(".json") and ".tmp-" not in n)

    def store_result(self, key: str, payload: dict,
                     meta: dict | None = None) -> None:
        """Atomically store an encoded unit result under ``key``."""
        entry = {
            "format": FORMAT_VERSION,
            "sha256": hashlib.sha256(_canonical(payload)).hexdigest(),
            "meta": meta or {},
            "payload": payload,
        }
        self._atomic_write(self._entry(key),
                           json.dumps(entry, indent=1).encode() + b"\n")

    def load_result(self, key: str) -> dict | None:
        """Load a stored result entry, or ``None`` on miss/corruption.

        Returns the full entry (``payload`` + ``meta``) only when the
        payload re-hashes to the recorded checksum under the current
        format version; anything else is dropped and missed.
        """
        entry = self._load_entry(self._entry(key))
        if entry is None:
            return None
        payload = entry.get("payload")
        if (entry.get("format") != FORMAT_VERSION
                or not isinstance(payload, dict)
                or hashlib.sha256(_canonical(payload)).hexdigest()
                != entry.get("sha256")):
            self.drop(key)
            return None
        return entry


def default_root() -> Path:
    """The store a default ``repro run`` uses: ``$REPRO_CACHE_DIR``, else
    ``.repro-cache``."""
    return Path(os.environ.get("REPRO_CACHE_DIR", "") or ".repro-cache")


def resolve_root(cache: str | Path | None) -> Path | None:
    """Map a caller's ``cache`` argument to a store root, or ``None`` (off).

    ``None`` (or anything falsy) is off and a path is that path, unless
    the ``REPRO_NO_CACHE=1`` kill switch is set, which beats even an
    explicit path.
    """
    if not cache or os.environ.get("REPRO_NO_CACHE", "") == "1":
        return None
    return Path(cache)


def store_info() -> dict[str, Any]:
    """Capability block for ``repro list --json`` (never raises).

    Reports the store a default ``repro run`` would use.  A missing or
    empty store directory reports zero entries, not an error.
    """
    root = resolve_root(default_root())
    if root is None:
        return {"enabled": False, "path": None, "entries": 0}
    return {"enabled": True, "path": str(root),
            "entries": ArtifactStore(root).entry_count()}
