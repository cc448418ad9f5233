"""Content-addressed artifact cache (see ``docs/caching.md``).

One plane over one on-disk store (default ``.repro-cache/``): each driver
Unit's result is stored keyed by (experiment id, resolved params, machine
spec, code version), letting ``repro run`` skip unchanged units and replay
their results byte-identically.

Caching is strictly an *execution* optimisation: cold, warm and
``--no-cache`` runs produce byte-identical golden fingerprints, and every
entry is checksum-verified on open — corrupted or version-mismatched
entries are dropped and re-executed, never served.  The package holds no
process-wide state: a run opens ``ArtifactStore(root)`` where it needs it.
"""

from repro.cache.keys import (FORMAT_VERSION, UncacheableError, cache_key,
                              code_version, encode_value)
from repro.cache.results import decode_result, encode_result, try_encode_result
from repro.cache.store import (ArtifactStore, default_root, resolve_root,
                               store_info)

__all__ = [
    "FORMAT_VERSION",
    "UncacheableError",
    "encode_value",
    "cache_key",
    "code_version",
    "ArtifactStore",
    "default_root",
    "resolve_root",
    "store_info",
    "encode_result",
    "try_encode_result",
    "decode_result",
]
