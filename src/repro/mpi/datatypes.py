"""Payload sizing and reduction operators.

The simulator charges communication time by payload size; since the API
carries Python objects (mpi4py-style), :func:`nbytes_of` estimates the wire
size of common payload types.  NumPy arrays — the recommended payload for
performance-sensible code, as in mpi4py — are exact.
"""

from __future__ import annotations

import sys
from typing import Any, Callable

import numpy as np

from repro.sim.blocks import ContribBlock, _Accum

#: wire overhead per Python container element (boxing, headers)
_ELEM_OVERHEAD = 8


def nbytes_of(obj: Any) -> int:
    """Estimated serialised size of a payload, in bytes.

    Exact for ``numpy`` arrays/scalars, ``bytes`` and ``str``; a recursive
    estimate for lists/tuples/dicts; ``sys.getsizeof`` as a last resort.

    This sits on the shuffle's size-estimation hot path (millions of calls
    per figure), so the common exact types dispatch through a table; only
    subclasses and numpy types fall back to the isinstance chain.  Both
    paths return identical values.
    """
    handler = _NBYTES_EXACT.get(type(obj))
    if handler is not None:
        return handler(obj)
    return _nbytes_of_slow(obj)


def _container_nbytes(obj) -> int:
    # scalar elements (the overwhelmingly common case for shuffle records)
    # are sized inline; everything else recurses
    total = _ELEM_OVERHEAD
    for x in obj:
        t = type(x)
        if t is int or t is float:
            total += 8 + _ELEM_OVERHEAD
        else:
            total += nbytes_of(x) + _ELEM_OVERHEAD
    return total


#: the exact types ``nbytes_of`` prices at 8 bytes with no recursion
_SCALAR_TYPES = {int, float}


def _dict_nbytes(obj: dict) -> int:
    # a dict of plain ints and floats (count_by_key's replies, a broadcast
    # degree table) is priced 8 + 8 + overhead per entry: two C-level type
    # scans instead of the loop; bool and int subclasses fail the scan
    if (set(map(type, obj)) <= _SCALAR_TYPES
            and set(map(type, obj.values())) <= _SCALAR_TYPES):
        return _ELEM_OVERHEAD + (16 + _ELEM_OVERHEAD) * len(obj)
    total = _ELEM_OVERHEAD
    for k, v in obj.items():
        total += nbytes_of(k) + nbytes_of(v) + _ELEM_OVERHEAD
    return total


#: exact-type fast paths; ``type()`` keys cannot misfire on subclasses
#: (``bool`` has its own entry, so ``int``'s never sees it)
_NBYTES_EXACT = {
    int: lambda o: 8,
    float: lambda o: 8,
    complex: lambda o: 8,
    bool: lambda o: 1,
    type(None): lambda o: 1,
    str: lambda o: len(o.encode()),
    bytes: len,
    bytearray: len,
    memoryview: len,
    tuple: _container_nbytes,
    list: _container_nbytes,
    set: _container_nbytes,
    frozenset: _container_nbytes,
    dict: _dict_nbytes,
    # sparse contribution blocks size as the dense slice they stand in
    # for, so protocol choices and combine charges match the dense path
    ContribBlock: lambda o: o.nbytes,
    _Accum: lambda o: o.nbytes,
}


def _nbytes_of_slow(obj: Any) -> int:
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes)
    if isinstance(obj, np.generic):
        return int(obj.nbytes)
    if isinstance(obj, (bytes, bytearray, memoryview)):
        return len(obj)
    if isinstance(obj, str):
        return len(obj.encode())
    if isinstance(obj, bool) or obj is None:
        return 1
    if isinstance(obj, (int, float, complex)):
        return 8
    if isinstance(obj, (list, tuple, set, frozenset)):
        return _container_nbytes(obj)
    if isinstance(obj, dict):
        return _dict_nbytes(obj)
    return int(sys.getsizeof(obj))


def _copy_buffer(obj: Any) -> Any:
    if isinstance(obj, np.ndarray):
        return obj.copy()
    if isinstance(obj, bytearray):
        return bytearray(obj)
    return obj


def _copy_element(obj: Any) -> Any:
    # a read-only array that owns its data is the sender's promise that
    # nobody writes it (a read-only *view* promises nothing about its base)
    if (isinstance(obj, np.ndarray) and not obj.flags.writeable
            and obj.flags.owndata):
        return obj
    return _copy_buffer(obj)


def copy_payload(obj: Any) -> Any:
    """Defensive copy applied on delivery, mirroring MPI's copy semantics.

    Mutable buffers (ndarrays, bytearrays) are copied so sender-side reuse
    cannot corrupt received data; immutable payloads pass through.  The
    copy reaches one container level down — the elements of a list or
    tuple and the values of a dict — which is as deep as the collectives
    nest a caller's buffers; a container holding no such buffer passes
    through as is.  Inside a container, a read-only array that owns its
    data is shared with the receiver, zero-copy: freezing a buffer is how
    a sender declares it safe to alias.
    """
    t = type(obj)
    if t is list or t is tuple:
        items: Any = enumerate(obj)
    elif t is dict:
        items = obj.items()
    else:
        return _copy_buffer(obj)
    out = None
    for k, v in items:
        copied = _copy_element(v)
        if copied is not v:
            if out is None:
                out = dict(obj) if t is dict else list(obj)
            out[k] = copied
    if out is None:
        return obj
    return tuple(out) if t is tuple else out


# -- reduction operators ------------------------------------------------------

def SUM(a: Any, b: Any) -> Any:
    """Elementwise/scalar sum (``MPI_SUM``)."""
    return a + b


def PROD(a: Any, b: Any) -> Any:
    """Elementwise/scalar product (``MPI_PROD``)."""
    return a * b


def MIN(a: Any, b: Any) -> Any:
    """Elementwise/scalar minimum (``MPI_MIN``)."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.minimum(a, b)
    return min(a, b)


def MAX(a: Any, b: Any) -> Any:
    """Elementwise/scalar maximum (``MPI_MAX``)."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.maximum(a, b)
    return max(a, b)


ReduceOp = Callable[[Any, Any], Any]

# The ufunc twin of each built-in op takes the operands in the same order,
# so ``twin(a, b, out=...)`` holds bit for bit what ``op(a, b)`` returns.
SUM.ufunc = np.add
PROD.ufunc = np.multiply
MIN.ufunc = np.minimum
MAX.ufunc = np.maximum


def combine(op: ReduceOp, a: Any, b: Any, out: Any) -> Any:
    """``op(a, b)``, written into ``out`` where that changes nothing else.

    ``out`` is whichever operand the calling collective exclusively owns —
    a buffer it has just received.  Only a built-in op on two plain arrays
    of one shape and dtype is combined in place; user-defined ops,
    scalars, sparse blocks and mismatched arrays see the plain call.
    """
    twin = getattr(op, "ufunc", None)
    if (twin is not None and type(a) is np.ndarray and type(b) is np.ndarray
            and a.ndim and a.shape == b.shape and a.dtype == b.dtype
            and out.flags.writeable):
        return twin(a, b, out=out)
    return op(a, b)
