"""Payload sizing and reduction operators for the simulated MPI.

numpy is looked up in ``sys.modules`` rather than imported: while it is
not loaded, no payload can be an array, and the MPI layer imports
without it.
"""

from __future__ import annotations

import pickle
import sys
from typing import Any, Iterable, List, Sequence

#: Fallback wire size for objects whose size cannot be derived structurally.
_DEFAULT_OBJ_NBYTES = 64


#: Builtin scalars that travel as one 8-byte word. Exact types only:
#: numpy scalars subclass float and int and report their own size. The
#: communicator sizes these without calling :func:`payload_nbytes`.
WORD_TYPES = frozenset((float, int, bool))


def payload_nbytes(obj: Any) -> int:
    """Wire size in bytes of a message payload.

    NumPy arrays and scalars report their buffer sizes; ``bytes`` report
    their length; numbers count as 8 bytes; containers sum their elements.
    Anything else falls back to its pickle length (mirroring mpi4py's
    pickle path for generic objects).
    """
    if type(obj) in WORD_TYPES:
        return 8
    if obj is None:
        return 0
    np = sys.modules.get("numpy")
    if np is not None and isinstance(obj, (np.ndarray, np.generic)):
        return int(obj.nbytes)
    if isinstance(obj, (bytes, bytearray, memoryview)):
        return len(obj)
    if isinstance(obj, (bool, int, float, complex)):
        return 8
    if isinstance(obj, str):
        return len(obj.encode())
    if isinstance(obj, (list, tuple)):
        return sum(payload_nbytes(x) for x in obj)
    if isinstance(obj, dict):
        return sum(payload_nbytes(k) + payload_nbytes(v) for k, v in obj.items())
    try:
        return len(pickle.dumps(obj))
    except Exception:  # pragma: no cover - exotic unpicklable objects
        return _DEFAULT_OBJ_NBYTES


def _maximum(acc: Any, x: Any) -> Any:
    import numpy as np

    return np.maximum(acc, x)


def _minimum(acc: Any, x: Any) -> Any:
    import numpy as np

    return np.minimum(acc, x)


_OPS = {
    "sum": lambda acc, x: acc + x,
    "prod": lambda acc, x: acc * x,
    "max": _maximum,
    "min": _minimum,
}


def reduce_values(values: Sequence[Any], op: str = "sum") -> Any:
    """Combine per-rank contributions with an MPI reduction operator.

    Works elementwise on NumPy arrays and on scalars. ``max``/``min`` on
    plain Python scalars return Python scalars.
    """
    if op not in _OPS:
        raise ValueError(f"unknown reduction op {op!r}; choose from {sorted(_OPS)}")
    if not values:
        raise ValueError("cannot reduce an empty value list")
    it = iter(values)
    acc = next(it)
    np = sys.modules.get("numpy")
    if np is not None and isinstance(acc, np.ndarray):
        acc = acc.copy()
    fn = _OPS[op]
    for v in it:
        acc = fn(acc, v)
    if op in ("max", "min"):
        # numpy.maximum on scalars yields numpy scalars; normalize. The op
        # itself may have loaded numpy, so look it up again.
        np = sys.modules.get("numpy")
        if np is not None and isinstance(acc, np.generic):
            acc = acc.item()
    return acc
