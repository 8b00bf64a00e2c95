"""The P2 concrete type system.

The paper's runtime passes around reference-counted ``Value`` objects: strings,
integers, floating-point timestamps, booleans, null, and large unique
identifiers.  In Python we represent values with plain objects and centralise
the *coercion and comparison rules* here, so that the PEL virtual machine, the
table layer, and the network marshaler all agree on how values behave.

The important operations are:

* :func:`coerce` — normalise an arbitrary Python object into a P2 value.
* :func:`value_type` — the :class:`ValueType` tag used by marshaling.
* :func:`to_int`, :func:`to_float`, :func:`to_bool`, :func:`to_str` —
  conversions with P2 semantics (e.g. the null value converts to 0 / "" /
  False rather than raising).
* :func:`compare` — a total order across values of mixed types, needed by
  aggregates (``min``/``max``) and by table indices.
* :func:`estimate_size` — serialized size in bytes, used by the transport for
  maintenance-bandwidth accounting.
"""

from __future__ import annotations

import enum
import hashlib
from typing import Any, Iterable, Tuple as PyTuple, Union

from .errors import ValueError_

#: The distinguished null value.  The paper writes it as ``"-"`` in Chord's
#: landmark/pred facts; we accept both ``NULL`` and the string "-" and treat
#: the string form as an ordinary string (the specs compare against "-"
#: explicitly), while ``NULL`` is the type-system level null.
NULL = None

ValueLike = Union[None, bool, int, float, str, bytes, PyTuple[Any, ...]]


class ValueType(enum.IntEnum):
    """Wire-level tags for marshaled values."""

    NULL = 0
    BOOL = 1
    INT = 2
    FLOAT = 3
    STR = 4
    BYTES = 5
    ID = 6        # large unique identifier (unbounded int, e.g. 160-bit)
    LIST = 7      # tuple of values (used rarely, e.g. for debugging payloads)


#: The exact types :func:`coerce` returns unchanged.  A field whose type is in
#: this set is already a P2 value, so callers may test ``type(v) in
#: SCALAR_TYPES`` (one C-level set probe) before paying for :func:`coerce`.
SCALAR_TYPES = frozenset({type(None), bool, int, float, str, bytes})

#: Integers at or above this magnitude are tagged as IDs when marshaled; the
#: distinction only affects size accounting, not semantics.
_ID_THRESHOLD = 1 << 63


def coerce(obj: Any) -> ValueLike:
    """Normalise *obj* into a value the rest of the system understands.

    Accepts the Python primitives used throughout the library and rejects
    anything else loudly — silent acceptance of arbitrary objects makes
    marshaling bugs very hard to find.
    """
    if obj is None or isinstance(obj, (bool, int, float, str, bytes)):
        return obj
    if isinstance(obj, (list, tuple)):
        return tuple(coerce(x) for x in obj)
    raise ValueError_(f"cannot represent {obj!r} ({type(obj).__name__}) as a P2 value")


def value_type(value: ValueLike) -> ValueType:
    """Return the wire tag for *value*."""
    if value is None:
        return ValueType.NULL
    if isinstance(value, bool):
        return ValueType.BOOL
    if isinstance(value, int):
        return ValueType.ID if abs(value) >= _ID_THRESHOLD else ValueType.INT
    if isinstance(value, float):
        return ValueType.FLOAT
    if isinstance(value, str):
        return ValueType.STR
    if isinstance(value, bytes):
        return ValueType.BYTES
    if isinstance(value, tuple):
        return ValueType.LIST
    raise ValueError_(f"unknown value {value!r}")


def to_int(value: ValueLike) -> int:
    """Convert to an integer with P2 coercion rules."""
    if value is None:
        return 0
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, (int, float)):
        return int(value)
    if isinstance(value, str):
        try:
            return int(value, 0)
        except ValueError:
            raise ValueError_(f"cannot convert string {value!r} to int") from None
    raise ValueError_(f"cannot convert {value!r} to int")


def to_float(value: ValueLike) -> float:
    """Convert to a float with P2 coercion rules."""
    if value is None:
        return 0.0
    if isinstance(value, bool):
        return float(value)
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, str):
        try:
            return float(value)
        except ValueError:
            raise ValueError_(f"cannot convert string {value!r} to float") from None
    raise ValueError_(f"cannot convert {value!r} to float")


def to_bool(value: ValueLike) -> bool:
    """Convert to a boolean (null and empty containers are false)."""
    if value is None:
        return False
    if isinstance(value, (bool, int, float)):
        return bool(value)
    if isinstance(value, (str, bytes, tuple)):
        return len(value) > 0
    raise ValueError_(f"cannot convert {value!r} to bool")


def to_str(value: ValueLike) -> str:
    """Convert to a display string."""
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, bytes):
        return value.hex()
    return str(value)


def _rank(value: ValueLike) -> int:
    """Rank of a value's type in the cross-type total order."""
    if value is None:
        return 0
    if isinstance(value, bool):
        return 1
    if isinstance(value, (int, float)):
        return 2
    if isinstance(value, str):
        return 3
    if isinstance(value, bytes):
        return 4
    if isinstance(value, tuple):
        return 5
    raise ValueError_(f"unknown value {value!r}")


def compare(a: ValueLike, b: ValueLike) -> int:
    """Three-way comparison defining a total order over all values.

    Values of the same numeric family compare numerically; otherwise the type
    rank decides.  This mirrors P2's ``Value::compareTo`` and is what table
    indices and ``min``/``max`` aggregates use.  Two integers compare
    exactly (160-bit identifiers differ below float precision); any pair
    involving a float compares as floats.
    """
    if type(a) is int and type(b) is int:
        return (a > b) - (a < b)
    ra, rb = _rank(a), _rank(b)
    if ra == 2 and rb == 2:
        if isinstance(a, int) and isinstance(b, int):
            return (a > b) - (a < b)
        fa, fb = float(a), float(b)  # type: ignore[arg-type]
        return (fa > fb) - (fa < fb)
    if ra != rb:
        return (ra > rb) - (ra < rb)
    if a == b:
        return 0
    return 1 if a > b else -1  # type: ignore[operator]


def equal(a: ValueLike, b: ValueLike) -> bool:
    """Equality under the same rules as :func:`compare`."""
    if type(a) is int and type(b) is int:
        return a == b
    return compare(a, b) == 0


def estimate_size(value: ValueLike) -> int:
    """Approximate marshaled size in bytes (1 tag byte + payload).

    The paper reports maintenance traffic in bytes per second; this estimator
    backs that accounting.  Sizes follow XDR-like conventions: 4-byte ints,
    8-byte floats, length-prefixed strings, and big integers encoded in as many
    bytes as they need.
    """
    tag = 1
    if value is None or isinstance(value, bool):
        return tag + 1
    if isinstance(value, int):
        nbytes = max(4, (value.bit_length() + 7) // 8)
        return tag + nbytes
    if isinstance(value, float):
        return tag + 8
    if isinstance(value, str):
        return tag + 4 + len(value.encode("utf-8"))
    if isinstance(value, bytes):
        return tag + 4 + len(value)
    if isinstance(value, tuple):
        return tag + 4 + sum(estimate_size(v) for v in value)
    raise ValueError_(f"unknown value {value!r}")


def make_unique_id(seed: Iterable[Any]) -> int:
    """Derive a large unique identifier from *seed* (SHA-1 based, as Chord).

    Used both by the ``f_sha1`` OverLog built-in and by the hand-coded Chord
    baseline so that identifier assignment matches across implementations.
    """
    h = hashlib.sha1()
    for part in seed:
        h.update(to_str(part).encode("utf-8"))
        h.update(b"\x00")
    return int.from_bytes(h.digest(), "big")
