"""Tuples: the unit of data transfer in P2.

A :class:`Tuple` is an immutable, named vector of values.  The name is the
relation (table or stream) the tuple belongs to — e.g. ``lookup`` or
``succ`` — and the fields follow the positional convention of the paper: the
first field is almost always the address of the node where the tuple lives
(the location specifier ``@NI``).

Tuples are immutable once created (the paper makes the same design decision,
so that a tuple can be both stored and forwarded without copying); "modifying"
a tuple means building a new one.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Optional, Sequence, Tuple as PyTuple

from . import values
from .errors import TupleError

_SCALARS = values.SCALAR_TYPES

_tuple_counter = 0


def fresh_tuple_id() -> int:
    """Monotonically increasing tuple identifier (used for event IDs)."""
    global _tuple_counter
    _tuple_counter += 1
    return _tuple_counter


class Tuple:
    """An immutable named tuple of P2 values.

    Parameters
    ----------
    name:
        Relation name, e.g. ``"lookup"``.
    fields:
        The values, as any iterable (consumed once); coerced through
        :func:`repro.core.values.coerce`.

    Every tuple is checked; there is no unchecked constructor.  The check is
    cheap in the common case: one C-level pass over the field types decides
    whether all of them are already in :data:`~repro.core.values.SCALAR_TYPES`
    (which ``coerce`` returns unchanged), and only otherwise — a list, a
    tuple, a subclass or an unknown object among the fields — does the
    per-field ``coerce`` pass run, which also rejects unrepresentable values.
    """

    __slots__ = ("name", "fields", "_hash")

    def __init__(self, name: str, fields: Iterable[Any] = ()):
        if not name or not isinstance(name, str):
            raise TupleError(f"tuple name must be a non-empty string, got {name!r}")
        coerced = tuple(fields)
        if not _SCALARS.issuperset(map(type, coerced)):
            coerced = tuple(map(values.coerce, coerced))
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "fields", coerced)
        # Precomputed: tuples are hashed on every table insert/lookup and as
        # index keys, so paying the hash once at construction keeps the table
        # hot path free of the lazy-initialisation branch.
        # The hash is an in-process dict/set key only: it never feeds seeds,
        # persisted state, or cross-process ordering (those sort on fields).
        object.__setattr__(self, "_hash", hash((name, coerced)))  # det: allow(DET002): in-process key only

    # -- construction helpers -------------------------------------------------
    @classmethod
    def make(cls, name: str, *fields: Any) -> "Tuple":
        """Convenience constructor: ``Tuple.make("succ", ni, s, si)``."""
        return cls(name, fields)

    def rename(self, name: str) -> "Tuple":
        """Return a copy of this tuple under a different relation name."""
        return Tuple(name, self.fields)

    def append(self, *extra: Any) -> "Tuple":
        """Return a new tuple with *extra* values appended."""
        return Tuple(self.name, self.fields + tuple(values.coerce(x) for x in extra))

    def project(self, positions: Sequence[int], name: Optional[str] = None) -> "Tuple":
        """Return a new tuple holding the fields at *positions* (0-based)."""
        try:
            fields = tuple(self.fields[p] for p in positions)
        except IndexError:
            raise TupleError(
                f"projection positions {positions} out of range for arity {len(self.fields)}"
            ) from None
        return Tuple(name or self.name, fields)

    # -- immutability ----------------------------------------------------------
    def __setattr__(self, key: str, value: Any) -> None:
        raise TupleError("tuples are immutable")

    # -- accessors -------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.fields)

    def __getitem__(self, idx: int) -> Any:
        try:
            return self.fields[idx]
        except IndexError:
            raise TupleError(
                f"field {idx} out of range for {self.name!r} (arity {len(self.fields)})"
            ) from None

    def __iter__(self) -> Iterator[Any]:
        return iter(self.fields)

    def key(self, positions: Iterable[int]) -> PyTuple[Any, ...]:
        """Return the sub-tuple of fields at *positions* (used as index keys)."""
        return tuple(self.fields[p] for p in positions)

    # -- equality / hashing ----------------------------------------------------
    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Tuple)
            and self.name == other.name
            and self.fields == other.fields
        )

    def __hash__(self) -> int:
        return self._hash

    # -- sizing / display --------------------------------------------------------
    def estimate_size(self) -> int:
        """Approximate marshaled size in bytes (name + fields)."""
        return 4 + len(self.name) + sum(values.estimate_size(f) for f in self.fields)

    def __repr__(self) -> str:
        inner = ", ".join(values.to_str(f) for f in self.fields)
        return f"{self.name}({inner})"
