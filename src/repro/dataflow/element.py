"""Dataflow elements: the Click-inspired building blocks of a P2 node.

An :class:`Element` transforms one input tuple into zero or more output
tuples.  As in the paper, elements are small, composable, and parameterised
by PEL programs where they need per-tuple computation.  The planner chains
them into rule strands; where P2 connects strands to each other and to the
network with Click glue (queues, demultiplexers, round-robin schedulers),
this engine runs each strand to completion off the node's run queue and
sends every remote-bound head tuple through one
:class:`~repro.dataflow.flow.TransmitBuffer`.

Strands call :meth:`Element.process` directly, either element by element
(the interpreted walk, kept as the differential oracle) or through the
closures :mod:`repro.planner.strand_compiler` builds from each operator's
compile hook.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List

from ..core.tuples import Tuple


@dataclass
class ElementStats:
    """Per-element counters (exported for introspection/debugging).

    ``dropped`` (and ``emitted`` for :class:`Aggregate`) is maintained by
    the operators' own ``process`` logic; the :class:`TransmitBuffer` keeps
    ``pushed_in``/``emitted`` for what it buffers and flushes.  Fused strand
    closures are required to advance every counter identically to the
    interpreted walk (the strand-fusion differential suite asserts this).
    """

    pushed_in: int = 0
    emitted: int = 0
    dropped: int = 0


class Element:
    """Base class for all dataflow elements."""

    #: subclasses override for nicer graph dumps
    kind = "element"

    def __init__(self, name: str = ""):
        self.name = name or self.kind
        self.stats = ElementStats()

    def process(self, tup: Tuple, port: int = 0) -> Iterable[Tuple]:
        """Transform one input tuple into zero or more output tuples.

        Subclasses implement this; the default is the identity.
        """
        return (tup,)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"


class Graph:
    """A registry of the elements making up one node's dataflow.

    The planner registers every element it creates so tests and the logging
    facility can inspect the compiled graph (element counts, per-element
    statistics), mirroring the introspection story in Section 3.5 / 7.
    """

    def __init__(self) -> None:
        self._elements: List[Element] = []

    def add(self, element: Element) -> Element:
        self._elements.append(element)
        return element

    def elements(self) -> List[Element]:
        return list(self._elements)

    def by_kind(self, kind: str) -> List[Element]:
        return [e for e in self._elements if e.kind == kind]

    def __len__(self) -> int:
        return len(self._elements)

    def describe(self) -> str:
        """A human-readable dump of the graph (element kind, name, stats)."""
        lines = []
        for e in self._elements:
            lines.append(
                f"{e.kind:16s} {e.name:40s} in={e.stats.pushed_in} out={e.stats.emitted}"
            )
        return "\n".join(lines)
