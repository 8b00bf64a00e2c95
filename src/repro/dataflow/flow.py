"""The network-side egress element.

P2 moves tuples between rule strands and the network stack with Click glue
(Section 3.4: queues, demultiplexers, round-robin, timed pull-push).  Here
strands run to completion off the node's run queue, so the only glue left is
the output side of Figure 2: one :class:`TransmitBuffer` per node that turns
each drain's remote-bound tuples into per-destination datagram trains.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from ..core.tuples import Tuple
from .element import Element


class TransmitBuffer(Element):
    """Coalesces one round's outbound tuples into per-destination batches.

    The buffer absorbs the remote-bound tuples a node derives while draining
    its run queue and, on :meth:`flush`, hands each destination its whole
    burst in one call — the hook ``Network.send_batch`` turns into a single
    datagram train.  Batches are keyed per destination in first-appearance
    order, and each destination's tuples keep their exact arrival order, so
    the per-destination byte stream is identical to what tuple-at-a-time
    sending would have produced.
    """

    kind = "transmit-buffer"

    def __init__(self, name: str = "transmit"):
        super().__init__(name)
        self._queues: Dict[object, List[Tuple]] = {}
        self._count = 0
        self.flushes = 0
        self.batches = 0

    def enqueue(self, destination, tup: Tuple) -> None:
        """Buffer *tup* for *destination*."""
        self.stats.pushed_in += 1
        self._count += 1
        queue = self._queues.get(destination)
        if queue is None:
            self._queues[destination] = [tup]
        else:
            queue.append(tup)

    def __len__(self) -> int:
        return self._count

    def destinations(self) -> List[object]:
        return list(self._queues)

    def clear(self) -> None:
        """Discard everything buffered (crash-stop: unsent datagrams are lost)."""
        self._queues = {}
        self._count = 0

    def flush(self, sender: Callable[[object, List[Tuple]], object]) -> int:
        """Hand every destination its batch via ``sender(dst, batch)``.

        Returns the number of tuples flushed.  The buffer is emptied before
        the first send so a re-entrant enqueue (none exists today, but hooks
        may route) lands in the next round rather than this one.
        """
        if not self._queues:
            return 0
        queues, self._queues = self._queues, {}
        flushed, self._count = self._count, 0
        self.flushes += 1
        for destination, batch in queues.items():
            self.batches += 1
            self.stats.emitted += len(batch)
            sender(destination, batch)
        return flushed
