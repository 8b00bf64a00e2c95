"""Tests for the batch primitives the transport batching rides on.

These pin down:

* ``TransmitBuffer`` grouping (per-destination batches in first-appearance
  order);
* a randomized differential check that a node fed tuple-at-a-time and
  batch-at-a-time reaches the same table fixpoint.
"""

import random

import pytest

from repro.core import Tuple
from repro.dataflow import TransmitBuffer


class TestTransmitBuffer:
    def test_groups_per_destination_in_first_appearance_order(self):
        buffer = TransmitBuffer()
        t1, t2, t3 = (Tuple.make("m", "b", i) for i in range(3))
        buffer.enqueue("b", t1)
        buffer.enqueue("c", t2)
        buffer.enqueue("b", t3)
        assert len(buffer) == 3
        assert buffer.destinations() == ["b", "c"]
        flushed = []
        assert buffer.flush(lambda dst, batch: flushed.append((dst, batch))) == 3
        assert flushed == [("b", [t1, t3]), ("c", [t2])]
        assert len(buffer) == 0
        assert buffer.flushes == 1 and buffer.batches == 2

    def test_clear_discards_everything(self):
        buffer = TransmitBuffer()
        buffer.enqueue("b", Tuple.make("m", "b", 1))
        buffer.clear()
        assert len(buffer) == 0
        assert buffer.flush(lambda dst, batch: 1 / 0) == 0


DIFFERENTIAL_PROGRAM = """
materialize(member, infinity, infinity, keys(2)).
materialize(score, infinity, infinity, keys(2)).
materialize(best, infinity, 1, keys(1)).

A1 member@X(X, M) :- addMember@X(X, M).
A2 score@X(X, M, S) :- setScore@X(X, M, S), member@X(X, M).
A3 best@X(X, min<S>) :- score@X(X, M, S).
D1 delete member@X(X, M) :- dropMember@X(X, M).
"""


def random_stream(rng, address, n):
    stream = []
    for _ in range(n):
        roll = rng.random()
        member = rng.randrange(8)
        if roll < 0.5:
            stream.append(Tuple.make("addMember", address, member))
        elif roll < 0.8:
            stream.append(Tuple.make("setScore", address, member, rng.randrange(100)))
        else:
            stream.append(Tuple.make("dropMember", address, member))
    return stream


class TestBatchDifferential:
    """Tuple-at-a-time and batch-at-a-time must reach the same fixpoint."""

    def fixpoint(self, node):
        return {
            name: sorted(map(repr, node.scan(name)))
            for name in ("member", "score", "best")
        }

    @pytest.mark.parametrize("seed", [1, 7, 23])
    def test_same_table_fixpoint(self, seed):
        from repro.runtime import OverlaySimulation

        rng = random.Random(seed)
        stream = random_stream(rng, "n", 200)

        sims = [OverlaySimulation(DIFFERENTIAL_PROGRAM, seed=seed) for _ in range(2)]
        one_at_a_time = sims[0].add_node("n")
        batched = sims[1].add_node("n")

        for tup in stream:
            one_at_a_time.route(tup)

        # feed the identical stream in random-sized datagram batches
        i = 0
        while i < len(stream):
            chunk = stream[i : i + rng.randrange(1, 17)]
            batched.receive_batch(chunk)
            i += len(chunk)

        assert self.fixpoint(one_at_a_time) == self.fixpoint(batched)
        assert one_at_a_time.events_processed == batched.events_processed
