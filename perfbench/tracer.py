"""Span tracing for the traced benchmark run.

The tracer wraps the public entry points of each engine layer from the
outside (class attributes, one module function, per-instance strand
closures), so the engine itself carries no tracing code.  Each wrapped call
is a span; spans nest on one stack, and a span's *self time* is its duration
minus the time its child spans cover.  Spans are folded into per-layer
accumulators as they close and stay in memory until the run ends.

:meth:`Tracer.install` must run before the traced simulation is built: the
fused strands bind table methods, PEL closures and ``values.coerce`` when
they are compiled, so only wrappers present at build time are ever called.
:meth:`Tracer.uninstall` restores every patched attribute; closures built
while tracing keep their wrappers, so a traced simulation is discarded and
never reused by an untraced run.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Dict, List, Tuple

from repro.core import values
from repro.core.tuples import Tuple as P2Tuple
from repro.net.reliable import ReliableLayer
from repro.net.transport import Network
from repro.pel.program import Program
from repro.planner.planner import Planner
from repro.runtime.node import P2Node
from repro.sim.churn import ChurnProcess
from repro.sim.event_loop import EventLoop
from repro.sim.faults import LinkConditioner
from repro.sim.metrics import BandwidthMeter, LookupTracker
from repro.sim.shards import ShardedEventLoop
from repro.sim.workload import LookupWorkload
from repro.tables.table import Table

#: (owner, attribute, span name) for every class-level entry point wrapped
#: as a timed span.  The harness rows carve the benchmark's own tracker,
#: workload, churn and meter callbacks out of the engine layers they run in.
SPANS: Tuple[Tuple[Any, str, str], ...] = (
    (P2Node, "receive", "runtime.dispatch"),
    (P2Node, "receive_batch", "runtime.dispatch"),
    (P2Node, "inject", "runtime.dispatch"),
    (Table, "insert", "tables.insert"),
    (Table, "delete", "tables.delete"),
    (Network, "send", "net.send"),
    (Network, "send_batch", "net.send"),
    (ReliableLayer, "send_tuple", "net.reliable"),
    (ReliableLayer, "send_train", "net.reliable"),
    (LinkConditioner, "reachable", "sim.fault"),
    (LinkConditioner, "datagram_lost", "sim.fault"),
    (ShardedEventLoop, "run_until", "sim.barrier"),
    (EventLoop, "run_until", "sim.loop"),
    (EventLoop, "run_until_exclusive", "sim.loop"),
    (LookupTracker, "register", "sim.harness"),
    (LookupTracker, "_on_send", "sim.harness"),
    (LookupTracker, "_on_results", "sim.harness"),
    (LookupTracker, "_sweep", "sim.harness"),
    (LookupWorkload, "_tick", "sim.harness"),
    (ChurnProcess, "_churn_once", "sim.harness"),
    (BandwidthMeter, "_sample", "sim.harness"),
)

#: Table probes: timed like SPANS, and also counted as hits when the
#: returned rows are a sized container that is not empty.
PROBES: Tuple[str, ...] = ("lookup", "lookup_iter", "scan", "scan_iter")

#: (owner, attribute, counter) for entry points that are counted, not timed.
COUNTED: Tuple[Tuple[Any, str, str], ...] = (
    (ShardedEventLoop, "_run_window", "sim.shard_windows"),
    (P2Tuple, "__init__", "core.tuples_built"),
    (values, "coerce", "core.coerce_calls"),
)


class Tracer:
    """Per-layer self time and call counts from wrapped entry points."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        #: counts kept next to the spans: probe hits, strand rows out, ...
        self.counts: Counter = Counter()
        self._stack: List[List[float]] = []
        #: (owner, attribute, original) of every patch, kept after uninstall
        #: so :meth:`leftovers` can check the restore
        self._patches: List[Tuple[Any, str, Any]] = []
        self._in_probe = [False]
        self._pel: Dict[int, Tuple[Callable, Callable]] = {}

    # -- spans -------------------------------------------------------------------
    def span(self, name: str, fn: Callable) -> Callable:
        """Return *fn* wrapped in a span named *name*."""
        stack = self._stack
        clock = time.perf_counter
        self_s = self.self_s
        calls = self.calls

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self_s[name] += elapsed - frame[0]
                calls[name] += 1
                if stack:
                    stack[-1][0] += elapsed

        traced.perfbench_span = name
        return traced

    # -- installation -----------------------------------------------------------
    def _patch(self, owner: Any, attr: str, wrap: Callable[[Callable], Callable]) -> None:
        original = vars(owner)[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrap(original))

    def install(self) -> None:
        """Wrap every layer entry point; call before building the simulation.

        A tracer is installed once: its counters describe one traced run.
        """
        if self._patches:
            raise RuntimeError("a tracer is installed once")
        for owner, attr, name in SPANS:
            self._patch(owner, attr, functools.partial(self.span, name))
        for attr in PROBES:
            self._patch(Table, attr, self._probe)
        for owner, attr, name in COUNTED:
            self._patch(owner, attr, functools.partial(self._counted, name))
        self._patch(Planner, "compile", self._compile)
        self._patch(Program, "compiled", self._pel_compiled)
        self._patch(EventLoop, "schedule_at", self._scheduling)
        self._patch(EventLoop, "post_at", self._scheduling)

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._pel.clear()

    def leftovers(self) -> List[str]:
        """Patched attributes that do not hold their original value.

        Empty after :meth:`uninstall`; the benchmark checks this before any
        untraced run starts.
        """
        return [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, original in self._patches
            if vars(owner)[attr] is not original
        ]

    # -- wrapper factories -------------------------------------------------------
    def _counted(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        counted.perfbench_span = name
        return counted

    def _probe(self, fn: Callable) -> Callable:
        timed = self.span("tables.probe", fn)
        counts = self.counts
        inside = self._in_probe

        def probe(*args, **kwargs):
            if inside[0]:
                # Table.lookup calls lookup_iter: one probe, not two
                return fn(*args, **kwargs)
            inside[0] = True
            try:
                rows = timed(*args, **kwargs)
            finally:
                inside[0] = False
            # Generators (index-less scans) are handed back untouched, so
            # their outcome is unknown and they stay out of the hit ratio.
            if hasattr(rows, "__len__"):
                counts["tables.probes_sized"] += 1
                if len(rows):
                    counts["tables.probe_hits"] += 1
            return rows

        probe.perfbench_span = "tables.probe"
        return probe

    def _compile(self, fn: Callable) -> Callable:
        timed = self.span("planner.compile", fn)

        def compile(planner):
            compiled = timed(planner)
            self._wrap_strands(compiled)
            return compiled

        compile.perfbench_span = "planner.compile"
        return compile

    def _wrap_strands(self, compiled) -> None:
        """Wrap each fused strand closure of a freshly compiled node.

        The closures are instance attributes installed by the strand
        compiler, so this runs for every node, including churn joins.
        """
        for strands in compiled.strands_by_event.values():
            for strand in strands:
                strand.process = self._fire(strand.process)
        for spec in compiled.periodics:
            spec.strand.process = self._fire(spec.strand.process)
        for cont in compiled.continuous:
            cont.recompute = self._recompute(cont.recompute)

    def _fire(self, fn: Callable) -> Callable:
        timed = self.span("strand.fire", fn)
        counts = self.counts

        def fire(event, local_address):
            result = timed(event, local_address)
            counts["strand.rows_out"] += len(result.routes)
            return result

        return fire

    def _recompute(self, fn: Callable) -> Callable:
        timed = self.span("strand.recompute", fn)
        counts = self.counts

        def recompute(now, local_address):
            routes = timed(now, local_address)
            if routes:
                counts["strand.recompute_emits"] += 1
            return routes

        return recompute

    def _pel_compiled(self, fn: Callable) -> Callable:
        cache = self._pel

        def compiled(program):
            closure = fn(program)
            entry = cache.get(id(closure))
            if entry is None:
                # keep the closure alive so its id cannot be reused
                entry = cache[id(closure)] = (closure, self.span("pel.eval", closure))
            return entry[1]

        compiled.perfbench_span = "pel.eval"
        return compiled

    def _scheduling(self, fn: Callable) -> Callable:
        def schedule(loop, when, callback, priority=()):
            # Already a span: a posted event scheduled again when its inbox
            # drains, or a harness method, which is timed as harness instead.
            if getattr(callback, "perfbench_span", None) is None:
                callback = self.span("sim.callback", callback)
            return fn(loop, when, callback, priority)

        schedule.perfbench_span = "sim.callback"
        return schedule
