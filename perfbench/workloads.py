"""The benchmark's three workloads.

Each workload builds one overlay from a seed (the set-up), advances it one
simulated second at a time while timing every step, and collects the
simulated results the output check compares.  The Chord drivers repeat the
exact call sequence of the in-tree experiment they mirror
(:func:`~repro.experiments.run_churn_experiment`,
:func:`~repro.experiments.run_static_experiment`), so a run with the same
arguments must produce the same simulated results; :meth:`reference` runs
that experiment for the check.

Lookup generation is an open loop in simulated time: ``LookupWorkload``
fires at its fixed simulated rate whether or not earlier lookups completed.
In wall time each job is a batch run of a fixed simulated length.
"""

from __future__ import annotations

import hashlib
import heapq
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.experiments import run_churn_experiment, run_static_experiment
from repro.net.topology import TransitStubTopology
from repro.overlays import chord
from repro.overlays.narada import build_narada_mesh
from repro.sim import FaultSchedule, GilbertElliott, faults
from repro.sim.churn import ChurnProcess
from repro.sim.metrics import BandwidthMeter, ConsistencyOracle, LookupTracker
from repro.sim.workload import LookupWorkload

#: The Figure-4 maintenance timers, scaled down with the session times as in
#: ``benchmarks/run_benchmarks.py``; copied rather than imported so that the
#: benchmark's inputs do not move when that runner changes.
MAINTENANCE_KWARGS = {
    "stabilize_period": 5.0,
    "succ_lifetime": 4.0,
    "ping_period": 2.0,
    "finger_period": 5.0,
}

#: Simulated seconds a lookup may take before it counts as failed.
LOOKUP_TIMEOUT = 10.0

#: Result fields the Chord experiments return that the driver must reproduce.
CHURN_FIELDS = (
    "lookup_latencies", "maintenance_bytes_per_second", "completion_rate",
    "consistent_fraction", "churn_events", "lookups_issued", "messages_sent",
    "datagrams_sent", "lookups_failed", "crash_events", "retransmits",
    "acks_sent", "dupes_dropped", "suppressed_sends", "dead_endpoint_drops",
)
STATIC_FIELDS = (
    "hop_counts", "lookup_latencies", "maintenance_bytes_per_second",
    "completion_rate", "consistent_fraction", "ring_consistency",
    "lookups_issued", "messages_sent", "datagrams_sent", "lookups_failed",
    "retransmits", "acks_sent", "dupes_dropped", "suppressed_sends",
    "dead_endpoint_drops", "rto_p99",
)


@dataclass
class Job:
    """One simulation job: its set-up and run times and what it produced."""

    seed: int
    setup_s: float = 0.0
    run_s: float = 0.0
    #: wall milliseconds of each simulated second, in order
    step_ms: List[float] = field(default_factory=list)
    #: simulated results; equal across repeats, traced runs and the reference
    result: Dict[str, Any] = field(default_factory=dict)
    #: operations issued and failed: lookups on Chord, and on Narada the
    #: (node, live member) pairs, failed when missing from the node's view
    ops: int = 0
    failed: int = 0
    #: failed lookups by cause (Chord only)
    fail_causes: Dict[str, int] = field(default_factory=dict)
    #: completed lookups, and those the oracle agrees with (Chord only)
    completed: int = 0
    consistent: int = 0
    #: simulated latency of each completed lookup, in ms (Chord only)
    lookup_ms: List[float] = field(default_factory=list)
    #: wire bytes sent, and the alive-node seconds they were sent over
    wire_bytes: int = 0
    node_seconds: float = 0.0
    #: engine objects the traced run reads its counters from
    simulation: Any = None
    nodes: List[Any] = field(default_factory=list)
    #: seconds of each :func:`reference_kernel` run, one after every step
    kernel_s: List[float] = field(default_factory=list)


class _Cell:
    __slots__ = ("key", "value")

    def __init__(self, key, value):
        self.key = key
        self.value = value


def reference_kernel() -> float:
    """Run one fixed pure-Python kernel; returns its wall seconds.

    It does the kind of work the engine's hot paths do (small objects,
    closures, tuple keys, dict and heap operations) but calls no engine
    code, so its time follows the CPU's current speed and nothing a change
    to the engine can affect.
    """
    start = time.perf_counter()
    table: Dict[Any, int] = {}
    heap: List[Any] = []
    keys = []
    key_of = lambda cell: (cell.key, cell.value & 7)  # noqa: E731
    for i in range(600):
        cell = _Cell(i & 63, i)
        key = key_of(cell)
        table[key] = table.get(key, 0) + cell.value
        heapq.heappush(heap, (cell.value * 7919 % 613, i))
        keys.append(key)
    while heap:
        heapq.heappop(heap)
    return time.perf_counter() - start


class Stepper:
    """Advances a simulation one simulated second at a time, timing each.

    After every step it also times :func:`reference_kernel`, so the run can
    tell how fast the CPU was while the job ran.
    """

    def __init__(self, simulation, nodes: List[Any], job: Job):
        self._run_for = simulation.run_for
        self._nodes = nodes
        self._job = job

    def advance(self, seconds: float) -> None:
        steps = int(seconds)
        if steps != seconds:
            raise ValueError(f"phase length {seconds} is not a whole number of seconds")
        run_for = self._run_for
        clock = time.perf_counter
        samples = self._job.step_ms
        kernel = self._job.kernel_s
        for _ in range(steps):
            start = clock()
            run_for(1.0)
            samples.append((clock() - start) * 1e3)
            kernel.append(reference_kernel())
            self._job.node_seconds += sum(1 for n in self._nodes if n.alive)


class CauseTracker(LookupTracker):
    """A lookup tracker that also notes whether each origin had joined.

    The check reads the origin's ``bestSucc`` row count without expiring the
    table (``bestSucc`` never expires), so it cannot change the run.
    """

    def __init__(self, *args, node_of: Callable[[str], Any], **kwargs):
        super().__init__(*args, **kwargs)
        self._node_of = node_of
        self.unjoined = set()

    def register(self, event_id, key, origin):
        if len(self._node_of(origin).table("bestSucc")) == 0:
            self.unjoined.add(event_id)
        return super().register(event_id, key, origin)


def _lookup_outcomes(job: Job, tracker: CauseTracker, departed: Dict[str, float]) -> None:
    """Fill the job's operation counts from a finished Chord tracker."""
    records = list(tracker.records.values())
    job.ops = len(records)
    causes = {"origin_departed": 0, "origin_unjoined": 0, "in_flight": 0}
    for record in records:
        if record.completed:
            job.completed += 1
            job.consistent += record.consistent
            job.lookup_ms.append(record.latency * 1e3)
        elif record.failed:
            job.failed += 1
            left = departed.get(record.origin)
            if left is not None and left <= record.issued_at + LOOKUP_TIMEOUT:
                causes["origin_departed"] += 1
            elif record.event_id in tracker.unjoined:
                causes["origin_unjoined"] += 1
            else:
                causes["in_flight"] += 1
    job.fail_causes = causes


def _fields(source, names) -> Dict[str, Any]:
    if isinstance(source, dict):
        return {name: source[name] for name in names}
    return {name: getattr(source, name) for name in names}


class ChordChurn:
    """Figure 4: a Chord ring stabilises, then churns under a lookup load."""

    name = "chord_churn"
    fields = CHURN_FIELDS

    def __init__(self, population=16, session_time=120.0, stabilization_time=120.0,
                 churn_duration=120.0, drain_time=20.0, job_seconds=8.5):
        self.sizes = dict(
            population=population, session_time=session_time,
            stabilization_time=stabilization_time, churn_duration=churn_duration,
            drain_time=drain_time,
        )
        #: wall seconds one job takes on the reference machine (sizes a run)
        self.job_seconds = job_seconds

    def args(self, seed: int) -> Dict[str, Any]:
        """Keyword arguments of the equivalent ``run_churn_experiment`` call."""
        return dict(
            self.sizes, seed=seed, join_stagger=1.0, lookup_rate=2.0, domains=10,
            program_kwargs=dict(MAINTENANCE_KWARGS), lookup_timeout=LOOKUP_TIMEOUT,
        )

    def reference(self, seed: int) -> Dict[str, Any]:
        a = self.args(seed)
        result = run_churn_experiment(a.pop("population"), a.pop("session_time"), **a)
        return _fields(result, self.fields)

    def setup(self, seed: int):
        a = self.args(seed)
        topology = TransitStubTopology(domains=a["domains"], seed=seed)
        network = chord.build_chord_network(
            a["population"], topology=topology, seed=seed,
            join_stagger=a["join_stagger"], program_kwargs=a["program_kwargs"],
        )
        network.simulation.network.set_classifier(chord.classify_chord_traffic)
        return network

    def run(self, network, job: Job) -> None:
        a = self.args(job.seed)
        sim = network.simulation
        job.simulation, job.nodes = sim, network.nodes
        step = Stepper(sim, network.nodes, job)
        step.advance(a["population"] * a["join_stagger"] + a["stabilization_time"])

        oracle = ConsistencyOracle(network.idspace, network.alive_ids)
        tracker = CauseTracker(
            sim.loop, sim.network, oracle, timeout=a["lookup_timeout"], node_of=sim.node
        )
        for node in network.nodes:
            tracker.attach(node)
        departed: Dict[str, float] = {}

        def add_member():
            node = network.add_member(join_delay=0.0)
            tracker.attach(node)
            return node

        def fail_member(address):
            departed[address] = sim.now
            network.fail_member(address)

        churn = ChurnProcess(
            sim.loop,
            session_time=a["session_time"],
            list_members=lambda: [n.address for n in network.nodes if n.alive],
            fail_member=fail_member,
            add_member=add_member,
            seed=job.seed + 7,
        )
        meter = BandwidthMeter(
            sim.loop, sim.network, category="maintenance",
            window=a["churn_duration"] / 10,
            alive_count=lambda: len([n for n in network.nodes if n.alive]),
        )
        workload = LookupWorkload(
            sim.loop, network, tracker, rate_per_second=a["lookup_rate"], seed=job.seed + 11
        )
        churn.start()
        meter.start()
        workload.start()
        step.advance(a["churn_duration"])
        churn.stop()
        workload.stop()
        meter.stop()
        step.advance(a["drain_time"])
        tracker.stop_sweep()
        tracker.expire_stale(sim.now)

        net = sim.network
        job.result = _fields(dict(
            lookup_latencies=tracker.latencies(),
            maintenance_bytes_per_second=meter.mean_rate(skip_initial=1),
            completion_rate=tracker.completion_rate(),
            consistent_fraction=tracker.consistent_fraction(),
            churn_events=churn.stats.failures,
            lookups_issued=workload.issued,
            messages_sent=net.messages_sent,
            datagrams_sent=net.datagrams_sent,
            lookups_failed=len(tracker.failures()),
            crash_events=churn.stats.crashes,
            retransmits=net.retransmits,
            acks_sent=net.acks_sent,
            dupes_dropped=net.dupes_dropped,
            suppressed_sends=net.suppressed_sends,
            dead_endpoint_drops=net.dead_endpoint_drops,
        ), self.fields)
        job.result["hop_counts"] = tracker.hop_counts()
        job.wire_bytes = net.total_tx_bytes()
        _lookup_outcomes(job, tracker, departed)


class ChordLossy:
    """Figure 3 static Chord, reliable transport, 2 shards, burst loss."""

    name = "chord_lossy"
    fields = STATIC_FIELDS

    def __init__(self, population=10, stabilization_time=60.0, idle_measurement_time=30.0,
                 lookup_count=120, drain_time=30.0, job_seconds=6.5):
        self.sizes = dict(
            population=population, stabilization_time=stabilization_time,
            idle_measurement_time=idle_measurement_time, lookup_count=lookup_count,
            drain_time=drain_time,
        )
        self.job_seconds = job_seconds

    def args(self, seed: int) -> Dict[str, Any]:
        """Keyword arguments of the equivalent ``run_static_experiment`` call."""
        return dict(
            self.sizes, seed=seed, join_stagger=1.0, lookup_rate=2.0, domains=10,
            program_kwargs=dict(MAINTENANCE_KWARGS), reliable=True, shards=2,
            lookup_timeout=LOOKUP_TIMEOUT,
        )

    @staticmethod
    def _faults() -> FaultSchedule:
        # a persistent Gilbert–Elliott burst from t=0, as fig_loss_recovery
        return FaultSchedule([faults.burst_loss(0.0, GilbertElliott(loss_bad=0.9))])

    def reference(self, seed: int) -> Dict[str, Any]:
        a = self.args(seed)
        result = run_static_experiment(a.pop("population"), faults=self._faults(), **a)
        return _fields(result, self.fields)

    def setup(self, seed: int):
        a = self.args(seed)
        topology = TransitStubTopology(domains=a["domains"], seed=seed)
        network = chord.build_chord_network(
            a["population"], topology=topology, seed=seed,
            join_stagger=a["join_stagger"], program_kwargs=a["program_kwargs"],
            reliable=a["reliable"], shards=a["shards"], faults=self._faults(),
        )
        network.simulation.network.set_classifier(chord.classify_chord_traffic)
        return network

    def run(self, network, job: Job) -> None:
        a = self.args(job.seed)
        sim = network.simulation
        job.simulation, job.nodes = sim, network.nodes
        step = Stepper(sim, network.nodes, job)
        step.advance(a["population"] * a["join_stagger"] + a["stabilization_time"])

        meter = BandwidthMeter(
            sim.loop, sim.network, category="maintenance",
            window=a["idle_measurement_time"] / 6,
            alive_count=lambda: len([n for n in network.nodes if n.alive]),
        )
        meter.start()
        step.advance(a["idle_measurement_time"])
        meter.stop()

        oracle = ConsistencyOracle(
            network.idspace, network.alive_ids,
            reachable=sim.fault_controller.conditioner.reachable,
        )
        tracker = CauseTracker(
            sim.loop, sim.network, oracle, timeout=a["lookup_timeout"], node_of=sim.node
        )
        for node in network.nodes:
            tracker.attach(node)
        workload = LookupWorkload(
            sim.loop, network, tracker, rate_per_second=a["lookup_rate"], seed=job.seed + 1
        )
        workload.start()
        step.advance(a["lookup_count"] / a["lookup_rate"])
        workload.stop()
        step.advance(a["drain_time"])
        tracker.stop_sweep()
        tracker.expire_stale(sim.now)

        net = sim.network
        job.result = _fields(dict(
            hop_counts=tracker.hop_counts(),
            lookup_latencies=tracker.latencies(),
            maintenance_bytes_per_second=meter.mean_rate(skip_initial=1),
            completion_rate=tracker.completion_rate(),
            consistent_fraction=tracker.consistent_fraction(),
            ring_consistency=network.ring_consistency(),
            lookups_issued=workload.issued,
            messages_sent=net.messages_sent,
            datagrams_sent=net.datagrams_sent,
            lookups_failed=len(tracker.failures()),
            retransmits=net.retransmits,
            acks_sent=net.acks_sent,
            dupes_dropped=net.dupes_dropped,
            suppressed_sends=net.suppressed_sends,
            dead_endpoint_drops=net.dead_endpoint_drops,
            rto_p99=net.reliable_layer.rto_quantile(0.99),
        ), self.fields)
        job.wire_bytes = net.total_tx_bytes()
        _lookup_outcomes(job, tracker, {})


class NaradaMesh:
    """A Narada mesh: epidemic refresh plus liveness and latency probing."""

    name = "narada_mesh"

    def __init__(self, population=16, duration=200.0, job_seconds=9.5):
        self.population = population
        self.duration = duration
        self.job_seconds = job_seconds

    def setup(self, seed: int):
        topology = TransitStubTopology(domains=10, seed=seed)
        return build_narada_mesh(self.population, topology=topology, seed=seed)

    def reference(self, seed: int) -> Dict[str, Any]:
        """The plain in-tree usage: build, then one ``run_for`` call."""
        mesh = self.setup(seed)
        mesh.simulation.run_for(self.duration)
        return self._result(mesh)

    def run(self, mesh, job: Job) -> None:
        sim = mesh.simulation
        job.simulation, job.nodes = sim, mesh.nodes
        Stepper(sim, mesh.nodes, job).advance(self.duration)

        job.result = self._result(mesh)
        alive = {n.address for n in mesh.nodes if n.alive}
        views = job.result["views"]
        job.ops = len(alive) * len(alive)
        job.failed = job.ops - sum(len(set(views[a]) & alive) for a in alive)
        job.wire_bytes = sim.network.total_tx_bytes()

    @staticmethod
    def _result(mesh) -> Dict[str, Any]:
        net = mesh.simulation.network
        views = mesh.membership_views()
        digest = hashlib.sha256()
        for node in mesh.nodes:
            for table in ("member", "neighbor", "latency"):
                digest.update(repr((node.address, table, list(node.table(table)))).encode())
        return {
            "views": {a: sorted(v) for a, v in sorted(views.items())},
            "messages_sent": net.messages_sent,
            "datagrams_sent": net.datagrams_sent,
            "wire_bytes": net.total_tx_bytes(),
            "tables": digest.hexdigest(),
        }


WORKLOADS = {w.name: w for w in (ChordChurn(), ChordLossy(), NaradaMesh())}

#: Each workload at a tiny size: the untraced run's output check and the
#: self-test use these.
TINY = {w.name: w for w in (
    ChordChurn(population=6, session_time=30.0, stabilization_time=30.0,
               churn_duration=40.0, drain_time=15.0, job_seconds=1.0),
    ChordLossy(population=4, stabilization_time=30.0, idle_measurement_time=12.0,
               lookup_count=20, drain_time=12.0, job_seconds=1.0),
    NaradaMesh(population=5, duration=30.0, job_seconds=1.0),
)}


def first_difference(a: Dict[str, Any], b: Dict[str, Any]) -> Optional[str]:
    """The first key whose values differ between two result dicts, or None."""
    for key in sorted(set(a) | set(b)):
        if a.get(key) != b.get(key):
            return key
    return None
