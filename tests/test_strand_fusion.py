"""Differential suite: fused strand closures vs. the interpreted element walk.

The strand compiler (``repro.planner.strand_compiler``) must be observably
identical to the interpreted executor it replaces: same ``HeadRoute``
sequences, same ``fired``/``produced`` counters, same per-element stats —
bit for bit.  These tests build *twin* single-node worlds (one fused, one
interpreted, same seed) and drive both with identical randomized table
contents and event streams, across every bundled overlay program plus
generated rule shapes (multi-join, antijoin, aggregate-with-fallback,
delete heads) from the shared ``tests.support.genprograms`` module.  A full
chord static and a churn experiment are re-run in both modes and compared
field by field.
"""

import random
import zlib

import pytest

from repro.core import Tuple
from repro.core.errors import PlannerError
from repro.net.topology import UniformTopology
from repro.net.transport import Network
from repro.overlays.chord import chord_program
from repro.overlays.gossip import gossip_program
from repro.overlays.narada import narada_program
from repro.overlays.pingpong import pingpong_program
from repro.runtime.node import P2Node
from repro.sim.event_loop import EventLoop

from tests.support.genprograms import (
    GENERATED_PROGRAMS,
    SHAPES,
    generate_program,
    make_node,
    make_twins,
    paired_strands,
    populate_tables,
    random_value,
)
from tests.support.oracles import oracle_nodes

OVERLAY_PROGRAMS = {
    "chord": chord_program(),
    "narada": narada_program(),
    "gossip": gossip_program(),
    "pingpong": pingpong_program(),
}


def assert_strands_agree(sf, si):
    __tracebackinfo__ = (sf.rule_id, sf.event_name)
    assert sf.fired == si.fired, sf.rule_id
    assert sf.produced == si.produced, sf.rule_id
    for ef, ei in zip(sf.elements(), si.elements()):
        assert ef.stats == ei.stats, (sf.rule_id, ef.name)


def _snapshot(strand):
    return (
        strand.fired,
        strand.produced,
        [
            (e.stats.pushed_in, e.stats.emitted, e.stats.dropped)
            for e in strand.elements()
        ],
    )


def _restore(strand, snap):
    strand.fired, strand.produced, element_stats = snap
    for element, (pushed_in, emitted, dropped) in zip(strand.elements(), element_stats):
        element.stats.pushed_in = pushed_in
        element.stats.emitted = emitted
        element.stats.dropped = dropped


def _fire(strand, event, addr):
    try:
        return strand.process(event, addr).routes, None
    except Exception as exc:  # noqa: BLE001 - the error IS the observable
        return None, f"{type(exc).__name__}: {exc}"


def fire_differentially(fused_node, interp_node, rng, events_per_strand=25):
    """Fire every twin strand pair with identical random events.

    Successful firings must match route-for-route and stat-for-stat.  A
    firing that raises (random junk flowing into arithmetic) must raise the
    *same* error from both executors; such an error is fatal to a real run,
    and the two executors legitimately abort mid-pipeline at different
    points, so both strands' stats are rolled back to the pre-firing
    snapshot to keep the differential running.
    """
    addr = fused_node.address
    for sf, si in paired_strands(fused_node, interp_node):
        assert sf.fused and not si.fused
        for trial in range(events_per_strand):
            arity = sf.min_event_arity + (1 if trial % 5 == 4 else 0)
            fields = [addr if trial % 2 else random_value(rng, addr)] + [
                random_value(rng, addr) for _ in range(max(arity - 1, 0))
            ]
            event = Tuple(sf.event_name, fields or [addr])
            snap_f, snap_i = _snapshot(sf), _snapshot(si)
            rf, err_f = _fire(sf, event, addr)
            ri, err_i = _fire(si, event, addr)
            assert err_f == err_i, (sf.rule_id, event)
            if err_f is not None:
                _restore(sf, snap_f)
                _restore(si, snap_i)
                continue
            assert rf == ri, (sf.rule_id, event)
        assert_strands_agree(sf, si)


@pytest.mark.parametrize("name", sorted(OVERLAY_PROGRAMS))
def test_overlay_strands_fused_vs_interpreted(name):
    rng = random.Random(zlib.crc32(name.encode()) & 0xFFFF)
    fused_node, interp_node = make_twins(OVERLAY_PROGRAMS[name], seed=11)
    # empty-table firings first (covers empty joins and count<*> fallbacks) ...
    fire_differentially(fused_node, interp_node, random.Random(1), events_per_strand=5)
    # ... then with populated tables
    populate_tables([fused_node, interp_node], rng)
    fire_differentially(fused_node, interp_node, rng)


@pytest.mark.parametrize("name", sorted(GENERATED_PROGRAMS))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_generated_rule_shapes_fused_vs_interpreted(name, seed):
    rng = random.Random(seed * 1000 + 17)
    fused_node, interp_node = make_twins(GENERATED_PROGRAMS[name], seed=seed)
    fire_differentially(fused_node, interp_node, random.Random(seed), events_per_strand=5)
    populate_tables([fused_node, interp_node], rng, rows_per_table=8)
    fire_differentially(fused_node, interp_node, rng, events_per_strand=40)


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("seed", [0, 1])
def test_randomized_shapes_fused_vs_interpreted(shape, seed):
    """The seeded generator's programs also hold under fusion."""
    source = generate_program(shape, seed)
    rng = random.Random(seed * 77 + 5)
    fused_node, interp_node = make_twins(source, seed=seed)
    fire_differentially(fused_node, interp_node, random.Random(seed), events_per_strand=5)
    populate_tables([fused_node, interp_node], rng, rows_per_table=8)
    fire_differentially(fused_node, interp_node, rng, events_per_strand=30)


def test_multi_join_produces_joined_rows_in_same_order():
    """A non-vacuous check: the multi-join actually fans out and matches."""
    fused_node, interp_node = make_twins(GENERATED_PROGRAMS["multi_join"])
    for node in (fused_node, interp_node):
        for a, b in [(1, 2), (1, 3)]:
            node.tables.get("t1").insert(Tuple.make("t1", "n1", a, b), 0.0)
        for b, c in [(2, 9), (3, 8), (3, 7)]:
            node.tables.get("t2").insert(Tuple.make("t2", "n1", b, c), 0.0)
    event = Tuple.make("trig", "n1", 1)
    rf = fused_node.compiled.strands_by_event["trig"][0].process(event, "n1")
    ri = interp_node.compiled.strands_by_event["trig"][0].process(event, "n1")
    assert rf.routes == ri.routes
    assert len(rf.routes) == 3  # (1,2,9), (1,3,8), (1,3,7)


def test_constant_join_key_matches_both_modes():
    """The prebound-constant key path actually probes the right rows."""
    fused_node, interp_node = make_twins(GENERATED_PROGRAMS["constant_join_key"])
    for node in (fused_node, interp_node):
        table = node.tables.get("kv")
        table.insert(Tuple.make("kv", "n1", 7, "a"), 0.0)
        table.insert(Tuple.make("kv", "n1", 7, "b"), 0.0)
        table.insert(Tuple.make("kv", "n1", 8, "c"), 0.0)
    event = Tuple.make("q", "n1")
    rf = fused_node.compiled.strands_by_event["q"][0].process(event, "n1")
    ri = interp_node.compiled.strands_by_event["q"][0].process(event, "n1")
    assert rf.routes == ri.routes
    assert sorted(r.tuple.fields[1] for r in rf.routes) == ["a", "b"]


def test_aggregate_fallback_emits_count_zero_both_modes():
    fused_node, interp_node = make_twins(GENERATED_PROGRAMS["aggregate_with_fallback"])
    event = Tuple.make("probe", "n1", "missing")
    rf = fused_node.compiled.strands_by_event["probe"][0].process(event, "n1")
    ri = interp_node.compiled.strands_by_event["probe"][0].process(event, "n1")
    assert rf.routes == ri.routes
    assert len(rf.routes) == 1 and rf.routes[0].tuple.fields[2] == 0


FOLD_PROGRAM = """
    materialize(item, infinity, infinity, keys(2)).
    A1 stats@NI(NI, f_bucket(V), min<V>, max<V>, count<*>, sum<V>) :-
        probe@NI(NI, L), item@NI(NI, K, V), V > L.
    A2 tagged@NI(NI, f_pair(K), count<*>, max<K>) :- probe@NI(NI, L), item@NI(NI, K, V).
    C1 spread@NI(NI, f_bucket(V), min<K>, sum<V>) :- item@NI(NI, K, V).
"""


def _fold_twins():
    """Twin nodes whose computed group fields are an int and a list."""
    builtins = {
        "f_bucket": lambda ctx, v: v % 3,
        "f_pair": lambda ctx, k: [k % 2, "odd" if k % 2 else "even"],
    }
    nodes = []
    for fused in (True, False):
        loop = EventLoop()
        net = Network(loop, UniformTopology(latency=0.01))
        node = P2Node("n1", FOLD_PROGRAM, net, loop, seed=0, fused=fused, extra_builtins=builtins)
        net.register(node)
        nodes.append(node)
    return nodes


def test_aggregate_folds_multi_group_fused_vs_interpreted():
    """Fused folds of bare head fields match the per-Tuple aggregate."""
    fused_node, interp_node = _fold_twins()
    rng = random.Random(7)
    for k in range(12):
        row = Tuple.make("item", "n1", k, rng.choice((2**53 + 1, -5, 0, 7, 40, 2**159 + 3)))
        for node in (fused_node, interp_node):
            node.tables.get("item").insert(row, 0.0)
    pairs = paired_strands(fused_node, interp_node)
    assert {sf.rule_id for sf, _ in pairs} == {"A1", "A2"}
    for sf, si in pairs:
        assert sf.fused and not si.fused and sf.aggregate is not None
        for limit in (-10, 6, 2**60, 2**200):
            event = Tuple.make("probe", "n1", limit)
            rf = sf.process(event, "n1").routes
            ri = si.process(event, "n1").routes
            assert rf == ri, (sf.rule_id, limit)
            # group order is first appearance, in both modes
            assert [r.tuple.fields[1] for r in rf] == [r.tuple.fields[1] for r in ri]
        assert sf.aggregate.stats.emitted == si.aggregate.stats.emitted
        assert_strands_agree(sf, si)
    a1 = [sf for sf, _ in pairs if sf.rule_id == "A1"][0]
    rows = a1.process(Tuple.make("probe", "n1", -10), "n1").routes
    assert len(rows) == 3  # one per bucket, several rows each
    a2 = [sf for sf, _ in pairs if sf.rule_id == "A2"][0]
    groups = [r.tuple.fields[1] for r in a2.process(Tuple.make("probe", "n1", 0), "n1").routes]
    assert groups == [(0, "even"), (1, "odd")]  # the list field is coerced to a tuple
    # exact 160-bit min/max/sum survive the fold
    assert any(r.tuple.fields[3] == 2**159 + 3 for r in rows)
    # the empty batch: the strand without a fallback derives nothing
    assert a1.process(Tuple.make("probe", "n1", 2**200), "n1").routes == []

    cf, ci = fused_node.compiled.continuous[0], interp_node.compiled.continuous[0]
    assert cf.fused and not ci.fused
    rf, ri = cf.recompute(0.0, "n1"), ci.recompute(0.0, "n1")
    assert rf == ri and len(rf) == 3
    assert cf.aggregate.stats.emitted == ci.aggregate.stats.emitted == 3
    assert cf._last_emitted == ci._last_emitted


def test_aggregate_fold_empty_batch_count_fallback():
    """An empty fold still takes the count<*> == 0 fallback row."""
    fused_node, interp_node = make_twins(GENERATED_PROGRAMS["aggregate_with_fallback"])
    sf = fused_node.compiled.strands_by_event["probe"][0]
    si = interp_node.compiled.strands_by_event["probe"][0]
    for node in (fused_node, interp_node):
        node.tables.get("member").insert(Tuple.make("member", "n1", "a", 5), 0.0)
        node.tables.get("member").insert(Tuple.make("member", "n1", "a", 50), 0.0)
    for target in ("a", "missing", "a"):
        rf = sf.process(Tuple.make("probe", "n1", target), "n1").routes
        ri = si.process(Tuple.make("probe", "n1", target), "n1").routes
        assert rf == ri
        assert [r.tuple.fields[2] for r in rf] == ([1] if target == "a" else [0])
    assert sf.aggregate.stats.emitted == si.aggregate.stats.emitted == 2
    assert_strands_agree(sf, si)


def test_continuous_aggregates_fused_vs_interpreted():
    source = """
        materialize(succDist, infinity, infinity, keys(2)).
        N3 best@NI(NI, min<D>) :- succDist@NI(NI, S, D).
    """
    fused_node, interp_node = make_twins(source)
    cf = fused_node.compiled.continuous[0]
    ci = interp_node.compiled.continuous[0]
    assert cf.fused and not ci.fused
    # empty table: nothing derived either way
    assert cf.recompute(0.0, "n1") == ci.recompute(0.0, "n1") == []
    rng = random.Random(99)
    for step in range(5):
        row = Tuple.make("succDist", "n1", step, rng.randrange(1000))
        for node in (fused_node, interp_node):
            node.tables.get("succDist").insert(row, 0.0)
        rf = cf.recompute(0.0, "n1")
        ri = ci.recompute(0.0, "n1")
        assert rf == ri
        # unchanged aggregate => both suppress re-emission
        assert cf.recompute(0.0, "n1") == ci.recompute(0.0, "n1") == []
    assert cf.recomputations == ci.recomputations
    assert cf._last_emitted == ci._last_emitted


def test_fused_arity_check_matches_interpreted():
    fused_node, interp_node = make_twins(GENERATED_PROGRAMS["antijoin"])
    strand_f = fused_node.compiled.strands_by_event["evt"][0]
    strand_i = interp_node.compiled.strands_by_event["evt"][0]
    short = Tuple.make("evt", "n1")
    with pytest.raises(PlannerError) as err_f:
        strand_f.process(short, "n1")
    with pytest.raises(PlannerError) as err_i:
        strand_i.process(short, "n1")
    assert str(err_f.value) == str(err_i.value)


def test_escape_hatch_and_default_flags():
    fused_node, interp_node = make_twins(OVERLAY_PROGRAMS["pingpong"])
    assert fused_node.fused and fused_node.compiled.fused
    assert not interp_node.fused and not interp_node.compiled.fused
    for sf, si in paired_strands(fused_node, interp_node):
        assert sf.fused and not si.fused
        # the oracle stays reachable on a fused strand
        assert sf.process_interpreted is not None


def test_fused_node_runs_whole_overlay():
    """End-to-end smoke: a booted fused node behaves like an interpreted one."""
    program = OVERLAY_PROGRAMS["pingpong"]
    nodes = {}
    for fused in (True, False):
        loop = EventLoop()
        net = Network(loop, UniformTopology(latency=0.01))
        a = P2Node("a", program, net, loop, seed=1, fused=fused)
        b = P2Node("b", program, net, loop, seed=2, fused=fused)
        for n in (a, b):
            net.register(n)
            n.boot()
        a.route(Tuple.make("peer", "a", "b"))
        b.route(Tuple.make("peer", "b", "a"))
        loop.run_for(10.0)
        nodes[fused] = (a, b, net)
    for i in range(2):
        fused_scan = sorted(map(repr, nodes[True][i].scan("latency")))
        interp_scan = sorted(map(repr, nodes[False][i].scan("latency")))
        assert fused_scan == interp_scan
    assert nodes[True][2].messages_sent == nodes[False][2].messages_sent


@pytest.mark.slow
def test_chord_static_bit_identical_fused_vs_interpreted():
    from repro.experiments import run_static_experiment

    kwargs = dict(
        seed=3,
        join_stagger=1.0,
        stabilization_time=120.0,
        idle_measurement_time=30.0,
        lookup_count=30,
        lookup_rate=3.0,
        drain_time=15.0,
    )
    a = run_static_experiment(8, **kwargs)
    with oracle_nodes(8, fused=False):
        b = run_static_experiment(8, **kwargs)
    assert a.hop_counts == b.hop_counts
    assert a.lookup_latencies == b.lookup_latencies
    assert a.messages_sent == b.messages_sent
    assert a.datagrams_sent == b.datagrams_sent
    assert a.maintenance_bytes_per_second == b.maintenance_bytes_per_second
    assert a.completion_rate == b.completion_rate
    assert a.consistent_fraction == b.consistent_fraction


@pytest.mark.slow
def test_chord_churn_bit_identical_fused_vs_interpreted():
    from repro.experiments import run_churn_experiment

    kwargs = dict(
        seed=5,
        stabilization_time=60.0,
        churn_duration=60.0,
        lookup_rate=2.0,
        drain_time=15.0,
        program_kwargs=dict(
            stabilize_period=5.0,
            succ_lifetime=4.0,
            ping_period=2.0,
            finger_period=5.0,
        ),
    )
    a = run_churn_experiment(6, 120.0, **kwargs)
    with oracle_nodes(6, fused=False):
        b = run_churn_experiment(6, 120.0, **kwargs)
    assert a.lookup_latencies == b.lookup_latencies
    assert a.messages_sent == b.messages_sent
    assert a.datagrams_sent == b.datagrams_sent
    assert a.maintenance_bytes_per_second == b.maintenance_bytes_per_second
    assert a.completion_rate == b.completion_rate
    assert a.churn_events == b.churn_events
