#!/usr/bin/env python
"""Stdlib-only benchmark runner with a persisted JSON trajectory.

The pytest-benchmark suites under ``benchmarks/`` are great for interactive
work, but they need a plugin and produce no artifact the next PR can compare
against.  This runner re-executes the same workloads — engine micro-benchmarks
(tables, PEL, event loop) plus the Figure 3 static and Figure 4 churn
experiments — with nothing beyond the standard library, and writes

    {bench_name: {"mean_s": <float>, "rounds": <int>}}

to a JSON file.  ``BENCH_SEED.json`` at the repo root was captured from the
pre-optimization engine; every subsequent PR appends a ``BENCH_PR<n>.json`` so
the performance trajectory of the engine is tracked in-tree.

Usage::

    python benchmarks/run_benchmarks.py --output BENCH_PR2.json
    python -m benchmarks --quick             # fast smoke run
    python -m benchmarks --compare BENCH_PR3.json   # regression gate
    make bench                               # tier-1 tests + quick benches + gate

``--quick`` shrinks operation counts and populations so the whole sweep
finishes in well under a minute; full mode matches the committed baselines.
Every row records which mode produced it (``"quick": true/false``) so that
``--compare`` only ever compares like with like: it checks each freshly-run
bench against the same-named, same-mode row of the given baseline file and
exits non-zero when any regresses by more than 25% — the regression gate
``make bench`` runs against the newest committed ``BENCH_PR<n>.json``.

``--profile`` wraps each selected benchmark in :mod:`cProfile` and prints the
top 20 functions by cumulative time — hot-spot hunts in one command, e.g.
``python -m benchmarks --only fig3 --quick --profile``.
"""

# det: allow(DET001, file): timing harness — wall-clock perf_counter readings
# are the measurement itself, never fed into simulated time or RNG streams.

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SRC = os.path.join(_ROOT, "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

# The paper's Figure-4 maintenance timers, scaled as in bench_fig4_churn.py.
MAINTENANCE_KWARGS = {
    "stabilize_period": 5.0,
    "succ_lifetime": 4.0,
    "ping_period": 2.0,
    "finger_period": 5.0,
}


def _timed(fn, rounds: int) -> dict:
    """Time *fn* over *rounds*; a dict returned by *fn* is merged into the row.

    The extra keys let experiment benchmarks persist counters alongside the
    timing (e.g. the datagram-train benchmark records send events per
    simulated second for both transport paths).
    """
    times = []
    extra = None
    for _ in range(rounds):
        t0 = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - t0)
        if isinstance(out, dict):
            extra = out
    # min_s is the noise-robust statistic (a round can only be slowed down,
    # never sped up, by interference) — the regression gate prefers it.
    row = {"mean_s": statistics.fmean(times), "min_s": min(times), "rounds": rounds}
    if extra:
        row.update(extra)
    return row


# --------------------------------------------------------------------------- micro
def bench_table_ops(quick: bool):
    """Insert/lookup throughput on a 10k-row soft-state table.

    The table has a finite lifetime, so every operation goes through the
    expiry path; with the old eager sweep each op scanned all 10k rows.
    The ops loop refreshes keys round-robin, so the population stays at
    exactly 10k live rows for the whole measurement.
    """
    from repro.core import Tuple
    from repro.tables import Table

    rows = 10_000
    ops = 1_000 if quick else 3_000
    table = Table("member", key_positions=[1], lifetime=10_000.0)
    clock = [0.0]
    for i in range(rows):
        clock[0] += 0.001
        table.insert(Tuple.make("member", "n1", i, 0), clock[0])

    def run():
        now = clock[0]
        for i in range(ops):
            now += 0.001
            table.insert(Tuple.make("member", "n1", i % rows, i), now)
            table.lookup([1], (i * 7 % rows,), now)
        clock[0] = now
        assert len(table) == rows

    return run, (2 if quick else 5)


def bench_table_expiry_churn(quick: bool):
    """Continuous expiry under insert churn (steady-state soft state).

    Tuples live 1s and inserts advance time 1ms per op, so the table holds
    ~1000 live rows and every insert retires old state; this is the Fig. 4
    access pattern distilled to the table layer.
    """
    from repro.core import Tuple
    from repro.tables import Table

    ops = 2_000 if quick else 5_000
    state = {"i": 0, "now": 0.0, "table": Table("ping", key_positions=[1], lifetime=1.0)}

    def run():
        table = state["table"]
        now = state["now"]
        i = state["i"]
        for _ in range(ops):
            i += 1
            now += 0.001
            table.insert(Tuple.make("ping", "n1", i, now), now)
        state.update(i=i, now=now)

    return run, (2 if quick else 5)


def bench_pel_arith(quick: bool):
    """Execute the compiled ``(X + 1) * 2 < Y`` program (one run per tuple)."""
    from repro.overlog import parse_expression
    from repro.overlog.builtins import make_builtins
    from repro.pel import EvalContext, VM, compile_expression

    n = 5_000 if quick else 20_000
    program = compile_expression(parse_expression("(X + 1) * 2 < Y"), {"X": 0, "Y": 1})
    ctx = EvalContext(fields=(21, 100), builtins=make_builtins())

    def run():
        execute = VM.execute
        for _ in range(n):
            execute(program, ctx)

    return run, (3 if quick else 5)


def bench_pel_ring_interval(quick: bool):
    """The ``K in (N, S]`` interval test at the heart of Chord's lookup rules."""
    from repro.overlog import parse_expression
    from repro.overlog.builtins import make_builtins
    from repro.pel import EvalContext, VM, compile_expression

    n = 5_000 if quick else 20_000
    program = compile_expression(
        parse_expression("K in (N, S]"), {"K": 0, "N": 1, "S": 2}
    )
    ctx = EvalContext(fields=(150, 100, 200), builtins=make_builtins())

    def run():
        execute = VM.execute
        for _ in range(n):
            execute(program, ctx)

    return run, (3 if quick else 5)


def bench_event_loop(quick: bool):
    """Schedule/cancel/drain churn with interleaved pending() bookkeeping."""
    from repro.sim import EventLoop

    n = 1_000 if quick else 4_000

    def run():
        loop = EventLoop()
        handles = [loop.schedule(float(i % 97) + 1.0, lambda: None) for i in range(n)]
        for i, handle in enumerate(handles):
            if i % 2:
                handle.cancel()
            if i % 8 == 0:
                loop.pending()
        loop.run()
        assert loop.pending() == 0

    return run, (3 if quick else 5)


# --------------------------------------------------------------------- experiments
def _fig3_bench(quick: bool, shards: int):
    """One Figure 3 workload, shared by the unsharded and sharded rows so
    their parameters cannot drift apart (the rows are only meaningful as a
    directly-comparable pair)."""
    from repro.experiments import run_static_experiment

    population = 10 if quick else 20

    def run():
        result = run_static_experiment(
            population,
            seed=7,
            stabilization_time=360.0,
            idle_measurement_time=90.0,
            lookup_count=120,
            lookup_rate=4.0,
            drain_time=30.0,
            shards=shards,
        )
        assert result.lookups_issued > 0
        return {"shards": shards} if shards > 1 else None

    return run, (1 if quick else 2)


def _fig4_bench(quick: bool, shards: int):
    """One Figure 4 churn workload, shared like :func:`_fig3_bench`."""
    from repro.experiments import run_churn_experiment

    population = 8 if quick else 16

    def run():
        result = run_churn_experiment(
            population,
            120.0,
            seed=11,
            stabilization_time=180.0,
            churn_duration=240.0,
            lookup_rate=2.0,
            drain_time=30.0,
            program_kwargs=dict(MAINTENANCE_KWARGS),
            shards=shards,
        )
        assert result.lookups_issued > 0
        return {"shards": shards} if shards > 1 else None

    return run, (1 if quick else 2)


def bench_fig3_static(quick: bool):
    """The Figure 3 static-membership Chord experiment (scaled population)."""
    return _fig3_bench(quick, shards=1)


def bench_fig4_churn(quick: bool):
    """The Figure 4 churn experiment (scaled population and session time)."""
    return _fig4_bench(quick, shards=1)


def bench_fig3_static_sharded(quick: bool):
    """Figure 3 on the sharded driver (shards=2), same workload as
    ``fig3_static`` so the two rows are directly comparable wall-clock.

    The result is bit-identical to the single-loop run (the determinism
    suite enforces that); this row tracks what the conservative-lookahead
    machinery costs — or, on a multi-core backend, saves.
    """
    return _fig3_bench(quick, shards=2)


def bench_fig4_churn_sharded(quick: bool):
    """Figure 4 churn on the sharded driver (shards=2), same workload as
    ``fig4_churn`` for a direct wall-clock comparison."""
    return _fig4_bench(quick, shards=2)


def bench_micro_send_batch(quick: bool):
    """Raw transport throughput: one datagram train vs. tuple-at-a-time."""
    from repro.core import Tuple
    from repro.net import Network, UniformTopology
    from repro.sim import EventLoop

    bursts = 100 if quick else 400
    burst = [Tuple.make("stabilize", "b", "x" * 24, i) for i in range(64)]

    def run():
        loop = EventLoop()
        net = Network(loop, UniformTopology(latency=0.01))

        class Endpoint:
            def __init__(self, address):
                self.address = address

            def receive(self, tup):
                pass

        net.register(Endpoint("a"))
        net.register(Endpoint("b"))
        for _ in range(bursts):
            net.send_batch("a", "b", burst)
        loop.run()
        assert net.datagrams_sent < net.messages_sent

    return run, (2 if quick else 5)


def bench_strand_fire(quick: bool):
    """Fused vs. interpreted strand firing on a hot Chord-like rule shape.

    Builds one node whose program contains a select → join → assign →
    select → project strand (the single-join shape that dominates Chord
    execution), then fires the same event repeatedly through the compiled
    closure (``strand.process``) and through the element-walking oracle
    (``strand.process_interpreted``).  The row's extras persist both
    timings and their ratio — the headline number strand fusion is about.
    """
    import time as _time

    from repro.core import Tuple
    from repro.net import Network, UniformTopology
    from repro.runtime.node import P2Node
    from repro.sim import EventLoop

    source = """
        materialize(member, infinity, infinity, keys(2)).
        B1 out@NI(NI, Y, D2) :- probe@NI(NI, X, D), D < 1000,
           member@NI(NI, Y), D2 := D + X, D2 > 0.
    """
    loop = EventLoop()
    net = Network(loop, UniformTopology(latency=0.01))
    node = P2Node("n1", source, net, loop, seed=1)
    net.register(node)
    for i in range(8):
        node.tables.get("member").insert(Tuple.make("member", "n1", f"peer-{i}"), 0.0)
    strand = node.compiled.strands_by_event["probe"][0]
    event = Tuple.make("probe", "n1", 3, 10)
    n = 500 if quick else 3_000
    perf_counter = _time.perf_counter

    def run():
        process = strand.process
        t0 = perf_counter()
        for _ in range(n):
            process(event, "n1")
        fused_s = perf_counter() - t0
        interpreted = strand.process_interpreted
        t0 = perf_counter()
        for _ in range(n):
            interpreted(event, "n1")
        interpreted_s = perf_counter() - t0
        assert strand.produced == strand.fired * 8
        return {
            "fused_s": round(fused_s, 6),
            "interpreted_s": round(interpreted_s, 6),
            "fused_speedup": round(interpreted_s / fused_s, 2),
        }

    return run, (3 if quick else 5)


def bench_micro_join_order(quick: bool):
    """Cost-based join ordering on the wide-vs-link rule shape.

    The rule joins a large `wide` table and a small, better-bound `link`
    table; the naive walk (body order) probes `wide` first on the address
    field alone, materializing one intermediate per wide row, while the
    cost-based plan probes `link` first on two bound fields and touches
    `wide` only for surviving rows.  Both strands fire the same event on
    identical tables — the extras persist both timings and their ratio,
    the headline number join reordering is about.
    """
    import time as _time

    from repro.core import Tuple
    from repro.net import Network, UniformTopology
    from repro.runtime.node import P2Node
    from repro.sim import EventLoop

    source = """
        materialize(wide, infinity, 4096, keys(2, 3)).
        materialize(link, infinity, 64, keys(2, 3)).
        J1 out@NI(NI, A, B, C) :- trig@NI(NI, A), wide@NI(NI, B, C), link@NI(NI, A, B).
    """
    wide_rows = 128 if quick else 512
    link_rows = 8

    def build(optimize_flag):
        loop = EventLoop()
        net = Network(loop, UniformTopology(latency=0.01))
        node = P2Node("n1", source, net, loop, seed=1, optimize=optimize_flag)
        net.register(node)
        wide = node.tables.get("wide")
        for i in range(wide_rows):
            wide.insert(Tuple.make("wide", "n1", i, i * 2), 0.0)
        link = node.tables.get("link")
        for i in range(link_rows):
            link.insert(Tuple.make("link", "n1", 7, i), 0.0)
        return node.compiled.strands_by_event["trig"][0]

    optimized = build(True)
    naive = build(False)
    event = Tuple.make("trig", "n1", 7)
    n = 50 if quick else 200
    perf_counter = _time.perf_counter

    def run():
        process = optimized.process
        t0 = perf_counter()
        for _ in range(n):
            process(event, "n1")
        optimized_s = perf_counter() - t0
        process = naive.process
        t0 = perf_counter()
        for _ in range(n):
            process(event, "n1")
        naive_s = perf_counter() - t0
        # plan equivalence: both orders derive the same number of tuples
        assert optimized.produced == naive.produced
        return {
            "optimized_s": round(optimized_s, 6),
            "naive_s": round(naive_s, 6),
            "optimize_speedup": round(naive_s / optimized_s, 2),
        }

    return run, (3 if quick else 5)


def bench_micro_analyze(quick: bool):
    """Whole-program static analysis of the ~40-rule Chord program.

    This is the pass every ``Planner.compile()`` now runs (cached per shared
    program object); the row keeps plan-time analysis cheap.  Each iteration
    re-parses so the per-program cache cannot hide the analysis cost.
    """
    from repro.overlays.chord import chord_program
    from repro.overlog import parse_program
    from repro.overlog.check import check_program

    source = chord_program()
    n = 5 if quick else 20

    def run():
        for _ in range(n):
            program = parse_program(source)
            diagnostics = check_program(program)
            assert not diagnostics

    return run, (3 if quick else 5)


def bench_micro_detlint(quick: bool):
    """Whole-repo determinism lint (``python -m repro.detlint src/repro``).

    ``make lint-py`` runs this on every ``make bench``; the row keeps the
    full parse + call-graph + five-pass sweep well under a second so the
    gate stays cheap enough to never be skipped.  The assertion doubles as
    the self-lint acceptance: the engine's own source must stay clean.
    """
    from pathlib import Path

    from repro.detlint import lint_paths

    target = str(Path(__file__).resolve().parent.parent / "src" / "repro")

    def run():
        results = lint_paths([target])
        assert not any(result.diagnostics for result in results)
        return {"files_checked": len(results)}

    return run, (3 if quick else 5)


def bench_fig4_churn_transport(quick: bool):
    """Figure-4 churn on both transport paths: wall-clock plus wire counters.

    Persists, next to the timing, the number of send events (scheduled
    datagrams) per simulated second for the batched and unbatched paths —
    the headline quantity transport batching is meant to shrink.
    """
    from repro.experiments import run_churn_experiment

    population = 6 if quick else 10
    kwargs = dict(
        seed=5,
        stabilization_time=120.0,
        churn_duration=120.0,
        lookup_rate=2.0,
        drain_time=20.0,
        program_kwargs=dict(MAINTENANCE_KWARGS),
    )
    sim_seconds = population * 1.0 + 120.0 + 120.0 + 20.0

    def run():
        batched = run_churn_experiment(population, 120.0, **kwargs)
        unbatched = run_churn_experiment(population, 120.0, batching=False, **kwargs)
        assert batched.datagrams_sent < unbatched.datagrams_sent
        return {
            "batched_send_events_per_sim_s": round(
                batched.datagrams_sent / sim_seconds, 2
            ),
            "unbatched_send_events_per_sim_s": round(
                unbatched.datagrams_sent / sim_seconds, 2
            ),
            "batched_messages_sent": batched.messages_sent,
            "unbatched_messages_sent": unbatched.messages_sent,
            "batched_maintenance_Bps": round(batched.maintenance_bytes_per_second, 1),
            "unbatched_maintenance_Bps": round(
                unbatched.maintenance_bytes_per_second, 1
            ),
        }

    return run, (1 if quick else 2)


def bench_fig_partition_heal(quick: bool):
    """The partition/heal robustness experiment: split, degrade, reconverge.

    Wall-clock tracks what the fault-injection layer (link conditioner on
    every datagram, in-run monitors on the control loop) costs on a heavily
    conditioned run; the extras persist the recovery metrics themselves so
    the trajectory file also records that the scenario kept reconverging.
    """
    from repro.experiments import run_partition_experiment

    population = 8 if quick else 12

    def run():
        result = run_partition_experiment(
            population,
            seed=7,
            stabilization_time=40.0 if quick else 60.0,
            pre_window=20.0 if quick else 40.0,
            partition_duration=30.0 if quick else 40.0,
            recovery_window=90.0 if quick else 120.0,
            monitor_period=5.0,
        )
        assert result.recovered
        return {
            "recovered": result.recovered,
            "reconvergence_s": result.reconvergence_time,
            "ring_split_alarms": result.ring_split_alarms,
            "lookups_failed": result.lookups_failed,
        }

    return run, (1 if quick else 2)


def bench_fig_loss_recovery(quick: bool):
    """Chord lookups over the reliable layer under Gilbert–Elliott burst loss.

    Wall-clock tracks what ack/retransmit/failure-detector bookkeeping on
    every datagram costs on a heavily lossy run; the extras persist the
    recovery quantities themselves — the sustained completion rate, how many
    retransmissions bought it, and the p99 of the per-link adaptive RTOs —
    so the trajectory file also records that reliability kept delivering.
    """
    from repro.experiments import run_static_experiment
    from repro.sim import FaultSchedule, GilbertElliott, faults

    population = 6 if quick else 10

    def run():
        result = run_static_experiment(
            population,
            seed=3,
            stabilization_time=population * 2.0 + 40.0,
            idle_measurement_time=30.0,
            lookup_count=60 if quick else 120,
            lookup_rate=2.0,
            drain_time=30.0,
            program_kwargs=dict(MAINTENANCE_KWARGS),
            reliable=True,
            faults=FaultSchedule(
                [faults.burst_loss(0.0, GilbertElliott(loss_bad=0.9))]
            ),
        )
        assert result.lookups_issued > 0
        assert result.retransmits > 0  # the burst schedule really bit
        assert result.completion_rate >= 0.99  # reliability held under burst loss
        return {
            "completion_rate": round(result.completion_rate, 4),
            "retransmits": result.retransmits,
            "rto_p99": round(result.rto_p99, 4),
        }

    return run, (1 if quick else 2)


BENCHES = {
    "micro_table_ops_10k": bench_table_ops,
    "micro_table_expiry_churn": bench_table_expiry_churn,
    "micro_pel_arith": bench_pel_arith,
    "micro_pel_ring_interval": bench_pel_ring_interval,
    "micro_event_loop_churn": bench_event_loop,
    "micro_send_batch": bench_micro_send_batch,
    "micro_strand_fire": bench_strand_fire,
    "micro_join_order": bench_micro_join_order,
    "micro_analyze": bench_micro_analyze,
    "micro_detlint": bench_micro_detlint,
    "fig3_static": bench_fig3_static,
    "fig4_churn": bench_fig4_churn,
    "fig4_churn_transport": bench_fig4_churn_transport,
    "fig3_static_sharded": bench_fig3_static_sharded,
    "fig4_churn_sharded": bench_fig4_churn_sharded,
    "fig_partition_heal": bench_fig_partition_heal,
    "fig_loss_recovery": bench_fig_loss_recovery,
}

#: --compare fails on a shared bench slower than baseline by more than this.
REGRESSION_THRESHOLD = 0.25


def compare_against_baseline(results: dict, baseline_path: str) -> int:
    """Compare fresh *results* with a committed baseline; 1 on regression.

    Only *shared* benches are gated: same name, and produced by the same
    mode (a ``--quick`` row is never judged against a full-sweep baseline —
    pre-PR4 baselines carry no mode flag and count as full sweeps).
    """
    try:
        with open(baseline_path) as fh:
            baseline = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read baseline {baseline_path}: {exc}", file=sys.stderr)
        return 2
    regressions = []
    compared = 0
    print(f"\ncomparing against {baseline_path} (threshold +{REGRESSION_THRESHOLD:.0%})")
    for name, row in results.items():
        base = baseline.get(name)
        if not isinstance(base, dict) or "mean_s" not in base:
            continue
        if bool(row.get("quick")) != bool(base.get("quick")):
            print(f"  {name}: skipped (quick/full mode mismatch with baseline)")
            continue
        compared += 1
        # Gate on the fastest round when both sides recorded it (robust to
        # scheduler noise on shared hosts); pre-PR4 baselines only have the
        # mean, so fall back to comparing means against those.
        stat = "min_s" if "min_s" in row and "min_s" in base else "mean_s"
        ratio = row[stat] / base[stat] if base[stat] else float("inf")
        verdict = "ok"
        if ratio > 1 + REGRESSION_THRESHOLD:
            verdict = "REGRESSION"
            regressions.append(name)
        print(
            f"  {name}: {stat} {base[stat]:.6f}s -> {row[stat]:.6f}s "
            f"({ratio - 1:+.1%} vs baseline) {verdict}"
        )
    if compared == 0:
        print("  no shared benches to compare — gate is vacuous", file=sys.stderr)
        return 0
    if regressions:
        print(
            f"FAIL: {len(regressions)} bench(es) regressed >"
            f"{REGRESSION_THRESHOLD:.0%}: {', '.join(regressions)}",
            file=sys.stderr,
        )
        return 1
    print(f"compare: {compared} shared bench(es), none regressed")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="small, fast workloads")
    parser.add_argument(
        "--only",
        default=None,
        help="run only benchmarks whose name contains this substring",
    )
    parser.add_argument(
        "--output",
        default=None,
        help="JSON output path (default: print to stdout only)",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="profile each selected benchmark with cProfile and print the "
        "top 20 functions by cumulative time",
    )
    parser.add_argument(
        "--compare",
        default=None,
        metavar="BASELINE.json",
        # argparse %-interpolates help strings, so the percent sign is doubled
        help="compare against a committed baseline; exit 1 when any bench "
        f"shared with it (same mode) is >{REGRESSION_THRESHOLD:.0%} slower".replace(
            "%", "%%"
        ),
    )
    args = parser.parse_args(argv)

    try:
        import repro  # noqa: F401
    except ImportError:
        print(
            "error: cannot import the 'repro' package — the benchmarks need "
            "PYTHONPATH to include 'src' (run `make bench`, or "
            "`PYTHONPATH=src python benchmarks/run_benchmarks.py`)",
            file=sys.stderr,
        )
        return 2

    results = {}
    for name, factory in BENCHES.items():
        if args.only and args.only not in name:
            continue
        fn, rounds = factory(args.quick)
        print(f"[bench] {name} ({rounds} round{'s' if rounds != 1 else ''}) ...", flush=True)
        if args.profile:
            import cProfile
            import pstats

            profiler = cProfile.Profile()
            profiler.enable()
            results[name] = _timed(fn, rounds)
            profiler.disable()
            pstats.Stats(profiler).sort_stats("cumulative").print_stats(20)
        else:
            results[name] = _timed(fn, rounds)
        results[name]["quick"] = args.quick
        print(f"[bench] {name}: mean {results[name]['mean_s']:.6f}s", flush=True)

    width = max(len(n) for n in results) if results else 0
    print("\nname".ljust(width + 1), "mean_s      rounds")
    for name, row in results.items():
        print(f"{name:<{width}}  {row['mean_s']:10.6f}  {row['rounds']:6d}")

    if args.output:
        with open(args.output, "w") as fh:
            json.dump(results, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"\nwrote {args.output}")
    if args.compare:
        return compare_against_baseline(results, args.compare)
    return 0


if __name__ == "__main__":
    sys.exit(main())
