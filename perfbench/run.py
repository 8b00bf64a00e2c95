#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload chord_churn --seed 1 --seconds 30 --trace 0

Run from the repository root; the engine is imported from ``src/``.  A run
executes a fixed number of simulation jobs, sized so that they take about
``--seconds`` of wall time on the reference machine (see ``README.md``).
Job ``k`` uses seed ``1000 * seed + k``, so the same ``--seed`` gives the
same inputs.

``--trace 0`` times the jobs with tracing off and reports the end-to-end
metrics, with wall times scaled to a reference CPU speed (see
:func:`end_to_end`; the unscaled figures are printed on the ``notes:``
line).  It also runs the first job's seed at a tiny size through both the
driver and the in-tree experiment (on Narada, the plain build-and-``run_for``
usage) and requires identical simulated results.  ``--trace 1`` alternates an untraced and a traced job on
the same seed, requires identical simulated results from the two, and
reports the per-layer metrics from the traced job plus the tracing overhead.

The last line of standard output is one JSON object: ``correct``,
``attempted`` (jobs run), ``failed`` (jobs whose output check failed) and
``metrics`` (name → value and unit).  The exit code is 0 only when every
output check passed.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
from typing import Dict, List, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Set-up samples per run, at least; the median of these is ``setup_s``.
#: A shared virtual CPU can switch between fast and slow phases within a
#: second, so the samples are spread over the whole run.
SETUPS = 15

#: Median seconds of :func:`~perfbench.workloads.reference_kernel` on the
#: CPU the benchmark's sizes were chosen on (2-vCPU virtual machine, Python
#: 3.11).  Wall times are reported at this reference speed; see
#: :func:`end_to_end`.
REFERENCE_KERNEL_S = 1.25e-3

#: Wall cost of one untraced job plus its traced twin, in untraced jobs
#: (tracing costs 1.25–1.5×); sizes a ``--trace 1`` run.
PAIR_JOBS = 2.5

Metrics = Dict[str, Tuple[float, str]]


def quantile(values: List[float], q: float) -> float:
    """Linear-interpolated quantile (``statistics.quantiles``, inclusive)."""
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def run_job(workload, seed: int):
    """Build and run one job with timing; returns the finished job."""
    from perfbench.workloads import Job

    job = Job(seed)
    gc.collect()
    start = time.perf_counter()
    overlay = workload.setup(seed)
    job.setup_s = time.perf_counter() - start
    gc.collect()
    start = time.perf_counter()
    workload.run(overlay, job)
    # the reference kernel runs between steps; its time is not the job's
    job.run_s = time.perf_counter() - start - sum(job.kernel_s)
    return job


def setup_only(workload, seed: int) -> float:
    gc.collect()
    start = time.perf_counter()
    workload.setup(seed)
    return time.perf_counter() - start


def end_to_end(jobs, setups: List[Tuple[float, int]]) -> Tuple[Metrics, Dict[str, float]]:
    """End-to-end metrics of a timed run.

    *setups* pairs each set-up time with the index of the job it preceded.
    The speed of a shared virtual CPU drifts by ±20 % from minute to minute,
    which would swamp the bounds, so every wall time is scaled to the
    reference CPU speed: multiplied by ``REFERENCE_KERNEL_S`` over the median
    time of the reference kernel timed after each step of the same job.
    """
    scale = [REFERENCE_KERNEL_S / statistics.median(job.kernel_s) for job in jobs]
    steps = [ms * f for job, f in zip(jobs, scale) for ms in job.step_ms]
    metrics = {
        "setup_s": (statistics.median(t * scale[k] for t, k in setups), "s"),
        # total over the run's jobs per job: several scenarios of different
        # work pooled, where a median of three would pick one of them
        "run_s": (statistics.fmean(job.run_s * f for job, f in zip(jobs, scale)), "s"),
        "step_ms_p50": (quantile(steps, 0.50), "ms"),
        "step_ms_p95": (quantile(steps, 0.95), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "wire_Bps_per_node": (
            sum(job.wire_bytes for job in jobs) / sum(job.node_seconds for job in jobs), "B/s"
        ),
    }
    raw_steps = [ms for job in jobs for ms in job.step_ms]
    notes = {
        "setups": len(setups), "jobs": len(jobs), "steps": len(steps),
        "cpu_speed_scale": round(statistics.median(scale), 4),
        "raw_setup_s": round(statistics.median(t for t, _ in setups), 4),
        "raw_run_s": round(statistics.fmean(job.run_s for job in jobs), 4),
        "raw_step_ms_p50": round(quantile(raw_steps, 0.50), 3),
        "raw_step_ms_p95": round(quantile(raw_steps, 0.95), 3),
    }
    return metrics, notes


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(tracer, traced, untraced) -> Metrics:
    """Per-layer metrics of one traced job, given its untraced twin."""
    s, c, k = tracer.self_s, tracer.calls, tracer.counts
    net = traced.simulation.network
    total_self = sum(s.values())

    def share(span: str) -> Tuple[float, str]:
        # layers idle on some workload: a share of self time, never a 0 s
        return _ratio(s[span], total_self), "share"

    def of_ops(count: int) -> Tuple[float, str]:
        return _ratio(count, traced.ops), "share"

    causes = traced.fail_causes
    lookup_ms = traced.lookup_ms or [0.0]
    return {
        "planner.compile_s": (s["planner.compile"], "s"),
        "planner.compiles": (c["planner.compile"], "count"),
        "strand.fire_s": (s["strand.fire"], "s"),
        "strand.fires": (c["strand.fire"], "count"),
        "strand.rows_out": (k["strand.rows_out"], "count"),
        "strand.recompute_s": (s["strand.recompute"], "s"),
        "strand.recomputes": (c["strand.recompute"], "count"),
        "strand.recompute_emit_ratio": (
            _ratio(k["strand.recompute_emits"], c["strand.recompute"]), "ratio"
        ),
        "pel.evals": (c["pel.eval"], "count"),
        "pel.eval_s": (s["pel.eval"], "s"),
        "core.tuples_built": (k["core.tuples_built"], "count"),
        "core.coerce_calls": (k["core.coerce_calls"], "count"),
        "tables.insert_s": (s["tables.insert"], "s"),
        "tables.inserts": (c["tables.insert"], "count"),
        "tables.probe_s": (s["tables.probe"], "s"),
        "tables.probes": (c["tables.probe"], "count"),
        "tables.probe_hit_ratio": (_ratio(k["tables.probe_hits"], k["tables.probes_sized"]), "ratio"),
        "tables.delete_share": share("tables.delete"),
        "runtime.dispatch_s": (s["runtime.dispatch"], "s"),
        "runtime.events": (sum(n.events_processed for n in traced.nodes), "count"),
        "net.send_s": (s["net.send"], "s"),
        "net.messages": (net.messages_sent, "count"),
        "net.datagrams": (net.datagrams_sent, "count"),
        "net.tuples_per_datagram": (_ratio(net.messages_sent, net.datagrams_sent), "ratio"),
        "net.reliable_share": share("net.reliable"),
        "net.retransmits": (net.retransmits, "count"),
        "net.acks": (net.acks_sent, "count"),
        "net.dupes": (net.dupes_dropped, "count"),
        "net.suppressed": (net.suppressed_sends, "count"),
        "net.retransmit_ratio": (_ratio(net.retransmits, net.datagrams_sent), "ratio"),
        "sim.events": (traced.simulation.loop.processed, "count"),
        "sim.callback_s": (s["sim.callback"], "s"),
        "sim.loop_s": (s["sim.loop"], "s"),
        "sim.fault_share": share("sim.fault"),
        "sim.fault_checks": (c["sim.fault"], "count"),
        "sim.shard_windows": (k["sim.shard_windows"], "count"),
        "sim.barrier_share": share("sim.barrier"),
        "sim.harness_share": share("sim.harness"),
        "harness.fail_frac": of_ops(traced.failed),
        "harness.fail_departed_frac": of_ops(causes.get("origin_departed", 0)),
        "harness.fail_unjoined_frac": of_ops(causes.get("origin_unjoined", 0)),
        "harness.fail_in_flight_frac": of_ops(causes.get("in_flight", 0)),
        "harness.inconsistent_frac": (
            _ratio(traced.completed - traced.consistent, traced.completed), "share"
        ),
        "harness.lookup_ms_p50": (quantile(lookup_ms, 0.50), "sim_ms"),
        "harness.lookup_ms_p90": (quantile(lookup_ms, 0.90), "sim_ms"),
        "trace.self_s": (total_self, "s"),
        "trace.run_s": (traced.run_s, "s"),
        "trace.untraced_run_s": (untraced.run_s, "s"),
        "trace.overhead": (_ratio(traced.run_s, untraced.run_s), "ratio"),
    }


def median_metrics(samples: List[Metrics]) -> Metrics:
    # median_low: a count stays a count the traced job really produced
    return {
        name: (statistics.median_low(sample[name][0] for sample in samples), unit)
        for name, (_, unit) in samples[0].items()
    }


def report(correct: bool, attempted: int, failed: int, metrics: Metrics, notes: Dict[str, float]) -> None:
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:14.6g} {unit}")
    if notes:
        print("notes: " + ", ".join(f"{k}={v}" for k, v in notes.items()))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))


def reference_check(workload, job) -> List[str]:
    """Compare a job with the in-tree run of the same arguments."""
    from perfbench.workloads import first_difference

    reference = workload.reference(job.seed)
    key = first_difference(reference, {k: job.result[k] for k in reference})
    if key is None:
        return []
    return [f"{workload.name} seed {job.seed}: {key!r} differs from the in-tree run"]


def measure(workload, seed: int, seconds: float, trace: int):
    """Run one workload; returns ``(mismatches, attempted, metrics, notes)``.

    Raises ``RuntimeError`` when the tracer leaves a wrapper installed.
    """
    from perfbench.tracer import Tracer
    from perfbench.workloads import TINY, first_difference

    if trace == 0:
        count = max(1, round(seconds / workload.job_seconds))
        per_job = -(-(SETUPS - count) // count)
        setups, jobs = [], []
        for k in range(count):
            job_seed = 1000 * seed + k
            setups += [(setup_only(workload, job_seed), k) for _ in range(per_job)]
            jobs.append(run_job(workload, job_seed))
            setups.append((jobs[-1].setup_s, k))
        # the output check runs at the tiny size, so it costs no job of its own
        tiny = TINY[workload.name]
        mismatches = reference_check(tiny, run_job(tiny, jobs[0].seed))
        metrics, notes = end_to_end(jobs, setups)
        return mismatches, len(jobs) + 1, metrics, notes

    count = max(1, round(seconds / (workload.job_seconds * PAIR_JOBS)))
    samples = []
    mismatches = []
    for k in range(count):
        job_seed = 1000 * seed + k
        untraced = run_job(workload, job_seed)
        if k == 0:
            mismatches += reference_check(workload, untraced)
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_job(workload, job_seed)
        finally:
            tracer.uninstall()
        leftovers = tracer.leftovers()
        if leftovers:
            raise RuntimeError(f"tracer left wrappers installed: {leftovers}")
        key = first_difference(untraced.result, traced.result)
        if key is not None:
            mismatches.append(f"seed {job_seed}: {key!r} differs between traced and untraced runs")
        samples.append(per_layer(tracer, traced, untraced))
    return mismatches, 2 * count + 1, median_metrics(samples), {"traced_jobs": count}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    sys.path[:0] = [src, ROOT]
    try:
        import repro
        from perfbench.workloads import WORKLOADS
    except ImportError as exc:
        print(f"perfbench: cannot import the engine from {src}: {exc}", file=sys.stderr)
        return 2
    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        print(f"perfbench: imported {repro.__file__}, not the engine under {src}", file=sys.stderr)
        return 2
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    mismatches, attempted, metrics, notes = measure(workload, args.seed, args.seconds, args.trace)
    for mismatch in mismatches:
        print(f"perfbench: OUTPUT CHECK FAILED: {mismatch}", file=sys.stderr)
    report(not mismatches, attempted, len(mismatches), metrics, notes)
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
