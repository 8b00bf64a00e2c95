"""The strand compiler: fuse a rule strand's element chain into one closure.

The interpreted executor (:meth:`RuleStrand.process_interpreted`) walks the
strand's element chain the way Section 3.5 of the paper describes it — a
Python loop over :class:`~repro.dataflow.element.Element` objects, one
intermediate batch list per operator, and one freshly allocated
:class:`~repro.pel.vm.EvalContext` per PEL evaluation.  That dispatch
overhead is exactly what rule-system compilers remove by specializing each
rule's match-and-fire chain into host-language code, and it is the same move
the PEL layer already made one level down (``pel/vm.py`` closure-compiles
each program once and keeps the opcode interpreter as the differential
oracle).

This module performs the equivalent specialization one layer up.  At plan
time, each strand's chain — select → assign → join(s)/antijoin → project →
optional aggregate → head routing — is fused into a single Python closure:

* per-element ``process()`` dispatch and the intermediate ``List[Tuple]``
  batches disappear into nested loops over bare field tuples (intermediate
  relation names never matter, so no intermediate ``Tuple`` objects — with
  their coercion pass and precomputed hash — are built at all);
* one reusable :class:`EvalContext` per strand (fields swapped in place)
  replaces the context-per-eval allocation, via
  :meth:`EvalContext.for_host`;
* join key programs, table references, ``host.now()``, aggregate functions,
  ``loc_position`` routing, and the :class:`HeadRoute` constructor are all
  bound into the closure at compile time;
* the hot Chord shapes get extra specialization inside the operator hooks:
  single-``LOAD`` key programs and head fields become plain field accesses
  (see ``Program.as_field_load``), skipping the PEL closure chain entirely.

Because a pure pipeline visits tuples in the same order whether it is run
batch-by-batch (interpreted) or depth-first (fused), the fused closure
produces the same :class:`HeadRoute` sequence, the same ``fired`` /
``produced`` counters, and the same per-element ``dropped`` / ``emitted``
stats as the interpreted walk — bit for bit.  The interpreted walk survives
as the differential-testing oracle (``tests/test_strand_fusion.py``); a test
selects it per node with ``P2Node(fused=False)``, which reaches
:class:`~repro.planner.planner.Planner`.

Compiled strands are *not* reentrant: one firing state is reused per strand,
which is safe because strand execution is run-to-completion (head routes are
applied only after the strand returns, so nothing can re-enter it).
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Tuple as PyTuple

from ..core.errors import PlannerError
from ..core.tuples import Tuple
from ..pel.vm import EvalContext
from .strand import ContinuousAggregateStrand, HeadRoute, RuleStrand, StrandResult

Fields = PyTuple[Any, ...]


class _FiringState:
    """Per-strand mutable cells threaded through the fused closure chain.

    One instance lives for the whole life of a compiled strand; each firing
    resets the cells it uses.  Safe because strand execution is
    run-to-completion and never reentrant.
    """

    __slots__ = ("routes", "local", "prefix", "projected")

    def __init__(self) -> None:
        self.routes: List[HeadRoute] = []
        self.local: Any = None
        self.prefix: Optional[Fields] = None
        self.projected: List[Tuple] = []


def _compile_chain(
    ops,
    sink: Callable[[Fields], None],
    ctx: EvalContext,
    now: Callable[[], float],
    state: _FiringState,
    first_join_index: Optional[int],
) -> Callable[[Fields], None]:
    """Fuse *ops* into nested closures ending in *sink*.

    Built back-to-front so each stage captures its successor (the same
    construction as ``pel/vm.compile_program``).  When *first_join_index* is
    given, a capture stage records the field tuple flowing into the first
    positive join — the aggregate-fallback prefix of the interpreted walk.
    """
    stage = sink
    for index in range(len(ops) - 1, -1, -1):
        stage = ops[index].fuse_stage(ctx, now, stage)
        if index == first_join_index:
            inner = stage

            def stage(fields, _inner=inner, _state=state):
                _state.prefix = fields
                _inner(fields)

    return stage


def fuse_strand(strand: RuleStrand, host: Any) -> Callable[[Tuple, Any], StrandResult]:
    """Compile *strand* and install the fused closure as ``strand.process``.

    The interpreted walk remains available as ``strand.process_interpreted``.
    """
    ctx = EvalContext.for_host(host)
    now = host.now
    state = _FiringState()
    build = strand.project.fuse_builder(ctx)
    loc = strand.loc_position
    is_delete = strand.is_delete
    aggregate = strand.aggregate
    first_join = strand.first_join_index
    min_arity = strand.min_event_arity
    rule_id = strand.rule_id

    if aggregate is None:
        if loc is None:

            def sink(fields):
                tup = build(fields)
                state.routes.append(HeadRoute(state.local, tup, is_delete))

        else:

            def sink(fields):
                tup = build(fields)
                state.routes.append(HeadRoute(tup.fields[loc], tup, is_delete))

        chain = _compile_chain(strand.ops, sink, ctx, now, state, first_join)

        def process(event: Tuple, local_address: Any) -> StrandResult:
            fields = event.fields
            if len(fields) < min_arity:
                raise PlannerError(
                    f"rule {rule_id}: event {event!r} has arity {len(fields)}, "
                    f"expected at least {min_arity}"
                )
            strand.fired += 1
            routes = state.routes = []
            state.local = local_address
            chain(fields)
            strand.produced += len(routes)
            return StrandResult(routes)

    else:
        fallback_build = (
            strand.fallback_project.fuse_builder(ctx)
            if strand.fallback_project is not None
            else None
        )
        # With no positive join the interpreted walk's fallback prefix is the
        # (at most one) tuple surviving the whole op chain, so capture it at
        # the sink instead of mid-chain.
        capture_at_sink = first_join is None

        def sink(fields):
            if capture_at_sink and state.prefix is None:
                state.prefix = fields
            state.projected.append(build(fields))

        chain = _compile_chain(strand.ops, sink, ctx, now, state, first_join)

        def process(event: Tuple, local_address: Any) -> StrandResult:
            fields = event.fields
            if len(fields) < min_arity:
                raise PlannerError(
                    f"rule {rule_id}: event {event!r} has arity {len(fields)}, "
                    f"expected at least {min_arity}"
                )
            strand.fired += 1
            projected = state.projected = []
            state.prefix = None
            chain(fields)
            fallback = None
            if not projected and fallback_build is not None and state.prefix is not None:
                fallback = fallback_build(state.prefix)
            results = aggregate.aggregate(projected, empty_fallback=fallback)
            routes: List[HeadRoute] = []
            for tup in results:
                dest = local_address if loc is None else tup.fields[loc]
                routes.append(HeadRoute(dest, tup, is_delete))
            strand.produced += len(routes)
            return StrandResult(routes)

    strand.process = process  # instance attribute shadows the interpreted method
    strand.fused = True
    return process


def fuse_continuous(
    strand: ContinuousAggregateStrand, host: Any
) -> Callable[[float, Any], List[HeadRoute]]:
    """Compile a continuous aggregate's recompute pipeline.

    The scan → ops → project leg is fused exactly like an event strand; the
    aggregate and changed-group diffing reuse the element's own methods so
    stats and emission order stay identical to
    :meth:`ContinuousAggregateStrand.recompute_interpreted`.
    """
    ctx = EvalContext.for_host(host)
    now_fn = host.now
    state = _FiringState()
    build = strand.project.fuse_builder(ctx)
    aggregate = strand.aggregate
    group_positions = aggregate.group_positions
    loc = strand.loc_position
    base_table = strand.base_table
    last_emitted = strand._last_emitted

    def sink(fields):
        state.projected.append(build(fields))

    chain = _compile_chain(strand.ops, sink, ctx, now_fn, state, None)

    def recompute(now: float, local_address: Any) -> List[HeadRoute]:
        strand.recomputations += 1
        projected = state.projected = []
        # scan() already returns a fresh list that is safe to consume
        for row in base_table.scan(now):
            chain(row.fields)
        routes: List[HeadRoute] = []
        for tup in aggregate.aggregate(projected):
            key = tup.key(group_positions)
            if last_emitted.get(key) == tup.fields:
                continue
            last_emitted[key] = tup.fields
            dest = local_address if loc is None else tup.fields[loc]
            routes.append(HeadRoute(dest, tup, False))
        return routes

    strand.recompute = recompute  # instance attribute shadows the interpreted method
    strand.fused = True
    return recompute


def fuse_dataflow(compiled, host: Any) -> None:
    """Fuse every strand of a :class:`CompiledDataflow` in place."""
    for strands in compiled.strands_by_event.values():
        for strand in strands:
            fuse_strand(strand, host)
    for spec in compiled.periodics:
        fuse_strand(spec.strand, host)
    for cont in compiled.continuous:
        fuse_continuous(cont, host)
    compiled.fused = True
