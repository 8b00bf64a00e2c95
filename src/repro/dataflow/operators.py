"""Relational dataflow operators.

These are the database-flavoured elements of Section 3.4: selection,
projection, assignment, stream-table equijoin, anti-join (negation), and
tuple aggregation.  Each is parameterised by PEL programs produced by the
planner and evaluates them against the tuples flowing through.  Table
writes are not elements: the node runtime applies a strand's head routes
(insert, delete, send) after the strand finishes.

Every operator needs a *host* to build evaluation contexts: the hosting node
runtime (clock, RNG, address, identifier space, built-in registry).  Tests use
a lightweight stand-in.

Each operator additionally exposes a *compile hook* (``fuse_stage`` /
``fuse_builder``) that hands the strand compiler
(:mod:`repro.planner.strand_compiler`) a closure over the operator's bound
programs, table, and statistics counters.  The closures operate on bare field
tuples (no intermediate :class:`~repro.core.tuples.Tuple` objects, no per-eval
:class:`~repro.pel.vm.EvalContext`) but maintain the exact same per-element
stats the interpreted ``process`` methods do, so fused and interpreted strand
execution are observably identical.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, List, Optional, Sequence, Tuple as PyTuple

from ..core import values
from ..core.errors import DataflowError
from ..core.idspace import IdSpace
from ..core.tuples import Tuple
from ..pel.program import Program
from ..pel.vm import EvalContext, VM
from ..tables.table import Table
from .aggregates import EMPTY_GROUP_VALUE, get_aggregate
from .element import Element


class Host:
    """Minimal host implementation (tests / standalone operator use)."""

    def __init__(
        self,
        address: str = "local",
        builtins: Optional[dict] = None,
        idspace: Optional[IdSpace] = None,
        clock: float = 0.0,
        rng: Any = None,
    ):
        import random

        self.address = address
        self.builtins = builtins or {}
        self.idspace = idspace or IdSpace()
        self._clock = clock
        self.rng = rng or random.Random(0)

    def now(self) -> float:
        return self._clock

    def advance(self, dt: float) -> None:
        self._clock += dt


class PelElement(Element):
    """Shared machinery for elements that evaluate PEL programs."""

    def __init__(self, host: Any, name: str = ""):
        super().__init__(name)
        self.host = host

    def _context(self, fields: Sequence[Any]) -> EvalContext:
        return EvalContext(
            fields=fields,
            builtins=getattr(self.host, "builtins", {}),
            node=self.host,
            idspace=getattr(self.host, "idspace", None),
        )

    def _eval(self, program: Program, fields: Sequence[Any]) -> Any:
        return VM.execute(program, self._context(fields))


class Select(PelElement):
    """Drops tuples for which the boolean PEL program evaluates to false."""

    kind = "select"

    def __init__(self, host: Any, program: Program, name: str = "select"):
        super().__init__(host, name)
        self.program = program

    def process(self, tup: Tuple, port: int = 0) -> Iterable[Tuple]:
        if values.to_bool(self._eval(self.program, tup.fields)):
            return (tup,)
        self.stats.dropped += 1
        return ()

    def fuse_stage(self, ctx: EvalContext, now: Callable[[], float], downstream):
        """Compile hook: filter fused field tuples through the predicate."""
        fn = self.program.compiled()
        stats = self.stats
        to_bool = values.to_bool

        def stage(fields):
            ctx.fields = fields
            if to_bool(fn(ctx)):
                downstream(fields)
            else:
                stats.dropped += 1

        return stage


class Assign(PelElement):
    """Appends the value of a PEL expression as a new field (``X := expr``)."""

    kind = "assign"

    def __init__(self, host: Any, program: Program, name: str = "assign"):
        super().__init__(host, name)
        self.program = program

    def process(self, tup: Tuple, port: int = 0) -> Iterable[Tuple]:
        return (tup.append(self._eval(self.program, tup.fields)),)

    def fuse_stage(self, ctx: EvalContext, now: Callable[[], float], downstream):
        """Compile hook: append the (coerced) expression value to the fields.

        Coercion here mirrors what :meth:`~repro.core.tuples.Tuple.append`
        does on the interpreted path, so downstream programs observe exactly
        the same value either way.
        """
        fn = self.program.compiled()
        coerce = values.coerce

        def stage(fields):
            ctx.fields = fields
            downstream(fields + (coerce(fn(ctx)),))

        return stage


class Project(PelElement):
    """Builds the head tuple: one PEL program per output field."""

    kind = "project"

    def __init__(
        self,
        host: Any,
        programs: Sequence[Program],
        output_name: str,
        name: str = "project",
    ):
        super().__init__(host, name)
        self.programs = list(programs)
        self.output_name = output_name

    def process(self, tup: Tuple, port: int = 0) -> Iterable[Tuple]:
        fields = [self._eval(p, tup.fields) for p in self.programs]
        return (Tuple(self.output_name, fields),)

    def fuse_builder(self, ctx: EvalContext) -> Callable[[PyTuple[Any, ...]], Tuple]:
        """Compile hook: ``build(fields) -> head Tuple``.

        Head fields that are bare variable references become plain field
        accesses; only computed fields go through their compiled programs.
        The returned :class:`Tuple` constructor applies the same coercion the
        interpreted path relies on.
        """
        name = self.output_name
        spec = []
        for p in self.programs:
            i = p.as_field_load()
            spec.append((i, None) if i is not None else (None, p.compiled()))
        if all(fn is None for _, fn in spec):
            idx = tuple(i for i, _ in spec)

            def build(fields):
                return Tuple(name, [fields[i] for i in idx])

            return build
        spec = tuple(spec)

        def build(fields):
            ctx.fields = fields
            return Tuple(name, [fields[i] if fn is None else fn(ctx) for i, fn in spec])

        return build


class LookupJoin(PelElement):
    """Equijoin of the incoming (binding) tuple stream against a stored table.

    For each input tuple the element computes a key with ``key_programs``,
    looks up matching table rows on ``table_positions`` (index-backed), and
    emits the concatenation ``binding ++ row`` for every match.  This is the
    workhorse of OverLog execution, as Section 2.5 argues.
    """

    kind = "join"

    def __init__(
        self,
        host: Any,
        table: Table,
        table_positions: Sequence[int],
        key_programs: Sequence[Program],
        name: str = "join",
    ):
        super().__init__(host, name)
        if len(table_positions) != len(key_programs):
            raise DataflowError("join key positions and programs must align")
        self.table = table
        self.table_positions = list(table_positions)
        self.key_programs = list(key_programs)

    def matches(self, tup: Tuple) -> List[Tuple]:
        return list(self._matches_iter(tup))

    def _matches_iter(self, tup: Tuple) -> Iterable[Tuple]:
        """Matching rows as a live, copy-free iterable.

        Consumed to completion inside :meth:`process` before any table
        mutation can happen (strand execution is run-to-completion and head
        routes are applied only after the strand finishes), so skipping the
        defensive copy is safe.
        """
        now = self.host.now()
        if not self.table_positions:
            return self.table.scan_iter(now)
        key = [self._eval(p, tup.fields) for p in self.key_programs]
        return self.table.lookup_iter(self.table_positions, key, now)

    def process(self, tup: Tuple, port: int = 0) -> Iterable[Tuple]:
        name = tup.name
        fields = tup.fields
        out = [
            Tuple(name, fields + row.fields)
            for row in self._matches_iter(tup)
        ]
        if not out:
            self.stats.dropped += 1
        return out

    def _fuse_key_builder(self, ctx: EvalContext):
        """``key_of(fields) -> tuple`` for the fused probe (None = full scan).

        Join keys are usually bare variable loads (the planner binds them
        with ``load_program``), which compile down to direct field accesses;
        computed or constant keys fall back to the compiled programs.
        """
        if not self.table_positions:
            return None
        idx = [p.as_field_load() for p in self.key_programs]
        if all(i is not None for i in idx):
            if len(idx) == 1:
                i0 = idx[0]
                return lambda fields: (fields[i0],)
            idx = tuple(idx)
            return lambda fields: tuple(fields[i] for i in idx)
        consts = [p.as_constant() for p in self.key_programs]
        if all(i is not None or ok for i, (ok, _) in zip(idx, consts)):
            # loads and literal constants only (constants in body-predicate
            # arguments): prebind the constants, fetch the rest by position
            parts = tuple(
                (True, i) if i is not None else (False, value)
                for i, (_, value) in zip(idx, consts)
            )
            if len(parts) == 1:
                key = (parts[0][1],)
                return lambda fields: key
            return lambda fields: tuple(
                fields[x] if is_load else x for is_load, x in parts
            )
        fns = [p.compiled() for p in self.key_programs]

        def key_of(fields):
            ctx.fields = fields
            return tuple(fn(ctx) for fn in fns)

        return key_of

    def fuse_stage(self, ctx: EvalContext, now: Callable[[], float], downstream):
        """Compile hook: probe the table and fan out ``binding ++ row``.

        Matches are materialized before descending (exactly like the eager
        list the interpreted ``process`` builds), so a deeper stage that
        triggers expiry on the same table cannot invalidate the probe.
        """
        table = self.table
        stats = self.stats
        key_of = self._fuse_key_builder(ctx)
        if key_of is None:

            def stage(fields):
                rows = table.scan(now())
                if not rows:
                    stats.dropped += 1
                    return
                for row in rows:
                    downstream(fields + row.fields)

            return stage
        positions = tuple(self.table_positions)

        def stage(fields):
            rows = table.lookup(positions, key_of(fields), now())
            if not rows:
                stats.dropped += 1
                return
            for row in rows:
                downstream(fields + row.fields)

        return stage


class AntiJoin(LookupJoin):
    """Negation: passes the binding tuple through only when the table has
    *no* matching row (``not member@Y(...)`` in the Narada rules)."""

    kind = "antijoin"

    def process(self, tup: Tuple, port: int = 0) -> Iterable[Tuple]:
        if next(iter(self._matches_iter(tup)), None) is not None:
            self.stats.dropped += 1
            return ()
        return (tup,)

    def fuse_stage(self, ctx: EvalContext, now: Callable[[], float], downstream):
        """Compile hook: pass the fields through only on an empty probe."""
        table = self.table
        stats = self.stats
        key_of = self._fuse_key_builder(ctx)
        if key_of is None:

            def stage(fields):
                if next(iter(table.scan_iter(now())), None) is not None:
                    stats.dropped += 1
                else:
                    downstream(fields)

            return stage
        positions = tuple(self.table_positions)

        def stage(fields):
            probe = table.lookup_iter(positions, key_of(fields), now())
            if next(iter(probe), None) is not None:
                stats.dropped += 1
            else:
                downstream(fields)

        return stage


class Aggregate(Element):
    """Per-event aggregation over a batch of projected head tuples.

    The strand collects every tuple produced for one triggering event and
    calls :meth:`aggregate`.  Grouping is by the non-aggregate head positions;
    each aggregate position is replaced by the aggregate of its group.  A
    ``count`` aggregate over an empty batch emits 0 when the caller supplies a
    fallback row (the paper's Narada rules R5–R7 depend on this).
    """

    kind = "aggregate"

    def __init__(
        self,
        group_positions: Sequence[int],
        agg_specs: Sequence[PyTuple[int, str]],
        name: str = "aggregate",
    ):
        super().__init__(name)
        self.group_positions = list(group_positions)
        self.agg_specs = list(agg_specs)
        # Resolve the aggregate callables once; the registry lookup used to
        # run per group per firing (and unknown names now fail at plan time
        # instead of at the first firing).
        self._agg_funcs = [(pos, get_aggregate(func)) for pos, func in self.agg_specs]

    def aggregate(self, batch: Sequence[Tuple], empty_fallback: Optional[Tuple] = None) -> List[Tuple]:
        if not batch:
            if empty_fallback is None:
                return []
            if all(func in EMPTY_GROUP_VALUE for _, func in self.agg_specs):
                fields = list(empty_fallback.fields)
                for pos, func in self.agg_specs:
                    fields[pos] = EMPTY_GROUP_VALUE[func]
                return [Tuple(empty_fallback.name, fields)]
            return []
        groups: "dict[tuple, List[Tuple]]" = {}
        order: List[tuple] = []
        for tup in batch:
            key = tup.key(self.group_positions)
            if key not in groups:
                groups[key] = []
                order.append(key)
            groups[key].append(tup)
        out: List[Tuple] = []
        for key in order:
            rows = groups[key]
            fields = list(rows[0].fields)
            for pos, fn in self._agg_funcs:
                fields[pos] = fn([r.fields[pos] for r in rows])
            out.append(Tuple(rows[0].name, fields))
        self.stats.emitted += len(out)
        return out
