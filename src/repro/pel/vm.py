"""The PEL virtual machine.

A tiny stack machine; each dataflow element that is parameterised by a PEL
program runs it once per tuple through :class:`PelVM`.  The machine is
deliberately branch-free (PEL has no jumps), which keeps element behaviour
easy to reason about, exactly as in the paper.

Execution strategy
------------------

PEL programs are compiled by the planner once and then executed per tuple —
often millions of times per experiment.  Instead of re-dispatching on the
opcode of every instruction at every execution (a long ``if/elif`` chain per
instruction), each :class:`~repro.pel.program.Program` is compiled once, at
load time, into an *expression tree* of nested closures.  The stack code is
executed symbolically: each stack slot holds the closure that computes it,
so every operator becomes one closure over its input closures that returns
its value.  There is no runtime stack and no per-instruction dispatch, and
``VM.execute`` is one call — the Python analogue of the paper's "tens of
machine instructions per element hand-off" claim.  ``ADD``/``SUB``/``MUL``/
``EQ``/``NE`` test ``type(x) is int`` on both inputs and then use the native
operator, a dynamic int specialisation; anything else goes through the
shared :mod:`repro.core.values` helpers.  The planner emits only pure
expressions; a program that is not one (``DUP``/``POP``, a leftover stack) or
is longer than :data:`MAX_CHAINED_INSTRUCTIONS` runs through the original
opcode interpreter, :meth:`PelVM.execute_interpreted`, which is also the
differential-testing oracle for the compiled path.
"""

from __future__ import annotations

import operator
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..core import values
from ..core.errors import PELError
from ..core.idspace import IdSpace
from .opcodes import Op
from .program import Program

BuiltinFunction = Callable[..., Any]

#: Programs longer than this are run through the interpreter instead of an
#: expression tree (evaluation nests one Python frame per tree level, and real
#: planner output is tens of instructions at most — this is purely a guard
#: against pathological hand-built programs hitting the recursion limit).
MAX_CHAINED_INSTRUCTIONS = 400


class EvalContext:
    """Everything a PEL program may touch while executing.

    Parameters
    ----------
    fields:
        The fields of the tuple currently flowing through the element.
    builtins:
        Mapping of function name to callable ``fn(ctx, *args)``; populated by
        :mod:`repro.overlog.builtins` via the node runtime.
    node:
        The hosting node runtime (provides the clock, the random source and
        the node's address); ``None`` for node-free evaluation in tests.
    idspace:
        Ring arithmetic configuration for ``RING_*`` opcodes.
    """

    __slots__ = ("fields", "builtins", "node", "idspace")

    def __init__(
        self,
        fields: Sequence[Any] = (),
        builtins: Optional[Mapping[str, BuiltinFunction]] = None,
        node: Any = None,
        idspace: Optional[IdSpace] = None,
    ):
        self.fields = fields
        self.builtins = dict(builtins or {})
        self.node = node
        self.idspace = idspace or IdSpace()

    @classmethod
    def for_host(cls, host: Any) -> "EvalContext":
        """A long-lived context bound to *host*, meant to be reused.

        The per-eval construction above defensively copies the builtin map;
        a reusable context instead *shares* the host's live mapping (so later
        registrations are visible, matching the copy-per-eval behaviour) and
        is rebound to each tuple by assigning :attr:`fields` in place.  This
        is the context-reuse API the fused strand pipelines are built on: one
        context per compiled strand, zero allocations per eval.
        """
        ctx = cls.__new__(cls)
        ctx.fields = ()
        builtins = getattr(host, "builtins", None)
        # keep the host's mapping even when it is currently empty — builtins
        # registered later must stay visible, as they are to the per-eval path
        ctx.builtins = builtins if builtins is not None else {}
        ctx.node = host
        ctx.idspace = getattr(host, "idspace", None) or IdSpace()
        return ctx

    def call(self, name: str, args: Sequence[Any]) -> Any:
        fn = self.builtins.get(name)
        if fn is None:
            raise PELError(f"unknown built-in function {name!r}")
        return fn(self, *args)


# --------------------------------------------------------------------- helpers
def _arith(a: Any, b: Any, op: str) -> Any:
    # String concatenation mirrors P2's Value semantics for '+'.
    if op == "+" and (isinstance(a, str) or isinstance(b, str)):
        return values.to_str(a) + values.to_str(b)
    if isinstance(a, int) and isinstance(b, int) and not isinstance(a, bool) and not isinstance(b, bool):
        # Exact: integers never round-trip through float, so 160-bit ring
        # identifiers keep their low bits.
        a, b = int(a), int(b)
        if op == "+":
            return a + b
        return a - b if op == "-" else a * b
    fa = values.to_float(a)
    fb = values.to_float(b)
    if op == "+":
        return fa + fb
    return fa - fb if op == "-" else fa * fb


def _divide(a: Any, b: Any) -> float:
    fb = values.to_float(b)
    if fb == 0:
        raise PELError("division by zero")
    return values.to_float(a) / fb


# ------------------------------------------------------------- tree compilation
# Each factory takes an instruction's operand and the nodes computing its
# inputs (in stack order) and returns ``node(ctx) -> value``.  A node
# evaluates every input, left to right, before it operates: the order in
# which the stack code would have pushed them.

def _n_push(value):
    return lambda ctx: value


def _n_load(position):
    def node(ctx):
        try:
            return ctx.fields[position]
        except IndexError:
            raise PELError(
                f"LOAD {position} out of range (tuple arity {len(ctx.fields)})"
            ) from None
    return node


def _n_int_fast(native, general):
    """Two inputs: *native* when both are plain ints, else *general*."""
    def factory(operand, a, b):
        def node(ctx):
            x = a(ctx)
            y = b(ctx)
            if type(x) is int and type(y) is int:
                return native(x, y)
            return general(x, y)
        return node
    return factory


def _n_binary(compute):
    def factory(operand, a, b):
        def node(ctx):
            return compute(a(ctx), b(ctx))
        return node
    return factory


def _n_unary(compute):
    def factory(operand, a):
        def node(ctx):
            return compute(a(ctx))
        return node
    return factory


def _n_ring(combine):
    def factory(operand, a, b):
        def node(ctx):
            x = a(ctx)
            y = b(ctx)
            return ctx.idspace.wrap(combine(_to_int(x), _to_int(y)))
        return node
    return factory


def _n_ring_in(operand, v, lo, hi):
    include_low, include_high = operand

    def node(ctx):
        x = v(ctx)
        low = lo(ctx)
        high = hi(ctx)
        # Range tests over non-numeric values (e.g. the "-" null address used
        # by Chord's pred/landmark bootstrap facts) are simply false rather
        # than an error, so rules like ((PI1 == "-") || (P in (P1, N)))
        # behave as intended.
        try:
            ix, ilo, ihi = _to_int(x), _to_int(low), _to_int(high)
        except Exception:
            return False
        return ctx.idspace.in_interval(ix, ilo, ihi, include_low, include_high)
    return node


def _n_call(operand, *args):
    name = operand[0]
    if len(args) == 1:
        (a,) = args
        return lambda ctx: ctx.call(name, [a(ctx)])
    return lambda ctx: ctx.call(name, [arg(ctx) for arg in args])


_to_int = values.to_int
_to_bool = values.to_bool
_compare = values.compare

#: opcode -> (number of inputs, node factory); CALL's count is its operand's.
#: DUP and POP are absent: a program using them is not a pure expression.
_NODES: Dict[Op, Tuple[Optional[int], Callable[..., Callable]]] = {
    Op.PUSH: (0, _n_push),
    Op.LOAD: (0, _n_load),
    Op.ADD: (2, _n_int_fast(operator.add, lambda x, y: _arith(x, y, "+"))),
    Op.SUB: (2, _n_int_fast(operator.sub, lambda x, y: _arith(x, y, "-"))),
    Op.MUL: (2, _n_int_fast(operator.mul, lambda x, y: _arith(x, y, "*"))),
    Op.DIV: (2, _n_binary(_divide)),
    Op.MOD: (2, _n_binary(lambda x, y: _to_int(x) % _to_int(y))),
    Op.NEG: (1, _n_unary(lambda x: -values.to_float(x))),
    Op.SHL: (2, _n_binary(lambda x, y: _to_int(x) << _to_int(y))),
    Op.SHR: (2, _n_binary(lambda x, y: _to_int(x) >> _to_int(y))),
    Op.EQ: (2, _n_int_fast(operator.eq, values.equal)),
    Op.NE: (2, _n_int_fast(operator.ne, lambda x, y: not values.equal(x, y))),
    Op.LT: (2, _n_binary(lambda x, y: _compare(x, y) < 0)),
    Op.LE: (2, _n_binary(lambda x, y: _compare(x, y) <= 0)),
    Op.GT: (2, _n_binary(lambda x, y: _compare(x, y) > 0)),
    Op.GE: (2, _n_binary(lambda x, y: _compare(x, y) >= 0)),
    Op.NOT: (1, _n_unary(lambda x: not _to_bool(x))),
    Op.AND: (2, _n_binary(lambda x, y: _to_bool(x) and _to_bool(y))),
    Op.OR: (2, _n_binary(lambda x, y: _to_bool(x) or _to_bool(y))),
    Op.RING_ADD: (2, _n_ring(operator.add)),
    Op.RING_SUB: (2, _n_ring(operator.sub)),
    Op.RING_IN: (3, _n_ring_in),
    Op.CALL: (None, _n_call),
}


def _expression_tree(program: Program) -> Optional[Callable[[EvalContext], Any]]:
    """Symbolically execute *program* into one expression node.

    Each stack slot holds the node that computes it, so every operator pops
    its input nodes and pushes a node over them.  Returns ``None`` when the
    code is not a single expression: ``DUP``/``POP``, too few inputs for an
    operator, or anything but exactly one value left at ``STOP`` or the end.
    """
    stack: List[Callable] = []
    stop = Op.STOP
    for op, operand in program.instructions:
        if op is stop:
            break
        entry = _NODES.get(op)
        if entry is None:
            return None
        count, factory = entry
        if count is None:
            count = operand[1]
        split = len(stack) - count
        if split < 0:
            return None
        inputs = stack[split:]
        del stack[split:]
        stack.append(factory(operand, *inputs))
    return stack[0] if len(stack) == 1 else None


def compile_program(program: Program) -> Callable[[EvalContext], Any]:
    """Compile *program* into a single callable ``fn(ctx) -> result``.

    Programs the expression tree cannot express, or longer than
    :data:`MAX_CHAINED_INSTRUCTIONS`, run through the interpreter instead.
    """
    tree = None
    if len(program.instructions) <= MAX_CHAINED_INSTRUCTIONS:
        tree = _expression_tree(program)
    if tree is None:
        return lambda ctx: VM.execute_interpreted(program, ctx)

    source = program.source

    def run(ctx: EvalContext) -> Any:
        try:
            return tree(ctx)
        except PELError:
            raise
        except Exception as exc:
            raise PELError(f"PEL execution failed ({source!r}): {exc}") from exc

    return run


class PelVM:
    """Executes :class:`~repro.pel.program.Program` objects."""

    def execute(self, program: Program, ctx: EvalContext) -> Any:
        """Run *program* (closure-compiled, cached on the program) on *ctx*."""
        fn = program._compiled
        if fn is None:
            fn = program.compiled()
        return fn(ctx)

    def execute_interpreted(self, program: Program, ctx: EvalContext) -> Any:
        """The original per-instruction opcode interpreter.

        Kept as the reference semantics for the closure-compiled path; the
        differential tests in ``tests/test_pel.py`` assert both agree on every
        opcode.
        """
        stack: List[Any] = []
        push = stack.append
        pop = stack.pop
        try:
            for op, operand in program.instructions:
                if op is Op.PUSH:
                    push(operand)
                elif op is Op.LOAD:
                    try:
                        push(ctx.fields[operand])
                    except IndexError:
                        raise PELError(
                            f"LOAD {operand} out of range (tuple arity {len(ctx.fields)})"
                        ) from None
                elif op is Op.POP:
                    pop()
                elif op is Op.DUP:
                    push(stack[-1])
                elif op is Op.ADD:
                    b, a = pop(), pop()
                    push(_arith(a, b, "+"))
                elif op is Op.SUB:
                    b, a = pop(), pop()
                    push(_arith(a, b, "-"))
                elif op is Op.MUL:
                    b, a = pop(), pop()
                    push(_arith(a, b, "*"))
                elif op is Op.DIV:
                    b, a = pop(), pop()
                    push(_divide(a, b))
                elif op is Op.MOD:
                    b, a = pop(), pop()
                    push(values.to_int(a) % values.to_int(b))
                elif op is Op.NEG:
                    push(-values.to_float(pop()))
                elif op is Op.SHL:
                    b, a = pop(), pop()
                    push(values.to_int(a) << values.to_int(b))
                elif op is Op.SHR:
                    b, a = pop(), pop()
                    push(values.to_int(a) >> values.to_int(b))
                elif op is Op.EQ:
                    b, a = pop(), pop()
                    push(values.equal(a, b))
                elif op is Op.NE:
                    b, a = pop(), pop()
                    push(not values.equal(a, b))
                elif op is Op.LT:
                    b, a = pop(), pop()
                    push(values.compare(a, b) < 0)
                elif op is Op.LE:
                    b, a = pop(), pop()
                    push(values.compare(a, b) <= 0)
                elif op is Op.GT:
                    b, a = pop(), pop()
                    push(values.compare(a, b) > 0)
                elif op is Op.GE:
                    b, a = pop(), pop()
                    push(values.compare(a, b) >= 0)
                elif op is Op.NOT:
                    push(not values.to_bool(pop()))
                elif op is Op.AND:
                    b, a = pop(), pop()
                    push(values.to_bool(a) and values.to_bool(b))
                elif op is Op.OR:
                    b, a = pop(), pop()
                    push(values.to_bool(a) or values.to_bool(b))
                elif op is Op.RING_ADD:
                    b, a = pop(), pop()
                    push(ctx.idspace.wrap(values.to_int(a) + values.to_int(b)))
                elif op is Op.RING_SUB:
                    b, a = pop(), pop()
                    push(ctx.idspace.wrap(values.to_int(a) - values.to_int(b)))
                elif op is Op.RING_IN:
                    include_low, include_high = operand
                    hi, lo, v = pop(), pop(), pop()
                    try:
                        iv = values.to_int(v)
                        ilo = values.to_int(lo)
                        ihi = values.to_int(hi)
                    except Exception:
                        push(False)
                    else:
                        push(
                            ctx.idspace.in_interval(
                                iv, ilo, ihi, include_low, include_high
                            )
                        )
                elif op is Op.CALL:
                    name, argc = operand
                    args = [pop() for _ in range(argc)][::-1]
                    push(ctx.call(name, args))
                elif op is Op.STOP:
                    break
                else:  # pragma: no cover - defensive
                    raise PELError(f"unhandled opcode {op!r}")
        except PELError:
            raise
        except Exception as exc:
            raise PELError(f"PEL execution failed ({program.source!r}): {exc}") from exc
        if not stack:
            return None
        return stack[-1]


#: A module-level VM instance; the VM is stateless so sharing it is safe.
VM = PelVM()


def run(program: Program, ctx: Optional[EvalContext] = None, **kwargs: Any) -> Any:
    """Convenience wrapper: execute *program* with a fresh or given context."""
    return VM.execute(program, ctx or EvalContext(**kwargs))
