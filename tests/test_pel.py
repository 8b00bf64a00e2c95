"""Tests for the PEL compiler and virtual machine."""

import pytest
from hypothesis import given, strategies as st

from repro.core import IdSpace
from repro.core.errors import PELError
from repro.overlog import ast, parse_expression
from repro.overlog.builtins import make_builtins
from repro.pel import EvalContext, Op, Program, VM, compile_expression, run


def evaluate(text, fields=(), schema=None, node=None, bits=32):
    """Parse an OverLog expression, compile it, run it on *fields*."""
    expr = parse_expression(text)
    program = compile_expression(expr, schema or {})
    ctx = EvalContext(
        fields=fields,
        builtins=make_builtins(),
        node=node,
        idspace=IdSpace(bits=bits),
    )
    return VM.execute(program, ctx)


class TestProgramBasics:
    def test_emit_and_len(self):
        p = Program().emit(Op.PUSH, 1).emit(Op.PUSH, 2).emit(Op.ADD)
        assert len(p) == 3

    def test_disassemble_mentions_opcodes(self):
        p = Program(source="1 + 2").emit(Op.PUSH, 1).emit(Op.PUSH, 2).emit(Op.ADD)
        text = p.disassemble()
        assert "push" in text and "add" in text and "1 + 2" in text

    def test_run_empty_program_returns_none(self):
        assert run(Program()) is None


class TestArithmetic:
    def test_constant_folding_path(self):
        assert evaluate("1 + 2 * 3") == 7

    def test_precedence_and_parens(self):
        assert evaluate("(1 + 2) * 3") == 9

    def test_subtraction_and_division(self):
        assert evaluate("10 - 4") == 6
        assert evaluate("9 / 2") == 4.5

    def test_modulo_and_shifts(self):
        assert evaluate("10 % 3") == 1
        assert evaluate("1 << 4") == 16
        assert evaluate("16 >> 2") == 4

    def test_unary_minus(self):
        assert evaluate("0 - 5") == -5

    def test_string_concatenation(self):
        expr = ast.BinaryOp("+", ast.Constant("a"), ast.Constant("b"))
        assert run(compile_expression(expr, {})) == "ab"

    def test_division_by_zero_raises(self):
        with pytest.raises(PELError):
            evaluate("1 / 0")

    def test_int_arithmetic_stays_int(self):
        assert isinstance(evaluate("2 + 3"), int)


class TestComparisonsAndBooleans:
    def test_comparisons(self):
        assert evaluate("1 < 2") is True
        assert evaluate("2 <= 2") is True
        assert evaluate("3 > 4") is False
        assert evaluate("3 >= 4") is False
        assert evaluate('"a" == "a"') is True
        assert evaluate("1 != 2") is True

    def test_logical_ops(self):
        assert evaluate("(1 < 2) && (2 < 3)") is True
        assert evaluate("(1 > 2) || (2 < 3)") is True
        assert evaluate("(1 > 2) || (3 < 3)") is False

    def test_not(self):
        assert evaluate("!(1 == 1)") is False


class TestVariablesAndFields:
    def test_load_fields_through_schema(self):
        assert evaluate("X + Y", fields=(3, 4), schema={"X": 0, "Y": 1}) == 7

    def test_unbound_variable_is_compile_error(self):
        with pytest.raises(PELError):
            compile_expression(parse_expression("X + 1"), {})

    def test_load_out_of_range_is_runtime_error(self):
        program = compile_expression(parse_expression("X"), {"X": 5})
        with pytest.raises(PELError):
            VM.execute(program, EvalContext(fields=(1,)))

    def test_wildcard_rejected_in_expression(self):
        with pytest.raises(PELError):
            compile_expression(ast.DontCare(), {})


class TestRangeTests:
    def test_open_closed_interval(self):
        assert evaluate("5 in (1, 5]") is True
        assert evaluate("1 in (1, 5]") is False
        assert evaluate("3 in (1, 5)") is True

    def test_wraparound_interval(self):
        # ring of 256 points: (250, 10] wraps through 0
        assert evaluate("2 in (250, 10]", bits=8) is True
        assert evaluate("100 in (250, 10]", bits=8) is False

    def test_closed_open(self):
        assert evaluate("1 in [1, 5)") is True
        assert evaluate("5 in [1, 5)") is False


class TestBuiltins:
    def test_unknown_builtin_raises(self):
        with pytest.raises(PELError):
            evaluate("f_noSuchFunction()")

    def test_f_now_without_node_is_zero(self):
        assert evaluate("f_now()") == 0.0

    def test_f_sha1_deterministic_and_in_range(self):
        a = evaluate('f_sha1("node1")', bits=16)
        b = evaluate('f_sha1("node1")', bits=16)
        assert a == b
        assert 0 <= a < (1 << 16)

    def test_ring_builtins(self):
        assert evaluate("f_wrap(260)", bits=8) == 4
        assert evaluate("f_pow2(5)") == 32
        assert evaluate("f_dist(250, 5)", bits=8) == 11
        assert evaluate("f_fingerKey(200, 7)", bits=8) == (200 + 128) % 256

    def test_node_dependent_builtins(self):
        class FakeNode:
            address = "addr-1"
            node_id = 42

            def now(self):
                return 12.5

            class rng:  # noqa: D106 - minimal stub
                @staticmethod
                def random():
                    return 0.25

                @staticmethod
                def randint(a, b):
                    return a

        node = FakeNode()
        assert evaluate("f_now()", node=node) == 12.5
        assert evaluate("f_rand()", node=node) == 0.25
        assert evaluate("f_coinFlip(0.5)", node=node) is True
        assert evaluate("f_coinFlip(0.1)", node=node) is False
        assert evaluate("f_localAddr()", node=node) == "addr-1"
        assert evaluate("f_localId()", node=node) == 42

    def test_node_builtins_without_node_raise(self):
        with pytest.raises(PELError):
            evaluate("f_rand()")

    def test_conversions_and_minmax(self):
        assert evaluate("f_int(3.7)") == 3
        assert evaluate("f_float(2)") == 2.0
        assert evaluate('f_str(5)') == "5"
        assert evaluate("f_max(3, 9)") == 9
        assert evaluate("f_min(3, 9)") == 3


class TestClosureCompilationDifferential:
    """The closure-compiled execution path must agree with the opcode
    interpreter on every opcode (results and errors alike)."""

    def _contexts(self):
        return EvalContext(
            fields=(3, 10, 200),
            builtins=make_builtins(),
            idspace=IdSpace(bits=8),
        )

    # one (or more) programs exercising each opcode; stack effects chosen so
    # the final value is observable
    OPCODE_PROGRAMS = {
        Op.PUSH: [[(Op.PUSH, 7)]],
        Op.LOAD: [[(Op.LOAD, 0)], [(Op.LOAD, 2)]],
        Op.POP: [[(Op.PUSH, 1), (Op.PUSH, 2), (Op.POP, None)]],
        Op.DUP: [[(Op.PUSH, 4), (Op.DUP, None), (Op.ADD, None)]],
        Op.ADD: [
            [(Op.PUSH, 2), (Op.PUSH, 3), (Op.ADD, None)],
            [(Op.PUSH, "a"), (Op.PUSH, "b"), (Op.ADD, None)],
            [(Op.PUSH, 1.5), (Op.PUSH, 2), (Op.ADD, None)],
        ],
        Op.SUB: [[(Op.PUSH, 10), (Op.PUSH, 4), (Op.SUB, None)]],
        Op.MUL: [[(Op.PUSH, 6), (Op.PUSH, 7), (Op.MUL, None)]],
        Op.DIV: [[(Op.PUSH, 9), (Op.PUSH, 2), (Op.DIV, None)]],
        Op.MOD: [[(Op.PUSH, 10), (Op.PUSH, 3), (Op.MOD, None)]],
        Op.NEG: [[(Op.PUSH, 5), (Op.NEG, None)]],
        Op.SHL: [[(Op.PUSH, 1), (Op.PUSH, 4), (Op.SHL, None)]],
        Op.SHR: [[(Op.PUSH, 16), (Op.PUSH, 2), (Op.SHR, None)]],
        Op.EQ: [[(Op.PUSH, 1), (Op.PUSH, 1), (Op.EQ, None)]],
        Op.NE: [[(Op.PUSH, 1), (Op.PUSH, 2), (Op.NE, None)]],
        Op.LT: [[(Op.PUSH, 1), (Op.PUSH, 2), (Op.LT, None)]],
        Op.LE: [[(Op.PUSH, 2), (Op.PUSH, 2), (Op.LE, None)]],
        Op.GT: [[(Op.PUSH, 3), (Op.PUSH, 4), (Op.GT, None)]],
        Op.GE: [[(Op.PUSH, 3), (Op.PUSH, 4), (Op.GE, None)]],
        Op.NOT: [[(Op.PUSH, True), (Op.NOT, None)]],
        Op.AND: [[(Op.PUSH, True), (Op.PUSH, False), (Op.AND, None)]],
        Op.OR: [[(Op.PUSH, False), (Op.PUSH, True), (Op.OR, None)]],
        Op.RING_ADD: [[(Op.PUSH, 250), (Op.PUSH, 10), (Op.RING_ADD, None)]],
        Op.RING_SUB: [[(Op.PUSH, 5), (Op.PUSH, 10), (Op.RING_SUB, None)]],
        Op.RING_IN: [
            [(Op.PUSH, 2), (Op.PUSH, 250), (Op.PUSH, 10), (Op.RING_IN, (False, True))],
            [(Op.PUSH, 100), (Op.PUSH, 250), (Op.PUSH, 10), (Op.RING_IN, (False, True))],
            [(Op.PUSH, "-"), (Op.PUSH, 1), (Op.PUSH, 5), (Op.RING_IN, (True, True))],
        ],
        Op.CALL: [
            [(Op.PUSH, 3), (Op.PUSH, 9), (Op.CALL, ("f_max", 2))],
            [(Op.CALL, ("f_now", 0))],
        ],
        Op.STOP: [[(Op.PUSH, 1), (Op.STOP, None), (Op.PUSH, 2)]],
    }

    def test_every_opcode_has_a_differential_case(self):
        assert set(self.OPCODE_PROGRAMS) == set(Op)

    @pytest.mark.parametrize(
        "instructions",
        [case for cases in OPCODE_PROGRAMS.values() for case in cases],
        ids=lambda instrs: "-".join(op.name for op, _ in instrs),
    )
    def test_compiled_matches_interpreted(self, instructions):
        program = Program(instructions=list(instructions))
        compiled = VM.execute(program, self._contexts())
        interpreted = VM.execute_interpreted(program, self._contexts())
        assert compiled == interpreted
        assert type(compiled) is type(interpreted)

    @pytest.mark.parametrize(
        "text,fields,schema",
        [
            ("(X + 1) * 2 < Y", (21, 100), {"X": 0, "Y": 1}),
            ("K in (N, S]", (150, 100, 200), {"K": 0, "N": 1, "S": 2}),
            ("f_sha1(A) % 16", ("node-3",), {"A": 0}),
            ("!(X == 1) && (X >= 0 || X != 2)", (5,), {"X": 0}),
        ],
    )
    def test_compiled_matches_interpreted_on_real_expressions(
        self, text, fields, schema
    ):
        program = compile_expression(parse_expression(text), schema)
        ctx = lambda: EvalContext(fields=fields, builtins=make_builtins())
        assert VM.execute(program, ctx()) == VM.execute_interpreted(program, ctx())

    @pytest.mark.parametrize(
        "instructions,fields",
        [
            ([(Op.LOAD, 5)], (1,)),                                  # out of range
            ([(Op.PUSH, 1), (Op.PUSH, 0), (Op.DIV, None)], ()),     # div by zero
            ([(Op.CALL, ("f_noSuch", 0))], ()),                      # unknown builtin
        ],
    )
    def test_error_paths_agree(self, instructions, fields):
        program = Program(instructions=list(instructions))
        with pytest.raises(PELError):
            VM.execute(program, EvalContext(fields=fields, builtins=make_builtins()))
        with pytest.raises(PELError):
            VM.execute_interpreted(
                program, EvalContext(fields=fields, builtins=make_builtins())
            )

    def test_recompilation_after_emit(self):
        program = Program().emit(Op.PUSH, 1)
        assert run(program) == 1
        program.emit(Op.PUSH, 2).emit(Op.ADD)
        assert run(program) == 3  # cache invalidated by emit()

    def test_long_program_falls_back_to_interpreter(self):
        from repro.pel.vm import MAX_CHAINED_INSTRUCTIONS

        program = Program()
        program.emit(Op.PUSH, 0)
        for _ in range(MAX_CHAINED_INSTRUCTIONS + 10):
            program.emit(Op.PUSH, 1)
            program.emit(Op.ADD)
        assert run(program) == MAX_CHAINED_INSTRUCTIONS + 10


def _both_paths(program, ctx_factory):
    """``(compiled, interpreted)`` outcomes: a value or the PELError text."""
    out = []
    for execute in (VM.execute, VM.execute_interpreted):
        try:
            out.append(("value", execute(program, ctx_factory())))
        except PELError as exc:
            out.append(("error", str(exc)))
    return out


class TestExactIntegerArithmetic:
    """Int/int arithmetic and comparison are exact on both execution paths."""

    BIG = 2**53
    ID160 = 2**159 + 3

    def test_arith_helper_is_exact(self):
        from repro.pel.vm import _arith

        assert _arith(self.ID160, 1, "-") == 2**159 + 2
        assert _arith(self.BIG, 1, "+") == self.BIG + 1
        assert _arith(self.BIG + 1, 3, "*") == 3 * self.BIG + 3
        assert type(_arith(self.BIG, 1, "+")) is int
        assert _arith(self.BIG, 1.0, "+") == float(self.BIG)  # floats stay floats

    @pytest.mark.parametrize(
        "op,a,b,expected",
        [
            (Op.ADD, BIG, 1, BIG + 1),
            (Op.SUB, ID160, 1, 2**159 + 2),
            (Op.MUL, BIG + 1, 3, 3 * BIG + 3),
            (Op.EQ, BIG, BIG + 1, False),
            (Op.NE, BIG, BIG + 1, True),
            (Op.LT, BIG, BIG + 1, True),
            (Op.GE, ID160 - 1, ID160, False),
            (Op.ADD, True, 1, 2),  # bools are not ints here: float path
        ],
        ids=["add-2^53", "sub-160bit", "mul-2^53", "eq-2^53", "ne-2^53", "lt-2^53",
             "ge-160bit", "add-bool"],
    )
    def test_both_paths_exact(self, op, a, b, expected):
        program = Program(instructions=[(Op.LOAD, 0), (Op.LOAD, 1), (op, None)])
        outcomes = _both_paths(program, lambda: EvalContext(fields=(a, b)))
        assert outcomes == [("value", expected)] * 2
        assert type(VM.execute(program, EvalContext(fields=(a, b)))) is type(
            VM.execute_interpreted(program, EvalContext(fields=(a, b)))
        )

    def test_chord_successor_distance_at_160_bits(self):
        # Chord's D := f_wrap(f_dist(N, S) - 1) with paper-sized identifiers
        n, s = 2**159 + 3, 2**159 + 7
        program = compile_expression(
            parse_expression("f_wrap(f_dist(N, S) - 1)"), {"N": 0, "S": 1}
        )
        ctx = lambda: EvalContext(  # noqa: E731
            fields=(n, s), builtins=make_builtins(), idspace=IdSpace(bits=160)
        )
        assert _both_paths(program, ctx) == [("value", 3)] * 2
        program = compile_expression(
            parse_expression("f_wrap(f_dist(N, S) - 1) == D"), {"N": 0, "S": 1, "D": 2}
        )
        ctx = lambda: EvalContext(  # noqa: E731
            fields=(s, n, 2**160 - 5), builtins=make_builtins(), idspace=IdSpace(bits=160)
        )
        assert _both_paths(program, ctx) == [("value", True)] * 2


class TestExpressionTreeDifferential:
    """Tree-compiled programs against the opcode interpreter."""

    OPERANDS = (
        0, 1, -7, 3, 2**53 + 1, 2**159 + 3, 2.5, -0.0, 1e300, True, False,
        None, "", "ab", "-", b"\x01", (1, 2),
    )
    BINARY = (
        Op.ADD, Op.SUB, Op.MUL, Op.DIV, Op.MOD, Op.SHL, Op.SHR, Op.EQ, Op.NE,
        Op.LT, Op.LE, Op.GT, Op.GE, Op.AND, Op.OR, Op.RING_ADD, Op.RING_SUB,
    )

    def _expression(self, rng, depth, out):
        """Append the stack code of a random expression to *out*."""
        roll = rng.random()
        if depth == 0 or roll < 0.25:
            if rng.random() < 0.5:
                out.append((Op.LOAD, rng.randrange(4)))
            else:
                out.append((Op.PUSH, rng.choice(self.OPERANDS)))
        elif roll < 0.35:
            self._expression(rng, depth - 1, out)
            out.append((rng.choice((Op.NOT, Op.NEG)), None))
        elif roll < 0.45:
            for _ in range(3):
                self._expression(rng, depth - 1, out)
            out.append((Op.RING_IN, (rng.random() < 0.5, rng.random() < 0.5)))
        elif roll < 0.55:
            argc = rng.choice((1, 2))
            for _ in range(argc):
                self._expression(rng, depth - 1, out)
            out.append((Op.CALL, (rng.choice(("f_max", "f_min")), 2) if argc == 2
                        else (rng.choice(("f_int", "f_str", "f_wrap")), 1)))
        else:
            self._expression(rng, depth - 1, out)
            self._expression(rng, depth - 1, out)
            out.append((rng.choice(self.BINARY), None))

    def test_generated_programs_agree(self):
        import random

        from repro.pel.vm import _expression_tree

        rng = random.Random(20261017)
        errors = 0
        for _ in range(3000):
            instructions = []
            self._expression(rng, rng.randrange(1, 5), instructions)
            program = Program(instructions=instructions)
            assert _expression_tree(program) is not None
            fields = tuple(rng.choice(self.OPERANDS) for _ in range(4))

            def ctx():
                return EvalContext(
                    fields=fields, builtins=make_builtins(), idspace=IdSpace(bits=16)
                )

            compiled, interpreted = _both_paths(program, ctx)
            assert compiled == interpreted, program.disassemble()
            if compiled[0] == "value":
                assert type(compiled[1]) is type(interpreted[1])
            else:
                errors += 1
        # the mix exercises error paths as well as values
        assert 100 < errors < 2900

    def _recording_builtins(self, log):
        def f_rec(ctx, tag, result):
            log.append(tag)
            return result

        builtins = make_builtins()
        builtins["f_rec"] = f_rec
        return builtins

    @pytest.mark.parametrize(
        "text,expected_log",
        [
            ("f_rec(1, 2) + f_rec(2, 3) * f_rec(3, 4)", [1, 2, 3]),
            ("f_rec(1, false) && f_rec(2, true)", [1, 2]),
            ("f_rec(1, true) || f_rec(2, false)", [1, 2]),
            ("f_max(f_rec(1, 1), f_rec(2, 2)) == f_rec(3, 2)", [1, 2, 3]),
            ("f_rec(1, 5) in (f_rec(2, 1), f_rec(3, 9)]", [1, 2, 3]),
        ],
    )
    def test_operands_evaluate_left_to_right_and_eagerly(self, text, expected_log):
        program = compile_expression(parse_expression(text), {})
        logs = []
        results = []
        for execute in (VM.execute, VM.execute_interpreted):
            log = []
            results.append(execute(program, EvalContext(builtins=self._recording_builtins(log))))
            logs.append(log)
        assert logs == [expected_log, expected_log]
        assert results[0] == results[1]

    @pytest.mark.parametrize(
        "instructions,fields,message",
        [
            ([(Op.LOAD, 5)], (1,), "LOAD 5 out of range (tuple arity 1)"),
            ([(Op.PUSH, 1), (Op.LOAD, 3), (Op.ADD, None)], (1, 2), "LOAD 3 out of range (tuple arity 2)"),
            ([(Op.PUSH, 1), (Op.PUSH, 0), (Op.DIV, None)], (), "division by zero"),
            ([(Op.LOAD, 0), (Op.PUSH, 0.0), (Op.DIV, None)], (4,), "division by zero"),
        ],
    )
    def test_error_messages_match(self, instructions, fields, message):
        program = Program(instructions=list(instructions))
        outcomes = _both_paths(program, lambda: EvalContext(fields=fields))
        assert outcomes == [("error", message)] * 2

    @pytest.mark.parametrize(
        "instructions",
        [
            [(Op.PUSH, 4), (Op.DUP, None), (Op.ADD, None)],
            [(Op.PUSH, 1), (Op.PUSH, 2), (Op.POP, None)],
            [(Op.PUSH, 1), (Op.PUSH, 2)],  # leftover stack
            [(Op.PUSH, 1), (Op.ADD, None)],  # too few inputs
            [],
        ],
    )
    def test_non_expressions_fall_back_to_the_interpreter(self, instructions, monkeypatch):
        from repro.pel.vm import PelVM, _expression_tree

        program = Program(instructions=list(instructions))
        assert _expression_tree(program) is None
        expected = _both_paths(program, EvalContext)[1]
        calls = []
        original = PelVM.execute_interpreted

        def spy(self, prog, ctx):
            calls.append(prog)
            return original(self, prog, ctx)

        monkeypatch.setattr(PelVM, "execute_interpreted", spy)
        program._compiled = None
        try:
            got = ("value", VM.execute(program, EvalContext()))
        except PELError as exc:
            got = ("error", str(exc))
        assert calls == [program]
        assert got == expected

    def test_expressions_do_not_use_the_interpreter(self, monkeypatch):
        from repro.pel.vm import PelVM

        def forbidden(self, prog, ctx):
            raise AssertionError("interpreter used")

        monkeypatch.setattr(PelVM, "execute_interpreted", forbidden)
        program = compile_expression(parse_expression("(X + 1) * 2 < Y"), {"X": 0, "Y": 1})
        assert VM.execute(program, EvalContext(fields=(3, 9))) is True

    def test_stop_ends_the_expression(self):
        from repro.pel.vm import _expression_tree

        program = Program(instructions=[(Op.PUSH, 1), (Op.STOP, None), (Op.DUP, None)])
        assert _expression_tree(program) is not None
        assert _both_paths(program, EvalContext) == [("value", 1)] * 2


class TestPropertyBased:
    @given(st.integers(-1000, 1000), st.integers(-1000, 1000))
    def test_addition_matches_python(self, a, b):
        expr = ast.BinaryOp("+", ast.Constant(a), ast.Constant(b))
        assert run(compile_expression(expr, {})) == a + b

    @given(st.integers(0, 255), st.integers(0, 255), st.integers(0, 255))
    def test_range_test_matches_idspace(self, v, lo, hi):
        ring = IdSpace(bits=8)
        expr = ast.RangeTest(
            ast.Constant(v), ast.Constant(lo), ast.Constant(hi), False, True
        )
        got = run(compile_expression(expr, {}), idspace=ring)
        assert got == ring.between_open_closed(v, lo, hi)

    @given(st.integers(-5000, 5000), st.integers(-5000, 5000))
    def test_comparison_consistency(self, a, b):
        lt = run(compile_expression(ast.BinaryOp("<", ast.Constant(a), ast.Constant(b)), {}))
        ge = run(compile_expression(ast.BinaryOp(">=", ast.Constant(a), ast.Constant(b)), {}))
        assert lt != ge
