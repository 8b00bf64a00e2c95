"""Unit tests for the concrete type system (repro.core.values)."""

import pytest
from hypothesis import given, strategies as st

from repro.core import values
from repro.core.errors import ValueError_


class TestCoerce:
    def test_primitives_pass_through(self):
        for v in (None, True, 3, 2.5, "x", b"y"):
            assert values.coerce(v) == v

    def test_lists_become_tuples(self):
        assert values.coerce([1, [2, 3]]) == (1, (2, 3))

    def test_rejects_arbitrary_objects(self):
        with pytest.raises(ValueError_):
            values.coerce(object())


class TestValueType:
    def test_tags(self):
        assert values.value_type(None) == values.ValueType.NULL
        assert values.value_type(True) == values.ValueType.BOOL
        assert values.value_type(7) == values.ValueType.INT
        assert values.value_type(1 << 100) == values.ValueType.ID
        assert values.value_type(1.5) == values.ValueType.FLOAT
        assert values.value_type("s") == values.ValueType.STR
        assert values.value_type(b"b") == values.ValueType.BYTES
        assert values.value_type((1, 2)) == values.ValueType.LIST


class TestConversions:
    def test_to_int(self):
        assert values.to_int(None) == 0
        assert values.to_int(True) == 1
        assert values.to_int(3.9) == 3
        assert values.to_int("42") == 42
        assert values.to_int("0x10") == 16

    def test_to_int_bad_string(self):
        with pytest.raises(ValueError_):
            values.to_int("not a number")

    def test_to_float(self):
        assert values.to_float(None) == 0.0
        assert values.to_float("2.5") == 2.5
        assert values.to_float(4) == 4.0

    def test_to_bool(self):
        assert values.to_bool(None) is False
        assert values.to_bool(0) is False
        assert values.to_bool("") is False
        assert values.to_bool("x") is True
        assert values.to_bool(0.1) is True

    def test_to_str(self):
        assert values.to_str(None) == "-"
        assert values.to_str(True) == "true"
        assert values.to_str(False) == "false"
        assert values.to_str(7) == "7"
        assert values.to_str(b"\x01\x02") == "0102"


class TestCompare:
    def test_numeric_cross_type(self):
        assert values.compare(1, 1.0) == 0
        assert values.compare(1, 2.5) == -1
        assert values.compare(3.5, 2) == 1

    def test_null_sorts_first(self):
        assert values.compare(None, 0) < 0
        assert values.compare(None, "") < 0

    def test_strings(self):
        assert values.compare("a", "b") < 0
        assert values.compare("b", "a") > 0
        assert values.equal("a", "a")

    def test_mixed_types_use_rank(self):
        assert values.compare(5, "5") < 0  # numbers before strings

    @given(st.integers(), st.integers())
    def test_antisymmetry_ints(self, a, b):
        assert values.compare(a, b) == -values.compare(b, a)

    @given(st.lists(st.one_of(st.integers(), st.text(), st.floats(allow_nan=False)), min_size=1))
    def test_total_order_is_sortable(self, items):
        import functools
        ordered = sorted(items, key=functools.cmp_to_key(values.compare))
        for x, y in zip(ordered, ordered[1:]):
            assert values.compare(x, y) <= 0


class TestExactIntegers:
    """Two ints compare and sum exactly, never through float (53-bit)."""

    BIG = 2**53
    ID160 = 2**159 + 3  # a 160-bit Chord identifier

    def test_equal_beyond_float_precision(self):
        assert float(self.BIG) == float(self.BIG + 1)
        assert not values.equal(self.BIG, self.BIG + 1)
        assert values.equal(self.BIG + 1, self.BIG + 1)

    def test_compare_beyond_float_precision(self):
        assert values.compare(self.BIG, self.BIG + 1) == -1
        assert values.compare(self.BIG + 1, self.BIG) == 1
        assert values.compare(self.ID160, self.ID160 - 1) == 1
        assert values.compare(self.ID160 - 1, self.ID160) == -1
        assert values.compare(self.ID160, self.ID160) == 0

    def test_int_subclass_compares_exactly(self):
        class Ident(int):
            pass

        assert values.compare(Ident(self.BIG + 1), self.BIG) == 1
        assert not values.equal(self.BIG, Ident(self.BIG + 1))

    def test_mixed_int_float_still_compares_as_float(self):
        assert values.compare(self.BIG + 1, float(self.BIG)) == 0
        assert values.compare(1, 1.0) == 0
        assert values.compare(True, 1) != 0  # bools keep their own rank

    def test_min_max_of_160_bit_ids(self):
        from repro.dataflow.aggregates import agg_max, agg_min

        ids = [self.ID160, self.ID160 - 1, self.ID160 + 1]
        assert agg_min(ids) == self.ID160 - 1
        assert agg_max(ids) == self.ID160 + 1

    def test_sum_of_ints_is_exact(self):
        from repro.dataflow.aggregates import agg_sum

        assert agg_sum([self.BIG, 1]) == self.BIG + 1
        assert agg_sum([self.ID160, -3, 1]) == 2**159 + 1
        assert type(agg_sum([self.BIG, 1])) is int
        assert agg_sum([]) == 0

    def test_sum_with_a_float_or_bool_is_float(self):
        from repro.dataflow.aggregates import agg_sum

        assert agg_sum([1, 2.5]) == 3.5
        assert type(agg_sum([1, True])) is float

    @given(st.integers(-(2**170), 2**170), st.integers(-(2**170), 2**170))
    def test_compare_matches_python_on_ints(self, a, b):
        assert values.compare(a, b) == (a > b) - (a < b)
        assert values.equal(a, b) == (a == b)


class TestSizeEstimate:
    def test_sizes_monotonic_in_content(self):
        assert values.estimate_size("ab") < values.estimate_size("abcdef")
        assert values.estimate_size(1 << 200) > values.estimate_size(5)

    def test_all_types_have_sizes(self):
        for v in (None, True, 2, 2.5, "s", b"b", (1, "x")):
            assert values.estimate_size(v) > 0


class TestUniqueIds:
    def test_deterministic(self):
        assert values.make_unique_id(["a", 1]) == values.make_unique_id(["a", 1])

    def test_distinct_for_distinct_seeds(self):
        assert values.make_unique_id(["a"]) != values.make_unique_id(["b"])

    @given(st.text(), st.text())
    def test_no_trivial_concatenation_collisions(self, a, b):
        # the separator byte prevents ("ab","c") colliding with ("a","bc")
        if a != b:
            assert values.make_unique_id([a]) != values.make_unique_id([b])
