"""Unit tests for Tuple (repro.core.tuples)."""

import pytest
from hypothesis import given, strategies as st

from repro.core import Tuple, fresh_tuple_id, values
from repro.core.errors import TupleError, ValueError_


class TestConstruction:
    def test_make(self):
        t = Tuple.make("succ", "n1", 5, "n2")
        assert t.name == "succ"
        assert t.fields == ("n1", 5, "n2")

    def test_empty_name_rejected(self):
        with pytest.raises(TupleError):
            Tuple("", [1])

    def test_fields_are_coerced(self):
        t = Tuple("x", [[1, 2]])
        assert t.fields == ((1, 2),)


class Ident(int):
    """An int subclass: not a scalar type, so it takes the coerce pass."""


class Label(str):
    pass


_leaf = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=2**60, max_value=2**170),
    st.floats(allow_nan=False),
    st.text(max_size=5),
    st.binary(max_size=5),
    st.integers().map(Ident),
    st.text(max_size=5).map(Label),
)
_field = st.recursive(
    _leaf,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3), st.lists(inner, max_size=3).map(tuple)
    ),
    max_leaves=8,
)


class TestCheckedFastPath:
    """The scalar type test must be invisible: same fields as coercing all."""

    @given(st.lists(_field, max_size=6))
    def test_fields_equal_coerced_fields(self, fs):
        t = Tuple("rel", fs)
        expected = tuple(values.coerce(f) for f in fs)
        assert t.fields == expected
        assert [type(f) for f in t.fields] == [type(f) for f in expected]

    @given(st.lists(_field, max_size=6))
    def test_equal_inputs_hash_equal(self, fs):
        a = Tuple("rel", fs)
        b = Tuple("rel", [values.coerce(f) for f in fs])
        assert a == b
        assert hash(a) == hash(b)

    @pytest.mark.parametrize(
        "bad", [object(), {1: 2}, {1}, [1, object()], (2, [3, object()])]
    )
    def test_unrepresentable_value_still_raises(self, bad):
        with pytest.raises(ValueError_):
            Tuple("rel", [1, "x", bad])

    def test_generator_is_consumed_exactly_once(self):
        pulled = []

        def fields():
            for value in (1, "a", [2, 3], None):
                pulled.append(value)
                yield value

        t = Tuple("rel", fields())
        assert t.fields == (1, "a", (2, 3), None)
        assert pulled == [1, "a", [2, 3], None]

    def test_lists_and_subclasses_take_the_coerce_pass(self):
        t = Tuple("rel", [Ident(5), Label("x"), [1, [2]]])
        assert t.fields == (5, "x", (1, (2,)))
        assert type(t.fields[0]) is Ident  # coerce keeps int subclasses


class TestImmutability:
    def test_setattr_raises(self):
        t = Tuple.make("a", 1)
        with pytest.raises(TupleError):
            t.name = "b"

    def test_append_returns_new(self):
        t = Tuple.make("a", 1)
        t2 = t.append(2, 3)
        assert t.fields == (1,)
        assert t2.fields == (1, 2, 3)


class TestAccess:
    def test_getitem_and_len(self):
        t = Tuple.make("a", 10, 20, 30)
        assert len(t) == 3
        assert t[1] == 20

    def test_getitem_out_of_range(self):
        with pytest.raises(TupleError):
            Tuple.make("a", 1)[5]

    def test_key(self):
        t = Tuple.make("member", "n1", "n2", 7, 1.0, True)
        assert t.key([1]) == ("n2",)
        assert t.key([0, 2]) == ("n1", 7)

    def test_project(self):
        t = Tuple.make("a", 1, 2, 3)
        p = t.project([2, 0], name="b")
        assert p.name == "b"
        assert p.fields == (3, 1)

    def test_project_out_of_range(self):
        with pytest.raises(TupleError):
            Tuple.make("a", 1).project([4])

    def test_rename(self):
        assert Tuple.make("a", 1).rename("b") == Tuple.make("b", 1)


class TestEqualityHash:
    def test_equal_tuples_hash_equal(self):
        a = Tuple.make("t", 1, "x")
        b = Tuple.make("t", 1, "x")
        assert a == b
        assert hash(a) == hash(b)

    def test_name_matters(self):
        assert Tuple.make("a", 1) != Tuple.make("b", 1)

    @given(st.lists(st.one_of(st.integers(), st.text()), max_size=5))
    def test_roundtrip_through_set(self, fields):
        t = Tuple("rel", fields)
        assert t in {t}


class TestSizing:
    def test_size_grows_with_fields(self):
        small = Tuple.make("x", 1)
        big = Tuple.make("x", 1, "a long string field", 12345678901234567890)
        assert big.estimate_size() > small.estimate_size()


def test_fresh_tuple_ids_increase():
    a, b = fresh_tuple_id(), fresh_tuple_id()
    assert b > a


def test_repr_is_readable():
    assert repr(Tuple.make("succ", "n1", 5)) == "succ(n1, 5)"
