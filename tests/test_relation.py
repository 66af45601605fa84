"""Tests for the Relation value type."""

import pytest

from repro.storage.dictionary import ValueEncodingError
from repro.storage.relation import Relation


@pytest.fixture
def edges() -> Relation:
    return Relation("E", ("src", "dst"), [(1, 2), (2, 3), (1, 3), (2, 3)])


class TestConstruction:
    def test_duplicates_removed(self, edges):
        assert len(edges) == 3

    def test_tuples_sorted(self, edges):
        assert list(edges.tuples) == sorted(edges.tuples)

    def test_arity(self, edges):
        assert edges.arity == 2

    def test_wrong_arity_tuple_rejected(self):
        with pytest.raises(ValueError):
            Relation("E", ("a", "b"), [(1, 2, 3)])

    def test_duplicate_attributes_rejected(self):
        with pytest.raises(ValueError):
            Relation("E", ("a", "a"), [])

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            Relation("", ("a",), [])

    def test_no_attributes_rejected(self):
        with pytest.raises(ValueError):
            Relation("E", (), [])

    def test_empty_relation_allowed(self):
        assert len(Relation("E", ("a", "b"), [])) == 0

    def test_unhashable_value_is_a_typed_error(self):
        with pytest.raises(ValueEncodingError) as error:
            Relation("E", ("src", "dst"), [(1, 2), (3, [4])])
        assert isinstance(error.value, TypeError)  # existing handlers hold
        message = str(error.value)
        assert "'E'" in message and "'dst'" in message and "[4]" in message
        assert "not hashable" in message

    def test_unorderable_value_is_a_typed_error(self):
        with pytest.raises(ValueEncodingError) as error:
            Relation("E", ("src", "dst"), [(1, 2), (1, "x"), (2, 3)])
        message = str(error.value)
        assert "'E'" in message and "'dst'" in message and "'x'" in message
        assert "cannot be ordered" in message

    def test_columns_may_mix_types_the_sort_never_compares(self):
        """Only what the tuple sort has to order is part of the contract."""
        relation = Relation("E", ("src", "dst"), [(1, "x"), (2, 3)])
        assert relation.tuples == ((1, "x"), (2, 3))


class TestAccess:
    def test_contains(self, edges):
        assert (1, 2) in edges
        assert (9, 9) not in edges

    def test_iteration(self, edges):
        assert set(edges) == {(1, 2), (1, 3), (2, 3)}

    def test_attribute_index(self, edges):
        assert edges.attribute_index("dst") == 1

    def test_unknown_attribute(self, edges):
        with pytest.raises(KeyError):
            edges.attribute_index("nope")

    def test_column(self, edges):
        assert sorted(edges.column("src")) == [1, 1, 2]

    def test_value_counts(self, edges):
        assert edges.value_counts("src") == {1: 2, 2: 1}


class TestOperations:
    def test_project(self, edges):
        projected = edges.project(["src"])
        assert projected.attributes == ("src",)
        assert set(projected) == {(1,), (2,)}

    def test_project_reorders(self, edges):
        swapped = edges.project(["dst", "src"])
        assert (2, 1) in swapped

    def test_select_equal(self, edges):
        selected = edges.select_equal("src", 1)
        assert set(selected) == {(1, 2), (1, 3)}

    def test_rename(self, edges):
        assert edges.rename("F").name == "F"
        assert edges.rename("F").tuples == edges.tuples

    def test_with_attributes(self, edges):
        renamed = edges.with_attributes(("x", "y"))
        assert renamed.attributes == ("x", "y")

    def test_equality(self):
        left = Relation("E", ("a", "b"), [(1, 2)])
        right = Relation("E", ("a", "b"), [(1, 2)])
        assert left == right
        assert hash(left) == hash(right)

    def test_repr_contains_cardinality(self, edges):
        assert "cardinality=3" in repr(edges)
