"""Result records: construction, defaults, equality, repr and field order."""

import ast
import importlib
import os

import pytest

import cfl
from cfl.records import Record
from cfl.reports import jsonable


class Point(Record):
    x: int
    y: int = 0
    tags: tuple = ()


class Twin(Record):
    x: int
    y: int = 0
    tags: tuple = ()


def test_fields_are_given_by_position_or_by_name_in_declared_order():
    assert vars(Point(1, 2, ("a",))) == {"x": 1, "y": 2, "tags": ("a",)}
    assert vars(Point(tags=("a",), y=2, x=1)) == {"x": 1, "y": 2, "tags": ("a",)}
    assert list(vars(Point(tags=(), x=1))) == ["x", "y", "tags"]
    assert vars(Point(1, tags=("b",))) == {"x": 1, "y": 0, "tags": ("b",)}


def test_defaults_fill_the_fields_not_given():
    a = Point(1)
    assert (a.y, a.tags) == (0, ())
    assert vars(Point(2, 5)) == {"x": 2, "y": 5, "tags": ()}


@pytest.mark.parametrize("args, kwargs, message", [
    ((), {"y": 2}, "missing required argument 'x'"),
    ((1,), {"z": 2}, "unexpected keyword argument 'z'"),
    ((1,), {"x": 2}, "multiple values for argument 'x'"),
    ((1, 2, (), 4), {}, "takes 3 positional arguments but 4 were given"),
])
def test_a_missing_unknown_or_doubled_field_is_a_type_error(args, kwargs, message):
    with pytest.raises(TypeError, match=message):
        Point(*args, **kwargs)


def test_equality_is_by_class_and_fields():
    assert Point(1, 2) == Point(1, 2, ())
    assert Point(1, 2) != Point(1, 3)
    assert Point(1, 2) != Twin(1, 2)
    assert Point(1) != (1, 0, ())


def test_repr_lists_the_fields_and_records_are_unhashable():
    assert repr(Point(1, tags=("a",))) == "Point(x=1, y=0, tags=('a',))"
    with pytest.raises(TypeError):
        hash(Point(1))


def _declared_records():
    """``(module, class, fields)`` for each ``Record`` subclass in cfl, with
    its fields read from the source's annotated class body."""
    src = os.path.dirname(os.path.abspath(cfl.__file__))
    for fname in sorted(os.listdir(src)):
        if not fname.endswith(".py"):
            continue
        with open(os.path.join(src, fname), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), fname)
        for node in tree.body:
            if isinstance(node, ast.ClassDef) and any(
                    isinstance(b, ast.Name) and b.id == "Record" for b in node.bases):
                yield fname[:-3], node.name, [
                    stmt.target.id for stmt in node.body
                    if isinstance(stmt, ast.AnnAssign)]


def test_every_result_record_reports_its_keys_in_declared_order():
    records = list(_declared_records())
    assert len(records) == 22
    for module, name, fields in records:
        cls = getattr(importlib.import_module(f"cfl.{module}"), name)
        record = cls(*range(len(fields)))
        assert list(jsonable(record)) == fields, name
        assert list(vars(record)) == fields, name
