"""The package's re-exports: one table, resolved lazily to each defining module."""

import sys

import pytest

import stforge


def test_every_export_is_its_defining_modules_object():
    assert len(stforge.__all__) == len(set(stforge.__all__)) == 71
    for name in stforge.__all__:
        obj = getattr(stforge, name)
        assert obj.__module__.startswith("stforge.") and obj.__name__ == name
        assert getattr(sys.modules[obj.__module__], name) is obj


def test_star_import_and_unknown_names():
    namespace = {}
    exec("from stforge import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(stforge.__all__)
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        stforge.no_such_name
