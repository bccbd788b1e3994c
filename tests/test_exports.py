import importlib

import pytest

import edgecurrents as ec

SUBMODULES = ("currents", "errors", "fd", "multifermion", "oracle", "params", "spectrum")


@pytest.fixture
def loaded():
    return {name: importlib.import_module(f"edgecurrents.{name}") for name in SUBMODULES}


def test_exports_are_the_submodule_objects(loaded):
    owners = ec._MODULE_OF
    assert set(owners.values()) == set(SUBMODULES) and sorted(owners) == ec.__all__
    assert len(ec.__all__) == 48
    for name in ec.__all__:
        obj = getattr(ec, name)
        assert obj is getattr(loaded[owners[name]], name)
        if hasattr(obj, "__qualname__"):  # classes and functions: defined where exported from
            assert obj.__module__ == f"edgecurrents.{owners[name]}"


def test_dir_and_star_import_cover_all(loaded):
    assert set(ec.__all__) <= set(dir(ec))
    assert set(SUBMODULES) <= set(dir(ec))
    namespace = {}
    exec("from edgecurrents import *", namespace)
    assert set(ec.__all__) <= set(namespace)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        ec.no_such_name
    assert not hasattr(ec, "_singular_coefficients")


def test_lookup_is_not_cached(loaded, monkeypatch):
    before = dict(vars(ec))
    for name in ec.__all__:
        getattr(ec, name)
    assert vars(ec) == before
    # a name rebound in its submodule, and restored, is what the package returns
    original = loaded["params"].reflection_dual
    monkeypatch.setattr(loaded["params"], "reflection_dual", lambda p: p)
    assert ec.reflection_dual is loaded["params"].reflection_dual
    monkeypatch.undo()
    assert ec.reflection_dual is original
