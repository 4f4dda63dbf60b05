"""The package namespace: each public name is imported from its module on
first use, and the table that says where cannot drift from the modules."""

from __future__ import annotations

import pytest

import netfolio


@pytest.mark.parametrize("name", sorted(netfolio._EXPORTS))
def test_name_lives_in_its_module(name):
    assert getattr(netfolio, name).__module__ == f"netfolio.{netfolio._EXPORTS[name]}"


def test_dir_and_star_import_list_every_name():
    assert set(netfolio._EXPORTS) <= set(dir(netfolio))
    namespace: dict = {}
    exec("from netfolio import *", namespace)
    assert set(netfolio._EXPORTS) <= set(namespace)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        netfolio.no_such_name
    assert not hasattr(netfolio, "no_such_name")
