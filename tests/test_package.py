"""The package namespace republishes each library module's `__all__`."""

import importlib

import pytest

import optcoding

MODULES = ["assign", "codebook", "corpus", "maxent", "randtype"]


@pytest.mark.parametrize("name", MODULES)
def test_every_public_name_is_the_modules_own_object(name):
    module = importlib.import_module(f"optcoding.{name}")
    for public in module.__all__:
        assert getattr(optcoding, public) is getattr(module, public), public


def test_no_name_is_public_in_two_modules():
    # the later wildcard import would silently shadow the earlier one
    owner = {}
    for name in MODULES:
        for public in importlib.import_module(f"optcoding.{name}").__all__:
            assert public not in owner, (public, owner[public], name)
            owner[public] = name


def test_cli_names_stay_out_of_the_package():
    assert not hasattr(optcoding, "main") and not hasattr(optcoding, "MAX_SIZE")
