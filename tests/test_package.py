"""The package namespace republishes each library module's `__all__`, the CLI
uses only their public names, and no module sums through BLAS."""

import ast
import importlib
from pathlib import Path

import pytest

import optcoding
import optcoding.cli

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


def test_cli_uses_no_private_name_of_a_library_module():
    # the CLI is a shell over the library's public names: no reader or
    # helper of its own reaching into a module's internals
    tree = ast.parse(Path(optcoding.cli.__file__).read_text(encoding="utf-8"))
    private = [
        f"{node.value.id}.{node.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id in MODULES and node.attr.startswith("_")
    ]
    assert private == []


def test_no_module_reduces_with_blas():
    """A BLAS dot sums in an order that follows its thread count, so an output
    that went through one could change with OPENBLAS_NUM_THREADS.  Weighted
    sums are `np.einsum`, numpy's own loop."""
    found = []
    for path in sorted(Path(optcoding.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult)
                    or isinstance(node, ast.Attribute)
                    and node.attr in {"dot", "vdot", "inner", "matmul", "tensordot", "linalg"}):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
