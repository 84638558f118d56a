"""Every cache in the package is bounded.  A library cache lives as long as
the process, so ``functools.cache``, a bare ``lru_cache`` decorator or one
whose ``maxsize`` is not an int would let a long session grow without end
(or hide the bound in a default).  The scan accepts ``lru_cache(N)`` and
``lru_cache(maxsize=N)`` where N is an int literal or a module-level name
assigned one."""

import ast
import os

import pytest

import curvegkz

PACKAGE = os.path.dirname(curvegkz.__file__)
MODULES = sorted(name for name in os.listdir(PACKAGE) if name.endswith(".py"))
CACHES = ("lru_cache", "cache")


def _name(node):
    """The name a Name or an Attribute node refers to."""
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def _int_constants(tree):
    """Module-level names assigned an int literal."""
    consts = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant):
            value = node.value.value
            if isinstance(value, int) and not isinstance(value, bool):
                consts.update((target.id, value) for target in node.targets if isinstance(target, ast.Name))
    return consts


def unbounded_caches(source):
    """The line of each cache in the source without an int maxsize."""
    tree = ast.parse(source)
    consts = _int_constants(tree)
    called = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and _name(node.func) in CACHES:
            size = node.args[0] if node.args else next((kw.value for kw in node.keywords if kw.arg == "maxsize"), None)
            if isinstance(size, ast.Name):
                size = consts.get(size.id)
            elif isinstance(size, ast.Constant):
                size = size.value
            if _name(node.func) != "lru_cache" or type(size) is not int:
                lines.append(node.lineno)
        elif _name(node) in CACHES and id(node) not in called:
            lines.append(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("name", MODULES)
def test_package_caches_are_bounded(name):
    with open(os.path.join(PACKAGE, name), encoding="utf-8") as fh:
        assert unbounded_caches(fh.read()) == [], f"unbounded caches in {name}"


def test_scan_finds_unbounded_caches():
    source = """
import functools
from functools import cache, lru_cache
SIZE = 8
@lru_cache(maxsize=SIZE)
def a(x): return x
@functools.lru_cache(16)
def b(x): return x
@lru_cache
def c(x): return x
@lru_cache(maxsize=None)
def d(x): return x
@cache
def e(x): return x
f = functools.cache(len)
@lru_cache(maxsize=OTHER)
def g(x): return x
"""
    assert unbounded_caches(source) == [9, 11, 13, 15, 16]
