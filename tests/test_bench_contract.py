"""The benchmark under bench/ imports and traces vdropstat by name.

A renamed or deleted function would break it only when it runs; these
tests fail first. They read bench/ and never modify it.
"""

import ast
import importlib
import importlib.util

import pytest

from helpers import REPO
from vdropstat.mixed_dist import DropDistribution

BENCH = REPO / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_resolve():
    tracing = _load("tracing")
    for mod_name, funcs in tracing.FUNCTIONS.items():
        module = importlib.import_module(f"vdropstat.{mod_name}")
        for attr, _ in funcs:
            assert callable(getattr(module, attr, None)), f"{mod_name}.{attr}"
    for meth in tracing.QUERIES:
        assert callable(DropDistribution.__dict__.get(meth)), meth


@pytest.mark.parametrize("name", ["checks", "worker"])
def test_bench_imports_resolve(name):
    tree = ast.parse((BENCH / f"{name}.py").read_text(encoding="utf-8"))
    seen = 0
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("vdropstat"):
            module = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(module, alias.name) or importlib.util.find_spec(
                    f"{node.module}.{alias.name}"), f"{node.module}.{alias.name}"
                seen += 1
    assert seen


def test_checks_selftest_catches_every_planted_fault(monkeypatch):
    monkeypatch.chdir(REPO)  # the self-test reads configs/feeder4.json
    assert _load("checks").selftest() == []
