"""The benchmark harness wraps program names by module; each must resolve.

bench/child.py replaces "module.attribute" bindings with timed wrappers
(FUNCTION_SPANS), wraps "module.Class.method" on the class (METHOD_SPANS),
and rewires `engine.stream_rng` and `cli.run`. A move that drops one of
these names breaks the benchmark; this test names the missing binding. It
reads the harness source and does not import it.
"""
import ast
import importlib
from pathlib import Path

import pytest

CHILD = Path(__file__).resolve().parents[1] / "bench" / "child.py"


def _harness_bindings() -> list[str]:
    spans = {
        node.target.id: ast.literal_eval(node.value)
        for node in ast.parse(CHILD.read_text()).body
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)
        and node.target.id in ("FUNCTION_SPANS", "METHOD_SPANS")
    }
    functions = [b for bindings in spans["FUNCTION_SPANS"].values() for b in bindings]
    return [*functions, *spans["METHOD_SPANS"], "engine.stream_rng", "cli.run"]


@pytest.mark.parametrize("binding", _harness_bindings())
def test_benchmark_binding_resolves(binding: str):
    module, *attributes = binding.split(".")
    target = importlib.import_module(f"tribound.{module}")
    for attribute in attributes:
        assert hasattr(target, attribute), f"{binding} does not resolve"
        target = getattr(target, attribute)
    assert callable(target)
