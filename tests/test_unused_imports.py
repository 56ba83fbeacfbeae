"""No module imports a name it never uses. No linter ships with the project,
so this test is the check, over the same files as test_python_floor.py.

A name counts as used when the module reads it anywhere, or lists it in its
__all__ (how the package root re-exports its modules' names). An import kept
for its side effect says so with `# noqa: F401` on its line."""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted(
    path for top in ("src", "tests", "bench") for path in (ROOT / top).rglob("*.py")
)


def unused_imports(source: str) -> list[str]:
    """`line: name` for each name the source imports and never uses."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound = [(a, a.asname or a.name.partition(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound = [(a, a.asname or a.name) for a in node.names if a.name != "*"]
        else:
            continue
        for alias, name in bound:
            if not any(
                "# noqa: F401" in lines[line - 1] for line in (node.lineno, alias.lineno)
            ):
                imported.setdefault(name, alias.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return [
        f"{line}: {name}"
        for name, line in sorted(imported.items(), key=lambda item: item[1])
        if name not in used
    ]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: str(path.relative_to(ROOT)))
def test_module_uses_every_name_it_imports(path: Path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_imports_honours_all_and_noqa():
    source = (
        "import os.path\n"
        "import numpy as np\n"
        "from json import dumps, loads\n"
        "from .model import Config\n"
        "import tribound  # noqa: F401\n"
        "__all__ = ['Config']\n"
        "print(os.path.sep, dumps)\n"
    )
    assert unused_imports(source) == ["2: np", "3: loads"]
