"""Every source file parses under Python 3.10, the requires-python floor in
pyproject.toml, so syntax newer than the floor fails here and not only on
the CI leg that runs 3.10."""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted(
    path for top in ("src", "tests", "bench") for path in (ROOT / top).rglob("*.py")
)


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: str(path.relative_to(ROOT)))
def test_source_parses_at_the_python_floor(path: Path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
