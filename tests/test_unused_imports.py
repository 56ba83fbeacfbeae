"""No module imports a name it never uses. No linter ships with the project,
so this test is the check, over the same files as test_python_floor.py.

A name counts as used when the module reads it anywhere, or lists it in its
__all__ (how the package root re-exports its modules' names). An import kept
for its side effect says so with `# noqa: F401` on its line.

Under src/ every import also sits at module level: an import inside a
function hides a dependency that the module layering should carry. And
every exception src/ raises by name is a TriboundError, so that a caller
catches all of the package's failures with one except clause, apart from
two lookups that raise KeyError and the run that raises again what its
second process met, listed in RAISE_ALLOWED. And every
function, class and method src/ defines is named somewhere in src/, so no
definition is kept for the tests alone. And src/ takes every Euclidean norm
through model.row_norms: no module calls or imports np.linalg.norm or
np.einsum, so a second norm cannot come back unnoticed."""
import ast
from pathlib import Path

import pytest

from tribound import errors

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


def nested_imports(source: str) -> list[int]:
    """Line of each import that is not a statement of the module body."""
    tree = ast.parse(source)
    top = {id(node) for node in tree.body}
    return [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and id(node) not in top
    ]


PACKAGE_ERRORS = {
    name for name, value in vars(errors).items()
    if isinstance(value, type) and issubclass(value, errors.TriboundError)
}
# The two KeyError lookups, and the exception an aligned run's second
# process met, raised again in the run as the one-process run raises it.
RAISE_ALLOWED = {
    "seeding.stream_rng: KeyError", "bounds.VerificationReport.check: KeyError",
    "engine._Run.finish: error",
}


def foreign_raises(source: str, module: str) -> list[str]:
    """`scope: name` for each raise that names no package error, its scope
    the module and the enclosing classes and functions. A bare re-raise
    names nothing and passes."""
    found = []

    def visit(node: ast.AST, scope: list[str]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, [*scope, child.name])
                continue
            if isinstance(child, ast.Raise) and child.exc is not None:
                exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
                name = ast.unparse(exc)
                if name not in PACKAGE_ERRORS:
                    found.append(f"{'.'.join(scope)}: {name}")
            visit(child, scope)

    visit(ast.parse(source), [module])
    return found


def unnamed_definitions(sources: list[str]) -> list[str]:
    """Each function, class or method the sources define, dunders apart,
    that none of them names as a Name, an Attribute, an imported name or a
    string constant (such as an __all__ entry)."""
    defined, named = set(), set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    defined.add(node.name)
            elif isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                named.add(node.value)
    return sorted(defined - named)


def other_norms(source: str) -> list[str]:
    """`line: name` for each call or import of a linalg.norm or an einsum."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            names = [ast.unparse(node.func)]
        elif isinstance(node, ast.ImportFrom):
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        found += [
            f"{node.lineno}: {name}" for name in names
            if f".{name}".endswith((".linalg.norm", ".einsum"))
        ]
    return found


def _source_id(path: Path) -> str:
    return str(path.relative_to(ROOT))


@pytest.mark.parametrize("path", SOURCES, ids=_source_id)
def test_module_uses_every_name_it_imports(path: Path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize(
    "path", [path for path in SOURCES if path.is_relative_to(ROOT / "src")], ids=_source_id
)
def test_module_imports_only_at_module_level(path: Path):
    assert nested_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize(
    "path", [path for path in SOURCES if path.is_relative_to(ROOT / "src")], ids=_source_id
)
def test_module_raises_only_package_errors(path: Path):
    raised = foreign_raises(path.read_text(encoding="utf-8"), path.stem)
    assert [found for found in raised if found not in RAISE_ALLOWED] == []


@pytest.mark.parametrize(
    "path", [path for path in SOURCES if path.is_relative_to(ROOT / "src")], ids=_source_id
)
def test_module_takes_norms_only_through_row_norms(path: Path):
    assert other_norms(path.read_text(encoding="utf-8")) == []


def test_src_defines_nothing_that_only_tests_name():
    sources = [path.read_text(encoding="utf-8") for path in SOURCES
               if path.is_relative_to(ROOT / "src")]
    assert unnamed_definitions(sources) == []


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


def test_nested_imports_finds_imports_below_module_level():
    source = (
        "import os\n"
        "def f():\n"
        "    from json import dumps\n"
        "    return dumps(os.sep)\n"
        "class C:\n"
        "    import math\n"
    )
    assert nested_imports(source) == [3, 6]


def test_foreign_raises_names_each_raise_outside_the_package_errors():
    source = (
        "def f(x):\n"
        "    if x:\n"
        "        raise ValidationError('x')\n"
        "    try:\n"
        "        return {}[x]\n"
        "    except KeyError:\n"
        "        raise\n"
        "class C:\n"
        "    def g(self):\n"
        "        raise ValueError('g') from None\n"
        "    def h(self):\n"
        "        raise np.linalg.LinAlgError\n"
        "raise TriboundError('top')\n"
    )
    assert foreign_raises(source, "m") == [
        "m.C.g: ValueError", "m.C.h: np.linalg.LinAlgError"
    ]


def test_other_norms_finds_each_linalg_norm_and_einsum():
    source = (
        "import numpy as np\n"
        "from numpy.linalg import norm\n"
        "a = np.linalg.norm(x, axis=1)\n"
        "b = np.sqrt(np.einsum('i,i', x, x))\n"
        "c = row_norms(x) + np.linalg.svd(x)[1] + normalise(x)\n"
    )
    assert other_norms(source) == [
        "2: numpy.linalg.norm", "3: np.linalg.norm", "4: np.einsum"
    ]


def test_unnamed_definitions_counts_names_attributes_imports_and_strings():
    sources = [
        "class Kept:\n"
        "    def __init__(self): self.method()\n"
        "    def method(self): pass\n"
        "    def orphan(self): pass\n"
        "def exported(): pass\n"
        "def imported(): pass\n"
        "def unused(): pass\n"
        "__all__ = ['exported']\n",
        "from .m import imported\n"
        "Kept()\n",
    ]
    assert unnamed_definitions(sources) == ["orphan", "unused"]
