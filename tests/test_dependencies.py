"""The package runs on the standard library, numpy and click alone: the
declared runtime dependencies and every import in its source say so. Every
name it exports resolves and is named in the README."""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "coinfactors"
RUNTIME = {"numpy", "click"}


def test_declared_runtime_dependencies():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    names = {
        re.split(r"[\s<>=!~;\[]", requirement, maxsplit=1)[0].lower()
        for requirement in project["dependencies"]
    }
    assert names == RUNTIME
    # econometrics.ols_stack uses ndarray.mT, which arrived in NumPy 2.0
    numpy = next(r for r in project["dependencies"] if r.lower().startswith("numpy"))
    floor = re.fullmatch(r"numpy\s*>=\s*([\d.]+)", numpy, re.IGNORECASE)
    assert floor is not None, numpy
    assert tuple(int(part) for part in floor.group(1).split(".")) >= (2, 0)


def _imported_modules(path: Path):
    """Top-level module of every absolute import in the file, including
    imports inside functions."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_package_imports_only_stdlib_numpy_click():
    allowed = set(sys.stdlib_module_names) | RUNTIME | {"coinfactors"}
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    foreign = sorted(
        f"{path.name}: {module}"
        for path in sources
        for module in set(_imported_modules(path))
        if module not in allowed
    )
    assert foreign == []


def test_every_export_resolves():
    # a name left in __all__ after its definition is gone breaks
    # `from coinfactors import *` with an AttributeError
    import coinfactors

    namespace = {}
    exec("from coinfactors import *", namespace)
    assert sorted(set(coinfactors.__all__)) == sorted(coinfactors.__all__)
    assert all(name in namespace for name in coinfactors.__all__)
    # the top level exports only what the README documents
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    undocumented = [
        name
        for name in coinfactors.__all__
        if name != "__version__" and f"`{name}`" not in readme
    ]
    assert undocumented == []
