"""Every name the demos and the README quick-start import from the package exists."""
import ast
import re
from pathlib import Path

import pytest

import resilinet

ROOT = Path(__file__).resolve().parents[1]


def package_imports(source: str) -> list[str]:
    """Names imported with ``from resilinet import ...`` in Python source."""
    return [alias.name
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.module == "resilinet"
            for alias in node.names]


def readme_snippets() -> list[str]:
    text = (ROOT / "README.md").read_text()
    return re.findall(r"```python\n(.*?)```", text, flags=re.DOTALL)


SOURCES = {path.name: path.read_text() for path in sorted((ROOT / "demos").glob("*.py"))}
SOURCES.update({f"README.md#{i}": code for i, code in enumerate(readme_snippets())})


def test_sources_were_found():
    assert any(name.startswith("README.md#") for name in SOURCES)
    assert sum(name.endswith(".py") for name in SOURCES) >= 5


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_package_imports_resolve(name):
    imported = package_imports(SOURCES[name])
    assert imported, f"{name} imports nothing from resilinet"
    missing = [n for n in imported if not hasattr(resilinet, n)]
    assert not missing, f"{name} imports names resilinet does not export: {missing}"
