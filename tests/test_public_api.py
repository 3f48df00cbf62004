"""Every name the demos and the README import exists, and every README CLI line parses.

Importing the package also stays light.
"""
import ast
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import resilinet
from resilinet.cli import build_parser

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


def readme_cli_lines() -> list[str]:
    """``resilinet ...`` lines of the README's sh blocks, continuation lines joined."""
    text = (ROOT / "README.md").read_text()
    blocks = re.findall(r"```sh\n(.*?)```", text, flags=re.DOTALL)
    lines = "".join(blocks).replace("\\\n", " ").splitlines()
    return [line for line in lines if line.startswith("resilinet ")]


def test_readme_cli_lines_were_found():
    assert len(readme_cli_lines()) >= 7


@pytest.mark.parametrize("line", readme_cli_lines())
def test_readme_cli_line_parses(line):
    args = build_parser().parse_args(shlex.split(line)[1:])
    assert callable(args.func)


# Slow-to-import modules the package does not need.  Every benchmark
# workload's set-up time includes the package import.
HEAVY_MODULES = ("scipy.spatial", "scipy.optimize", "scipy.stats", "numba", "pandas",
                 "networkx", "sklearn")


def test_import_loads_no_heavy_module():
    code = ("import sys, resilinet; "
            f"print(' '.join(m for m in {HEAVY_MODULES!r} if m in sys.modules))")
    src = str(Path(resilinet.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    loaded = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, check=True, timeout=120).stdout.split()
    assert loaded == []
