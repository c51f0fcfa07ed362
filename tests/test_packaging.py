"""``pyproject.toml`` declares what the package imports, at its version.

A plain ``pip install .`` installs only the declared dependencies, so
every third-party module ``src/repro`` imports must be one of them, and
the distribution version must be the one ``repro --version`` reports.
Python 3.9 has no ``tomllib``: the two fields are read with regular
expressions, which is enough for this file's simple layout.
"""

import ast
import importlib.util
import os
import re
import sys
import sysconfig
from pathlib import Path

import repro

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src" / "repro"


def project_table() -> str:
    """The text of the ``[project]`` table."""
    text = (ROOT / "pyproject.toml").read_text()
    match = re.search(r"^\[project\]\n(.*?)(?=^\[|\Z)", text, re.M | re.S)
    assert match, "pyproject.toml has no [project] table"
    return match.group(1)


def declared_dependencies():
    """Top-level names of the ``dependencies`` array, normalized."""
    match = re.search(
        r"^dependencies\s*=\s*\[(.*?)\]", project_table(), re.M | re.S
    )
    assert match, "[project] declares no dependencies"
    requirements = re.findall(r"\"([^\"]+)\"", match.group(1))
    return {
        re.split(r"[\s<>=!~;\[]", req, maxsplit=1)[0].lower().replace("-", "_")
        for req in requirements
    }


def _is_stdlib(name: str) -> bool:
    names = getattr(sys, "stdlib_module_names", None)  # Python >= 3.10
    if names is not None:
        return name in names
    if name in sys.builtin_module_names:
        return True
    spec = importlib.util.find_spec(name)
    if spec is None or spec.origin is None:
        return False
    if spec.origin in ("built-in", "frozen"):
        return True
    origin = os.path.realpath(spec.origin)
    paths = sysconfig.get_paths()

    def inside(key):
        return origin.startswith(os.path.realpath(paths[key]) + os.sep)

    return inside("stdlib") and not (inside("purelib") or inside("platlib"))


def imported_third_party():
    """Top-level modules ``src/repro`` imports that are neither the
    standard library nor ``repro`` itself."""
    modules = set()
    for path in SOURCE.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules.add(node.module.split(".")[0])
    return {m for m in modules if m != "repro" and not _is_stdlib(m)}


def test_every_third_party_import_is_declared():
    missing = imported_third_party() - declared_dependencies()
    assert not missing, f"imported but not in [project] dependencies: {missing}"


def test_every_declared_dependency_is_imported():
    unused = declared_dependencies() - imported_third_party()
    assert not unused, f"declared but never imported by src/repro: {unused}"


def test_version_matches_package():
    match = re.search(r"^version\s*=\s*\"([^\"]+)\"", project_table(), re.M)
    assert match, "[project] declares no version"
    assert match.group(1) == repro.__version__
