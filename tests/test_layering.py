"""The CLI is a layer on top of the library: it parses flags, calls public
library names, writes columns and records a manifest. So `cli.py` reads no
private (underscore) name of another package module, and the tests of the
library reach nothing private in the CLI: outside `tests/test_cli.py` a
test module may import only the CLI's `main`, to run a command end to end,
or load the CLI with a bare import."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
CLI = ROOT / "src" / "monogamy_lab" / "cli.py"
PACKAGE = "monogamy_lab"


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _package_module(node: ast.ImportFrom) -> str | None:
    """The package module an import-from reads names of, or None outside the
    package; ``from . import x`` reads names of the package itself."""
    if node.level == 1:
        return f"{PACKAGE}.{node.module}" if node.module else PACKAGE
    if node.module == PACKAGE or (node.module or "").startswith(PACKAGE + "."):
        return node.module
    return None


def private_reads(source: str) -> list[str]:
    """Each private name that the module reads from another package module:
    by an import, or as an attribute of a name bound to a package module."""
    tree = ast.parse(source)
    modules, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (home := _package_module(node)):
            for alias in node.names:
                if _private(alias.name):
                    found.append(f"{home}.{alias.name}")
                elif home == PACKAGE:  # `from . import protocol` binds a module
                    modules.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == PACKAGE:
                    if any(map(_private, alias.name.split("."))):
                        found.append(alias.name)
                    modules.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _private(node.attr):
            base = ast.unparse(node.value)
            if base in modules:
                found.append(f"{base}.{node.attr}")
    return found


def cli_reach(source: str) -> list[str]:
    """What a test module takes from the CLI beyond `main` and a bare load."""
    tree = ast.parse(source)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.module == f"{PACKAGE}.cli":
                found += [f"cli.{a.name}" for a in node.names if a.name != "main"]
            elif node.module == PACKAGE:
                found += ["cli" for a in node.names if a.name == "cli"]
        elif isinstance(node, ast.Attribute) and ast.unparse(node.value) == f"{PACKAGE}.cli":
            found.append(f"cli.{node.attr}")
    return found


def test_cli_reads_no_private_name_of_another_module():
    assert private_reads(CLI.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", sorted((ROOT / "tests").glob("*.py")), ids=lambda p: p.name)
def test_only_the_cli_tests_reach_into_the_cli(path):
    if path.name != "test_cli.py":
        assert cli_reach(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("source, found", [
    ("from . import protocol\nprotocol._evolve_all_down(1)", ["protocol._evolve_all_down"]),
    ("from .protocol import _split_coefficients", ["monogamy_lab.protocol._split_coefficients"]),
    ("from . import _parallel", ["monogamy_lab._parallel"]),
    ("import monogamy_lab.qcore as q\nq._x", ["q._x"]),
    ("from . import __version__, protocol\nprotocol.explore_state\nv._value_", []),
])
def test_private_reads_sees_each_form(source, found):
    assert private_reads(source) == found


@pytest.mark.parametrize("source, found", [
    ("from monogamy_lab.cli import _explore_state", ["cli._explore_state"]),
    ("from monogamy_lab import cli", ["cli"]),
    ("import monogamy_lab.cli\nmonogamy_lab.cli._write_csv", ["cli._write_csv"]),
    ("from monogamy_lab.cli import main\nimport monogamy_lab.cli", []),
])
def test_cli_reach_sees_each_form(source, found):
    assert cli_reach(source) == found
