"""Module layering: the core depends on nothing above it."""

import ast
from pathlib import Path

import pytest

import accumtest

PACKAGE = Path(accumtest.__file__).resolve().parent
UPPER = {"simlab", "dosage", "power_theory", "cli", "validation"}


def package_imports(module: str) -> set[str]:
    """Names of the package modules that ``module`` imports."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module:
                found.add(node.module.split(".")[0])
            elif node.level == 1:
                found.update(alias.name for alias in node.names)
            elif node.module and node.module.startswith("accumtest."):
                found.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            found.update(
                alias.name.split(".")[1]
                for alias in node.names
                if alias.name.startswith("accumtest.")
            )
    return found


@pytest.mark.parametrize("module", ["accumfn", "seqtest", "baselines"])
def test_core_imports_nothing_above_it(module):
    assert package_imports(module) & UPPER == set()


def test_dosage_does_not_import_simlab():
    assert "simlab" not in package_imports("dosage")


def test_scan_sees_relative_imports():
    assert {"seqtest", "baselines", "errors"} <= package_imports("dosage")
