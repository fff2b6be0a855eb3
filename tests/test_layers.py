"""Module layering: the core depends on nothing above it, and importing
the package or running a command loads no more of scipy than it needs."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
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


def test_tails_is_a_leaf_that_only_dosage_and_simlab_use():
    assert package_imports("_tails") == set()
    users = {
        path.stem for path in PACKAGE.glob("*.py") if "_tails" in package_imports(path.stem)
    }
    assert users == {"dosage", "simlab"}


def test_only_cli_uses_the_writer_which_imports_no_package_module():
    assert package_imports("_csvtext") == set()
    users = {path.stem for path in PACKAGE.glob("*.py") if "_csvtext" in package_imports(path.stem)}
    assert users == {"cli"}


def package_env() -> dict[str, str]:
    """The environment with this checkout's package first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(PACKAGE.parent)] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    return env


def run_python(code: str) -> str:
    """Standard output of ``code`` run in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=package_env(),
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return proc.stdout


def test_package_import_loads_no_scipy():
    out = run_python(
        "import sys, accumtest\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    assert out.strip() == "[]"


def write_matrix(tmp_path):
    """A small full-precision expression matrix, split (3, 3, 2)."""
    matrix = tmp_path / "matrix.csv"
    lines = ["gene_id,C0,C1,C2,L0,L1,L2,H0,H1"]
    for i, row in enumerate(np.random.default_rng(3).normal(size=(20, 8))):
        lines.append(",".join([f"g{i}"] + [repr(float(v)) for v in row]))
    matrix.write_text("\n".join(lines) + "\n")
    return matrix


def test_commands_never_load_scipy_stats(tmp_path):
    matrix = write_matrix(tmp_path)
    argvs = [
        ["dosage", str(matrix)],
        ["simulate", "--seed", "1", "--trials", "2", "--n", "200", "--n-nonnull", "20"],
        ["power", "--curve", "f:0,0.5;1,0.3", "--alpha", "0.2", "--mu", "0.5"],
        ["validate"],
    ]
    out = run_python(
        "import contextlib, io, sys\n"
        "from accumtest import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    codes = [cli.main(argv) for argv in {argvs!r}]\n"
        "print(codes, 'scipy.stats' in sys.modules)"
    )
    assert out.strip() == "[0, 0, 0, 0] False"


def modules_loaded_by(argv, cwd) -> set[str]:
    """Modules that ``python -m accumtest ARGV`` imports, from -X importtime."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "accumtest", *argv],
        cwd=cwd,
        env=package_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return {
        line.rsplit("|", 1)[1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:") and line.count("|") == 2
    }


@pytest.mark.parametrize("command", ["test", "version"])
def test_test_and_version_load_no_upper_module_nor_scipy(tmp_path, command):
    (tmp_path / "p.csv").write_text("p,is_null\n0.01,0\n0.02,0\n0.7,1\n")
    argv = {
        "test": ["test", "p.csv", "--method", "hingeexp:C=2", "--alpha", "0.2",
                 "--out", "path.csv"],
        "version": ["--version"],
    }[command]
    loaded = modules_loaded_by(argv, tmp_path)
    assert "accumtest.cli" in loaded
    upper = {f"accumtest.{name}" for name in UPPER - {"cli"}}
    assert loaded & upper == set()
    assert [name for name in loaded if name.split(".")[0] == "scipy"] == []
    # The writer loads when a table or report line is written, not for --version.
    assert ("accumtest._csvtext" in loaded) == (command == "test")


@pytest.mark.parametrize("command", ["dosage", "simulate"])
def test_dosage_and_simulate_load_no_scipy(tmp_path, command):
    # Both run on the package's own normal and Student-t tails; power and
    # validate, which still load scipy, exit 0 in the test above.
    write_matrix(tmp_path)
    argv = {
        "dosage": ["dosage", "matrix.csv", "--out", "table.csv"],
        "simulate": ["simulate", "--seed", "1", "--trials", "2", "--n", "200",
                     "--n-nonnull", "20", "--out", "sim"],
    }[command]
    loaded = modules_loaded_by(argv, tmp_path)
    assert "accumtest._tails" in loaded
    assert [name for name in loaded if name.split(".")[0] == "scipy"] == []


def test_simulate_loads_no_power_theory(tmp_path):
    # simlab needs power_theory only to plant a signal curve.  (-X
    # importtime does not list simlab, which the command imports through
    # importlib; _tails, which simlab imports, shows that it ran.)
    argv = ["simulate", "--seed", "1", "--trials", "2", "--n", "200",
            "--n-nonnull", "20", "--out", "sim"]
    loaded = modules_loaded_by(argv, tmp_path)
    assert "accumtest._tails" in loaded
    assert "accumtest.power_theory" not in loaded


def test_every_public_name_resolves():
    for name in accumtest.__all__:
        assert getattr(accumtest, name) is not None, name
    assert set(accumtest.__all__) <= set(dir(accumtest))
    with pytest.raises(AttributeError):
        accumtest.no_such_name
