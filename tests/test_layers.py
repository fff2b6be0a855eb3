"""Module layering: the core depends on nothing above it, importing the
package or running a command loads no more of scipy than it needs, and
everything but ``validate`` and the scipy-backed densities runs without
scipy installed."""

import ast
import importlib
import json
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


def test_tails_is_a_leaf_that_the_package_import_does_not_load():
    assert package_imports("_tails") == set()
    users = {
        path.stem for path in PACKAGE.glob("*.py") if "_tails" in package_imports(path.stem)
    }
    # densities, which the package import loads, imports it on first use.
    assert users == {"densities", "dosage", "simlab"}
    out = run_python("import sys, accumtest\nprint('accumtest._tails' in sys.modules)")
    assert out.strip() == "False"


def csvtext_names(module: str) -> set[str]:
    """Names that ``module`` imports from ``_csvtext``, or ``"_csvtext"``
    itself where it imports the module whole."""
    imported = set()
    for node in ast.walk(ast.parse((PACKAGE / f"{module}.py").read_text())):
        if isinstance(node, ast.ImportFrom) and node.module in ("_csvtext", "accumtest._csvtext"):
            imported.update(alias.name for alias in node.names)
    if "_csvtext" in package_imports(module) and not imported:
        imported.add("_csvtext")
    return imported


def csvtext_users(wanted: set[str]) -> set[str]:
    return {path.stem for path in PACKAGE.glob("*.py") if csvtext_names(path.stem) & wanted}


def test_only_cli_uses_the_writer_which_imports_no_package_module():
    assert package_imports("_csvtext") == set()
    assert csvtext_users({"write_table", "cell_text", "_csvtext"}) == {"cli"}


def test_only_cli_and_dosage_use_the_reader():
    assert csvtext_users({"read_table", "BadRow"}) == {"cli", "dosage"}
    users = {path.stem for path in PACKAGE.glob("*.py") if "_csvtext" in package_imports(path.stem)}
    assert users == {"cli", "dosage"}


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


CORE = ("errors", "densities", "accumfn", "seqtest", "baselines")


def test_engine_table_is_each_engines_all_less_the_core_names():
    modules = [importlib.import_module(f"accumtest.{module}") for module in CORE]
    core = {name for module in modules for name in module.__all__}
    assert set(accumtest._ENGINES) == {"dosage", "simlab", "power_theory", "validation"}
    for module, names in accumtest._ENGINES.items():
        engine = importlib.import_module(f"accumtest.{module}")
        assert sorted(names) == sorted(set(engine.__all__) - core), module


def test_engine_names_are_written_only_in_the_package_table():
    # Each engine sets its __all__ from accumtest._ENGINES, so no other
    # module of the package spells one of those names as a string.
    names = {name for names in accumtest._ENGINES.values() for name in names}
    found = {}
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                if node.value in names:
                    found.setdefault(node.value, set()).add(path.name)
    assert found == {name: {"__init__.py"} for name in names}


# The core names an engine re-exports in its __all__.
REEXPORTED = {"simlab": {"Method", "default_methods"}}


@pytest.mark.parametrize("module", ["dosage", "simlab", "power_theory", "validation"])
def test_star_import_of_an_engine_binds_its_table_entry(module):
    namespace = {}
    exec(f"from accumtest.{module} import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == set(accumtest._ENGINES[module]) | REEXPORTED.get(module, set())


def test_package_import_loads_exactly_the_core():
    out = run_python(
        "import json, sys, accumtest\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('accumtest.'))))"
    )
    helpers = ("_pieces", "quadrature")
    assert json.loads(out) == sorted(f"accumtest.{module}" for module in CORE + helpers)


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
    """Modules in ``sys.modules`` once ``python -m accumtest ARGV`` has run
    in a fresh interpreter.  Unlike -X importtime, this sees the modules
    that ``cli._lazy`` loads through importlib."""
    code = (
        "import json, runpy, sys\n"
        f"sys.argv = ['accumtest', *{list(argv)!r}]\n"
        "try:\n"
        "    runpy.run_module('accumtest', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as stop:\n"
        "    assert not stop.code, stop.code\n"
        "with open('modules.json', 'w') as handle:\n"
        "    json.dump(sorted(sys.modules), handle)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        cwd=cwd,
        env=package_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads((Path(cwd) / "modules.json").read_text()))


def scipy_modules(loaded: set[str]) -> list[str]:
    return [name for name in loaded if name.split(".")[0] == "scipy"]


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
    assert scipy_modules(loaded) == []
    # The writer loads when a table or report line is written, not for --version.
    assert ("accumtest._csvtext" in loaded) == (command == "test")


def test_version_and_package_import_load_neither_csv_module(tmp_path):
    # The csv module is imported only when an input file falls back to it.
    loaded = modules_loaded_by(["--version"], tmp_path)
    assert "accumtest.cli" in loaded
    assert {"accumtest._csvtext", "csv"} & loaded == set()
    out = run_python("import sys, accumtest\nprint(sorted({'accumtest._csvtext', 'csv'} & set(sys.modules)))")
    assert out.strip() == "[]"


SIMULATE_ARGV = ["simulate", "--seed", "1", "--trials", "2", "--n", "200",
                 "--n-nonnull", "20", "--out", "sim"]


@pytest.mark.parametrize("command", ["dosage", "simulate"])
def test_dosage_and_simulate_load_no_scipy(tmp_path, command):
    # Both run on the package's own normal and Student-t tails.  Nor do
    # they load numpy.ma, which np.unique once imported for the writer's
    # method-name column.
    write_matrix(tmp_path)
    argv = {
        "dosage": ["dosage", "matrix.csv", "--out", "table.csv"],
        "simulate": SIMULATE_ARGV,
    }[command]
    loaded = modules_loaded_by(argv, tmp_path)
    engine = {"dosage": "accumtest.dosage", "simulate": "accumtest.simlab"}[command]
    assert {engine, "accumtest._tails", "accumtest._csvtext"} <= loaded
    assert scipy_modules(loaded) == []
    assert "numpy.ma" not in loaded


def test_simulate_loads_no_power_theory(tmp_path):
    # simlab needs power_theory only to plant a signal curve.
    loaded = modules_loaded_by(SIMULATE_ARGV, tmp_path)
    assert "accumtest.simlab" in loaded
    assert "accumtest.power_theory" not in loaded


@pytest.mark.parametrize("command", ["dosage", "simulate", "power"])
def test_each_command_loads_its_engine_alone(tmp_path, command):
    write_matrix(tmp_path)
    argv, engine = {
        "dosage": (["dosage", "matrix.csv", "--out", "table.csv"], "dosage"),
        "simulate": (SIMULATE_ARGV, "simlab"),
        "power": (["power", "--curve", "f:0,0.5;1,0.3", "--alpha", "0.2", "--mu", "0.5"],
                  "power_theory"),
    }[command]
    loaded = modules_loaded_by(argv, tmp_path)
    engines = {f"accumtest.{module}" for module in accumtest._ENGINES}
    assert loaded & engines == {f"accumtest.{engine}"}


def test_every_public_name_resolves():
    for name in accumtest.__all__:
        assert getattr(accumtest, name) is not None, name
    assert set(accumtest.__all__) <= set(dir(accumtest))
    with pytest.raises(AttributeError):
        accumtest.no_such_name


TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def tracer_wrap_targets() -> set[tuple[str, str]]:
    """(module, name) of each package attribute that ``bench/tracer.py`` wraps.

    A ``wrap(module, ...)`` call inside ``for module in (a, b):`` counts
    as a call on a and on b.  The file is parsed, never imported.
    """
    targets = set()

    def visit(node, loops):
        if (
            isinstance(node, ast.For) and isinstance(node.target, ast.Name)
            and isinstance(node.iter, ast.Tuple)
        ):
            loops = {**loops, node.target.id: [e.id for e in node.iter.elts]}
        if (
            isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "wrap" and isinstance(node.args[0], ast.Name)
        ):
            name = ast.literal_eval(node.args[1])
            targets.update((m, name) for m in loops.get(node.args[0].id, [node.args[0].id]))
        for child in ast.iter_child_nodes(node):
            visit(child, loops)

    visit(ast.parse(TRACER.read_text()), {})
    return {(m, name) for m, name in targets if m in {"cli", "dosage", "seqtest", "simlab"}}


def test_every_name_the_benchmark_tracer_wraps_resolves():
    # bench/run.py --trace 1 dies on a wrapped name that no longer exists.
    targets = tracer_wrap_targets()
    assert {("simlab", "aggregate"), ("simlab", "select_cutoff"), ("cli", "run_pipeline")} <= targets
    for module, name in sorted(targets):
        assert callable(getattr(importlib.import_module(f"accumtest.{module}"), name)), (module, name)


def test_benchmark_tracer_call_to_collect_trial_frames_runs():
    from accumtest import simlab

    config = simlab.SimConfig(n=50, n_nonnull=5, trials=3, seed=1)
    frames = simlab.collect_trial_frames(
        config, simlab.default_methods(), include_paths=True, workers=1
    )
    assert sum(len(frame.stats) for frame in frames) == 3
    assert all(frame.fdp_hat_paths.shape[1:] == (4, 50) for frame in frames)


def test_only_densities_imports_scipy():
    def imports_scipy(path):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            if any(name.split(".")[0] == "scipy" for name in names):
                return True
        return False

    assert {path.stem for path in PACKAGE.glob("*.py") if imports_scipy(path)} == {
        "densities"
    }


# Run in a fresh interpreter, where ``sys.modules['scipy'] = None`` makes
# every import of scipy fail as if it were not installed.
BLOCK_SCIPY = "import sys\nsys.modules['scipy'] = None\n"

RUN_COMMANDS = """
import contextlib, io, json, os
from accumtest import cli
results = {}
for name, argv in json.loads(sys.argv[1]).items():
    os.chdir(name)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    results[name] = [code, out.getvalue()]
    os.chdir("..")
print(json.dumps(results))
"""


def run_commands(tmp_path, argvs, block):
    """Exit code and stdout of each command, each run in its own copy of
    ``tmp_path / 'inputs'``, in one fresh interpreter."""
    root = tmp_path / ("without" if block else "with")
    for name in argvs:
        (root / name).mkdir(parents=True)
        for source in (tmp_path / "inputs").iterdir():
            (root / name / source.name).write_bytes(source.read_bytes())
    proc = subprocess.run(
        [sys.executable, "-c", (BLOCK_SCIPY if block else "import sys\n") + RUN_COMMANDS,
         json.dumps(argvs)],
        cwd=root,
        env=package_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout), root


def test_commands_without_scipy_match_those_with_it(tmp_path):
    (tmp_path / "inputs").mkdir()
    write_matrix(tmp_path / "inputs")
    (tmp_path / "inputs" / "p.csv").write_text("p,is_null\n0.01,0\n0.02,0\n0.7,1\n")
    argvs = {
        "version": ["--version"],
        "test": ["test", "p.csv", "--method", "hingeexp:C=2", "--alpha", "0.2",
                 "--out", "path.csv"],
        "dosage": ["dosage", "matrix.csv", "--out", "table.csv"],
        "simulate": SIMULATE_ARGV,
        "simulate-stdout": SIMULATE_ARGV[:-2] + ["--no-paths"],
        "power": ["power", "--curve", "f:0,0.5;1,0.3", "--alpha", "0.8", "--mu", "0.5"],
    }
    with_scipy, with_root = run_commands(tmp_path, argvs, block=False)
    without, without_root = run_commands(tmp_path, argvs, block=True)
    assert without == with_scipy
    assert {name: code for name, (code, _) in without.items()} == dict.fromkeys(argvs, 0)
    for name, (_, out) in without.items():
        files = sorted(path.name for path in (with_root / name).iterdir())
        assert files == sorted(path.name for path in (without_root / name).iterdir())
        for file in files:
            assert (with_root / name / file).read_bytes() == (
                without_root / name / file
            ).read_bytes(), (name, file)
        # Each run printed its result or wrote it beside the two inputs.
        assert out or len(files) > 2, name


def test_validate_without_scipy_fails_fast():
    proc = subprocess.run(
        [sys.executable, "-c", BLOCK_SCIPY + "from accumtest.cli import main\n"
         "raise SystemExit(main(['validate']))"],
        env=package_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 4
    assert proc.stdout == ""
    (line,) = proc.stderr.splitlines()
    assert line.startswith("error: ") and "accumtest[theory]" in line


DENSITY_CALLS = """
import json
import numpy as np
from accumtest import AlternativeDensity, ContractError
points = np.linspace(0.0, 1.0, 11)
results = []
for density in (
    AlternativeDensity.uniform(),
    AlternativeDensity.piecewise([(0.0, 0.25, 2.0), (0.25, 1.0, 2.0 / 3.0)]),
):
    for values in (
        density.pdf(points), density.cdf(points), density.upper_tail(points),
        density.sample(np.random.default_rng(5), 7),
    ):
        results.append(values.tolist())
    results.append([density.pdf(0.3), density.cdf(0.3)])
beta = AlternativeDensity.beta(1.0, 2.0)
results.append(beta.sample(np.random.default_rng(5), 7).tolist())
z = AlternativeDensity.two_sided_z(1.5)
results.append(z.sample(np.random.default_rng(5), 7).tolist())
try:
    beta.cdf(0.5)
except ContractError as error:
    results.append(str(error))
print(json.dumps(results))
"""


def test_numpy_densities_run_without_scipy():
    without = json.loads(run_python(BLOCK_SCIPY + DENSITY_CALLS))
    with_scipy = json.loads(run_python(DENSITY_CALLS))
    assert without[:-1] == with_scipy
    assert len(without) == len(with_scipy) + 1 == 13
    assert "accumtest[theory]" in without[-1]


def test_one_module_owns_the_memory_budget():
    """The 128 MiB cap and the wording of its refusal live in errors.py alone."""
    owners = {
        path.stem
        for path in PACKAGE.glob("*.py")
        if any(rule in path.read_text() for rule in ("MiB budget", "128 * 2**20"))
    }
    assert owners == {"errors"}


def test_one_module_owns_the_list_grammar():
    """Piece and knot lists are split, and a bad row is worded, in _pieces alone."""
    owners = {
        path.stem
        for path in PACKAGE.glob("*.py")
        if any(rule in path.read_text() for rule in ('split(";")', "!r} in {text!r}"))
    }
    assert owners == {"_pieces"}
