"""Benchmark workloads: seeded inputs, CLI arguments and output checks.

Each workload is one whole ``accumtest`` command run on synthetic
inputs made from the benchmark seed.  The program receives only the
generated files (and, for ``simulate``, a seed derived from the
benchmark seed).  Every workload is the only one that leans on its
layer, so an optimisation of one layer has one workload that exercises
it and others on which the prediction is no change.
"""

from __future__ import annotations

import csv
import hashlib
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

DOSAGE_METHODS = (
    "ForwardStop", "HingeExp", "SeqStep", "SeqStep+",
    "BH-t", "Storey-t", "BH-perm", "Storey-perm",
)
DOSAGE_ALPHAS = (0.05, 0.1, 0.15, 0.2, 0.25, 0.3)
SIMULATE_METHODS = ("ForwardStop", "HingeExp", "SeqStep", "SeqStep+")
SIMULATE_ALPHAS = (0.05, 0.075, 0.1, 0.125, 0.15, 0.175, 0.2, 0.225, 0.25)
HINGE_C = 2.0
TEST_ALPHA = 0.2


@dataclass
class Inputs:
    """What one run of a workload feeds the CLI and how its output is checked."""

    workload: "Workload"
    params: dict
    directory: Path
    argv: list[str]
    outputs: list[str]
    items: int
    files: dict[str, dict] = field(default_factory=dict)

    def argv_without_out(self) -> list[str]:
        i = self.argv.index("--out")
        return self.argv[:i] + self.argv[i + 2:]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    params: dict
    smoke_params: dict
    make: Callable[[np.random.Generator, dict, Path], tuple[list[str], list[str], int]]
    check: Callable[[Inputs, str], list[str]]

    def prepare(self, seed: int, directory: Path, smoke: bool = False) -> Inputs:
        """Write this workload's inputs for ``seed`` into ``directory``."""
        params = dict(self.smoke_params if smoke else self.params)
        directory.mkdir(parents=True, exist_ok=True)
        rng = np.random.default_rng([seed, _stable_id(self.name)])
        argv, outputs, items = self.make(rng, params, directory)
        inputs = Inputs(self, params, directory, argv, outputs, items)
        for name in sorted(p.name for p in directory.iterdir()):
            inputs.files[name] = file_record(directory / name)
        return inputs


def _stable_id(name: str) -> int:
    return int.from_bytes(hashlib.sha256(name.encode()).digest()[:4], "little")


def file_record(path: Path) -> dict:
    data = path.read_bytes()
    return {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}


# --- dosage ---------------------------------------------------------------


def _make_dosage(rng, params, directory):
    genes = params["genes"]
    m_c, m_l, m_h = params["groups"]
    m = m_c + m_l + m_h
    base = rng.normal(8.0, 1.5, size=(genes, 1))
    sd = rng.uniform(0.3, 0.8, size=(genes, 1))
    values = base + sd * rng.standard_normal((genes, m))
    # About 10 % of genes carry a dose-consistent shift: half of it at
    # the low dose, all of it at the high dose, in one direction.
    planted = rng.random(genes) < 0.10
    effect = np.where(rng.random(genes) < 0.5, -1.0, 1.0)
    effect *= rng.uniform(1.0, 3.0, genes) * sd[:, 0]
    values[planted, m_c:m_c + m_l] += 0.5 * effect[planted, None]
    values[planted, m_c + m_l:] += effect[planted, None]
    fmt = params["format"]
    header = (
        ["gene_id"]
        + [f"C{i + 1}" for i in range(m_c)]
        + [f"L{i + 1}" for i in range(m_l)]
        + [f"H{i + 1}" for i in range(m_h)]
    )
    lines = [",".join(header)]
    for g in range(genes):
        lines.append(f"g{g:06d}," + ",".join(format(v, fmt) for v in values[g]))
    (directory / "expression.csv").write_text("\n".join(lines) + "\n")
    argv = ["dosage", "expression.csv", "--out", "dosage.csv"]
    items = genes * math.comb(m_c + m_l, m_c)
    return argv, ["dosage.csv"], items


def check_dosage(inputs: Inputs, stdout: str) -> list[str]:
    """8 methods x 6 levels, counts in range and monotone, Storey >= BH."""
    genes = inputs.params["genes"]
    with open(inputs.directory / "dosage.csv", newline="") as handle:
        rows = list(csv.reader(handle))
    if not rows or rows[0] != ["method", "alpha", "discoveries"]:
        return ["dosage: bad header"]
    table: dict[str, dict[float, int]] = {}
    try:
        for method, alpha, count in rows[1:]:
            table.setdefault(method, {})[float(alpha)] = int(count)
    except ValueError:
        return ["dosage: unparsable row"]
    problems = []
    if len(rows) - 1 != len(DOSAGE_METHODS) * len(DOSAGE_ALPHAS):
        problems.append(f"dosage: {len(rows) - 1} rows")
    if tuple(table) != DOSAGE_METHODS:
        return problems + [f"dosage: methods {tuple(table)}"]
    for method, counts in table.items():
        if tuple(counts) != DOSAGE_ALPHAS:
            problems.append(f"dosage: {method} levels {tuple(counts)}")
            continue
        series = [counts[a] for a in DOSAGE_ALPHAS]
        if any(not 0 <= c <= genes for c in series):
            problems.append(f"dosage: {method} count out of [0, {genes}]")
        if any(b < a for a, b in zip(series, series[1:])):
            problems.append(f"dosage: {method} counts decrease in alpha")
    for kind in ("t", "perm"):
        bh, storey = table[f"BH-{kind}"], table[f"Storey-{kind}"]
        if any(storey[a] < bh[a] for a in DOSAGE_ALPHAS):
            problems.append(f"dosage: Storey-{kind} below BH-{kind}")
    return problems


# --- test -----------------------------------------------------------------


def _make_test(rng, params, directory):
    n = params["n"]
    # An informative ordering: non-nulls concentrate near the front.
    position = np.arange(n)
    nonnull = rng.random(n) < 0.6 * np.exp(-position / (0.02 * n))
    p = rng.random(n)
    p[nonnull] = rng.beta(0.1, 1.0, int(nonnull.sum()))
    lines = ["p,is_null"]
    lines.extend(f"{format(v, '.17g')},{0 if h else 1}" for v, h in zip(p, nonnull))
    (directory / "pvalues.csv").write_text("\n".join(lines) + "\n")
    argv = [
        "test", "pvalues.csv", "--method", f"hingeexp:C={HINGE_C:g}",
        "--alpha", str(TEST_ALPHA), "--out", "path.csv",
    ]
    return argv, ["path.csv"], n


def hinge_exp_path(p: np.ndarray, c: float) -> np.ndarray:
    """HingeExp running mean, computed apart from the package."""
    h = np.zeros_like(p)
    tail = p > 1.0 - 1.0 / c
    h[tail] = -c * (math.log(c) + np.log1p(-p[tail]))
    return np.cumsum(h) / np.arange(1, p.size + 1)


def check_test(inputs: Inputs, stdout: str) -> list[str]:
    """fdp_hat matches an independent HingeExp path; k_hat is its last k <= alpha."""
    given = np.loadtxt(inputs.directory / "pvalues.csv", delimiter=",", skiprows=1, ndmin=2)
    try:
        out = np.loadtxt(inputs.directory / "path.csv", delimiter=",", skiprows=1, ndmin=2)
    except ValueError:
        return ["test: unparsable path.csv"]
    if out.shape != (given.shape[0], 3):
        return [f"test: path.csv has shape {out.shape}"]
    problems = []
    if not np.array_equal(out[:, 0], np.arange(1, given.shape[0] + 1)):
        problems.append("test: k column is not 1..n")
    if not np.array_equal(out[:, 1], given[:, 0]):
        problems.append("test: p column differs from the input")
    expected = hinge_exp_path(given[:, 0], HINGE_C)
    if not np.all(np.abs(out[:, 2] - expected) <= 1e-12 * np.abs(expected)):
        problems.append("test: fdp_hat differs from the HingeExp path")
    hits = np.nonzero(out[:, 2] <= TEST_ALPHA)[0]
    k_hat = int(hits[-1]) + 1 if hits.size else 0
    if f"k_hat = {k_hat}" not in stdout.splitlines():
        problems.append(f"test: stdout does not report k_hat = {k_hat}")
    return problems


# --- simulate -------------------------------------------------------------


def _make_simulate(rng, params, directory):
    sim_seed = int(rng.integers(0, 2**31))
    argv = [
        "simulate", "--seed", str(sim_seed), "--n", str(params["n"]),
        "--trials", str(params["trials"]), "--workers", str(params["workers"]),
        "--out", "sim",
    ]
    return argv, ["sim_summary.csv", "sim_paths.csv"], params["trials"]


def check_simulate(inputs: Inputs, stdout: str) -> list[str]:
    """Values in [0, 1], se >= 0, mean_power nondecreasing in alpha."""
    with open(inputs.directory / "sim_summary.csv", newline="") as handle:
        rows = list(csv.reader(handle))
    if not rows or rows[0] != ["method", "alpha", "mean_power", "se_power", "mean_fdp", "se_fdp"]:
        return ["simulate: bad summary header"]
    try:
        parsed = [(r[0], float(r[1]), *map(float, r[2:])) for r in rows[1:]]
    except (ValueError, IndexError):
        return ["simulate: unparsable summary row"]
    problems = []
    keys = [(r[0], r[1]) for r in parsed]
    if keys != [(m, a) for m in SIMULATE_METHODS for a in SIMULATE_ALPHAS]:
        problems.append("simulate: unexpected method/alpha rows")
    for row in parsed:
        if not all(0.0 <= v <= 1.0 for v in row[2:]):
            problems.append(f"simulate: {row[0]} at {row[1]} outside [0, 1]")
    for method in SIMULATE_METHODS:
        power = [r[2] for r in parsed if r[0] == method]
        if any(b < a for a, b in zip(power, power[1:])):
            problems.append(f"simulate: {method} mean_power decreases in alpha")
    try:
        paths = np.loadtxt(
            inputs.directory / "sim_paths.csv", delimiter=",", skiprows=1,
            usecols=(1, 2, 3), ndmin=2,
        )
    except ValueError:
        return problems + ["simulate: unparsable paths table"]
    if paths.shape[0] != len(SIMULATE_METHODS) * inputs.params["n"]:
        problems.append(f"simulate: paths table has {paths.shape[0]} rows")
    elif not (np.isfinite(paths).all() and np.all((paths[:, 2] >= 0) & (paths[:, 2] <= 1))):
        problems.append("simulate: paths table has values out of range")
    return problems


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="dosage-wide",
            why=(
                "t-CDF throughput of the permutation engine dominates; m_c = m_l "
                "exercises complement symmetry and 2-decimal values create exact ties"
            ),
            params={"genes": 2000, "groups": (6, 6, 6), "format": ".2f"},
            smoke_params={"genes": 40, "groups": (6, 6, 6), "format": ".2f"},
            make=_make_dosage,
            check=check_dosage,
        ),
        Workload(
            name="dosage-deep",
            why=(
                "memory per gene chunk dominates at C(16,9) relabelings; m_c != m_l "
                "and full-precision values bypass symmetry and tie handling"
            ),
            params={"genes": 128, "groups": (9, 7, 4), "format": ".17g"},
            smoke_params={"genes": 4, "groups": (9, 7, 4), "format": ".17g"},
            make=_make_dosage,
            check=check_dosage,
        ),
        Workload(
            name="test-long",
            why=(
                "row-by-row CSV read and per-cell writes dominate a long ordered "
                "p-value list; never touches dosage or simlab"
            ),
            params={"n": 250_000},
            smoke_params={"n": 2000},
            make=_make_test,
            check=check_test,
        ),
        Workload(
            name="simulate-many",
            why=(
                "per-call overhead in simlab/seqtest and the process pool dominate; "
                "bypasses CSV parsing and the permutation engine"
            ),
            params={"n": 1000, "trials": 1000, "workers": 2},
            smoke_params={"n": 200, "trials": 6, "workers": 2},
            make=_make_simulate,
            check=check_simulate,
        ),
    )
}
