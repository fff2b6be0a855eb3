"""Seeded robustness sweep: every command finishes or fails cleanly.

Generated expression matrices, p-value CSVs, ``simulate`` options and
``power`` curves go through ``cli.main`` in process.  Every case must exit with 0, 2, 3 or
4, leave no traceback on stderr, write exactly one ``error:`` line there
when it fails and none when it succeeds, raise no RuntimeWarning, and
finish within ``TIME_LIMIT_S``.  Successful runs must meet the
invariants of their output: p-values in [0, 1], permutation p-values on
{1/P, ..., 1}, and at most n discoveries.

The public functions called outside the CLI get the edge values of
``NUMBERS`` in each numeric parameter, one at a time, and bad strings in
their sign and rule parameters.  Each call must return a value that
meets its invariants or raise an ``AccumTestError``, raise no
RuntimeWarning, and finish within ``TIME_LIMIT_S``.
"""

import contextlib
import io
import math
import time
import warnings

import numpy as np
import pytest

from accumtest import (
    AccumTestError,
    SimConfig,
    bh_select,
    cli,
    dosage,
    forward_stop,
    hinge_exp,
    permutation_pvalue,
    run_accumulation_test,
    run_simulation,
    select_cutoff,
    seq_step,
    shift_discrete_pvalues,
    storey_select,
    welch_p_one_sided,
    welch_p_two_sided,
)

TIME_LIMIT_S = 10.0
CASES = 60

# Cells that probe the edges of float parsing and arithmetic.
SPECIAL = (
    "nan", "inf", "-inf", "0", "-0", "5e-324", "2.5e-310", "1e-300",
    "1.7976931348623157e308", "-1.7976931348623157e308", "1e308",
)


def run_main(argv):
    """(exit code, stdout, stderr) of ``cli.main(argv)``, with the contract
    that holds for every command checked."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    elapsed = time.perf_counter() - start
    stderr = err.getvalue()
    assert code in (0, 2, 3, 4), (argv, code, stderr)
    assert "Traceback" not in stderr, (argv, stderr)
    errors = [line for line in stderr.splitlines() if "error:" in line]
    assert len(errors) == (0 if code == 0 else 1), (argv, stderr)
    runtime = [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]
    assert runtime == [], (argv, runtime)
    assert elapsed < TIME_LIMIT_S, (argv, elapsed)
    return code, out.getvalue(), stderr


def number_rows(rng, rows):
    """``rows`` of floats as CSV cells, with one of them, in about four
    files out of ten, replaced by a ``SPECIAL`` cell."""
    cells = [[repr(float(v)) for v in row] for row in rows]
    if len(cells) and rng.random() < 0.4:
        i = rng.integers(len(cells))
        cells[i][rng.integers(len(cells[i]))] = str(rng.choice(SPECIAL))
    return cells


def csv_text(rng, rows):
    """Rows of cells joined as a spreadsheet might write them: quoted or
    not, LF or CRLF lines, with or without a byte-order mark."""
    quote = rng.random() < 0.3
    newline = "\r\n" if rng.random() < 0.3 else "\n"
    lines = [
        ",".join(f'"{c}"' if quote and rng.random() < 0.5 else c for c in row)
        for row in rows
    ]
    text = newline.join(lines) + (newline if rng.random() < 0.8 else "")
    return ("\ufeff" if rng.random() < 0.2 else "") + text


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_bytes(text.encode("utf-8"))
    return str(path)


# --- dosage ----------------------------------------------------------------

# (m_c, m_l, m_h): equal and unequal arms, one-column groups, and a single
# high-dose column, which the ordering refuses.
DESIGNS = ((2, 2, 2), (3, 3, 2), (4, 3, 2), (1, 3, 2), (3, 1, 2), (1, 1, 2), (2, 2, 1))


def dosage_rows(rng, m_c, m_l, m_h):
    header = (
        ["gene_id"]
        + [f"C{j}" for j in range(m_c)]
        + [f"L{j}" for j in range(m_l)]
        + [f"H{j}" for j in range(m_h)]
    )
    genes = int(rng.choice([0, 1, 1, 2, 4, 7]))
    scale = float(rng.choice([1.0, 1e-200, 1e200]))
    values = rng.normal(size=(genes, len(header) - 1)) * scale
    if rng.random() < 0.5:
        values = values.round(2)
    cells = number_rows(rng, values)
    return [header] + [[f"g{i}"] + row for i, row in enumerate(cells)], genes


def check_dosage_run(path, argv, code, out, genes, m_c, m_l):
    if code != 0:
        return
    lines = out.strip().splitlines()
    assert lines[0] == "method,alpha,discoveries"
    assert all(0 <= int(line.rsplit(",", 1)[1]) <= genes for line in lines[1:])
    matrix = dosage.read_expression_csv(path)
    result = dosage.run_pipeline(
        matrix, alpha_grid=(0.1, 0.3), include_baselines="--no-baselines" not in argv
    )
    count = math.comb(m_c + m_l, m_c)
    assert result.rank.dtype == np.intp
    for p_high, p_init, k in zip(result.p_high, result.p_init, result.rank):
        assert 0.0 <= p_high <= 1.0 and 0.0 <= p_init <= 1.0
        assert 1 <= k <= count, (p_high, p_init, k, count)
    assert result.p_final.tobytes() == (result.rank / count).tobytes()


@pytest.mark.parametrize("seed", range(CASES))
def test_dosage_fails_cleanly(seed, tmp_path):
    rng = np.random.default_rng([1, seed])
    m_c, m_l, m_h = DESIGNS[seed % len(DESIGNS)]
    rows, genes = dosage_rows(rng, m_c, m_l, m_h)
    path = write(tmp_path, "matrix.csv", csv_text(rng, rows))
    argv = ["dosage", path, "--alpha-grid", "0.1,0.3"]
    if rng.random() < 0.5:
        argv.append("--no-baselines")
    code, out, _ = run_main(argv)
    check_dosage_run(path, argv, code, out, genes, m_c, m_l)


@pytest.mark.parametrize(
    "text",
    [
        "",
        "\ufeff",
        "gene_id,C1,C2,L1,L2,H1,H2\n",
        "gene_id,C1,C2,L1,L2,H1,H2\r\ng1,1,2,3,4,5,6\r\n",
        '"gene_id","C1","C2","L1","L2","H1","H2"\n"g1","1","2","3","4","5","6"\n',
        "\ufeffgene_id,C1,C2,L1,L2,H1,H2\ng1,1e308,-1e308,3,4,5,6\n",
        "gene_id,C1,C2,L1,L2,H1,H2\ng1,0,0,0,0,0,0\n",
        "gene_id,C1,C2,L1,L2,H1,H2\ng1,5e-324,0,0,5e-324,0,0\n",
        "gene_id,C1,C2,L1,L2,H1,H2\ng1,1,2,3\n",
        "gene_id\n",
    ],
)
def test_dosage_edge_files(text, tmp_path):
    path = write(tmp_path, "matrix.csv", text)
    argv = ["dosage", path, "--alpha-grid", "0.1,0.3"]
    code, out, _ = run_main(argv)
    check_dosage_run(path, argv, code, out, 1, 2, 2)


def test_dosage_tail_past_the_table(tmp_path):
    # m_c = m_l = 2 puts the df bound at 1; a spread of 1e-25 against a
    # constant arm puts the true tail near 1.6e-26, below stdtr(1, -2^64).
    text = (
        "gene_id,C1,C2,L1,L2,H1,H2\n"
        "g1,0,1e-25,1,1,3,4\n"
        "g2,1,1,0,3e-25,0,9\n"
        "g3,0.5,0.7,0.2,0.9,0.1,0.3\n"
    )
    path = write(tmp_path, "matrix.csv", text)
    argv = ["dosage", path, "--alpha-grid", "0.1,0.3"]
    code, out, _ = run_main(argv)
    assert code == 0
    check_dosage_run(path, argv, code, out, 3, 2, 2)


# --- test ------------------------------------------------------------------

METHODS = ("forwardstop", "seqstep:C=2", "hingeexp:C=2", "piecewise:0,0.5,0.4;0.5,1,1.6")


@pytest.mark.parametrize("seed", range(CASES))
def test_pvalue_test_fails_cleanly(seed, tmp_path):
    rng = np.random.default_rng([2, seed])
    n = int(rng.choice([0, 1, 2, 3, 8, 20]))
    labelled = rng.random() < 0.5
    header = ["p", "is_null"] if labelled else ["p"]
    rows = [header] + number_rows(rng, rng.random((n, 1)))
    if labelled:
        labels = ["0", "1", "true", "False", "1.0"]
        for row in rows[1:]:
            row.append(str(rng.choice(labels, p=[0.35, 0.35, 0.125, 0.125, 0.05])))
    path = write(tmp_path, "p.csv", csv_text(rng, rows))
    argv = ["test", path, "--method", str(rng.choice(METHODS))]
    argv += ["--alpha", str(rng.choice(["0.2", "0.5", "0.2", "0", "1", "nan", "5e-324"]))]
    if rng.random() < 0.3:
        argv += ["--rule", "plus", "--c", str(rng.choice(["2", "0", "inf", "nan"]))]
    if rng.random() < 0.2:
        argv += [f"--mfdp-c={rng.choice(['1', '-1', 'nan', 'inf'])}"]
    code, out, _ = run_main(argv)
    if code == 0:
        report = dict(line.split(" = ") for line in out.strip().splitlines())
        assert 0 <= int(report["k_hat"]) <= n
        for name in ("fdp", "power"):
            if name in report:
                assert 0.0 <= float(report[name]) <= 1.0


# --- simulate --------------------------------------------------------------


@pytest.mark.parametrize("seed", range(CASES))
def test_simulate_fails_cleanly(seed):
    rng = np.random.default_rng([3, seed])
    n = int(rng.choice([1, 2, 5, 30, 30]))
    nonnull = int(rng.choice([1, 1, n // 3, n - 1, 0, n]))
    argv = ["simulate", "--seed", str(seed), "--n", str(n), "--n-nonnull", str(nonnull)]
    argv += ["--trials", str(rng.choice([1, 2, 2, 0]))]
    values = {
        "--mu1": SPECIAL + ("2", "0.3"),
        "--mu2": SPECIAL + ("2", "0.3"),
        "--c": ("2", "1.5", "1", "nan", "inf", "1e308", "5e-324"),
        "--alpha-grid": ("0.1", "0.05,0.2", "5e-324", "0.9999999999999999", "nan", "0"),
    }
    for option, choices in values.items():
        if rng.random() < 0.4:
            argv.append(f"{option}={rng.choice(choices)}")
    argv.append("--no-paths")
    code, out, _ = run_main(argv)
    if code == 0:
        lines = out.strip().splitlines()
        assert lines[0] == "method,alpha,mean_power,se_power,mean_fdp,se_fdp"
        for line in lines[1:]:
            _, _, power, _, fdp, _ = line.split(",")
            assert 0.0 <= float(power) <= 1.0 and 0.0 <= float(fdp) <= 1.0


# --- power -----------------------------------------------------------------


@pytest.mark.parametrize("seed", range(CASES))
def test_power_fails_cleanly(seed):
    rng = np.random.default_rng([4, seed])
    # f(0) = a falling linearly to f(1) = b in [a/2, a] passes the shape
    # checks: f does not rise and t f(t) does not fall.
    a = rng.uniform(0.2, 1.0)
    b = a * rng.uniform(0.5, 1.0)
    knots = [["0", repr(a)], ["0.5", repr((a + b) / 2)], ["1", repr(b)]]
    if rng.random() < 0.25:
        knots[rng.integers(len(knots))][rng.integers(2)] = str(rng.choice(SPECIAL))
    curve = "f:" + ";".join(",".join(knot) for knot in knots)
    levels = ["0.9", "0.8", "0.6", "0.5", "0.3", "0.1", "5e-324", "nan", "0"]
    alpha, mu = rng.choice(levels, size=2)
    code, out, _ = run_main(["power", "--curve", curve, f"--alpha={alpha}", f"--mu={mu}"])
    if code == 0:
        report = dict(line.split(" = ") for line in out.strip().splitlines())
        assert 0.0 <= float(report["T"]) <= 1.0
        assert 0.0 <= float(report["power"]) <= 1.0


# --- public functions ------------------------------------------------------

NUMBERS = (math.nan, math.inf, -math.inf, 0.0, -1.0, 2.5, 1e308, 5e-324)
SIGNS = ("plus", "MINUS", "up", "", "plus ", "none")


def call_cleanly(function, *args):
    """``function(*args)``, or None when it raises an ``AccumTestError``;
    any other exception fails the case."""
    start = time.perf_counter()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = function(*args)
        except AccumTestError:
            result = None
    elapsed = time.perf_counter() - start
    runtime = [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]
    assert runtime == [], (function.__name__, args, runtime)
    assert elapsed < TIME_LIMIT_S, (function.__name__, args, elapsed)
    return result


def edge_calls(rng, args, numeric, strings=()):
    """Copies of ``args`` with one numeric argument, or one element of an
    array argument, set to each of ``NUMBERS``, and with each string
    argument set to each of ``SIGNS``."""
    for i in numeric:
        for value in NUMBERS:
            changed = list(args)
            if isinstance(args[i], np.ndarray):
                changed[i] = args[i].copy()
                changed[i][rng.integers(args[i].size)] = value
            else:
                changed[i] = value
            yield changed
    for i in strings:
        for value in SIGNS:
            changed = list(args)
            changed[i] = value
            yield changed


def check_unit(p):
    assert 0.0 <= p <= 1.0, p


@pytest.mark.parametrize("seed", range(4))
def test_permutation_pvalue_fails_cleanly(seed):
    rng = np.random.default_rng([5, seed])
    m_c, m_l = int(rng.integers(1, 4)), int(rng.integers(1, 4))
    pool = rng.normal(size=m_c + m_l).round(int(rng.integers(0, 3)))
    for args in edge_calls(rng, [pool, m_c, m_l, "plus"], numeric=(0, 1, 2), strings=(3,)):
        p = call_cleanly(permutation_pvalue, *args)
        if p is not None:
            count = math.comb(int(args[1]) + int(args[2]), int(args[1]))
            assert p * count == round(p * count) and 1 <= p * count <= count, (args, p)


@pytest.mark.parametrize("seed", range(4))
def test_welch_fails_cleanly(seed):
    rng = np.random.default_rng([6, seed])
    a, b = rng.normal(size=int(rng.integers(2, 5))), rng.normal(size=int(rng.integers(2, 5)))
    for args in edge_calls(rng, [a, b, "plus"], numeric=(0, 1), strings=(2,)):
        p = call_cleanly(welch_p_one_sided, *args)
        if p is not None:
            check_unit(p)
        p = call_cleanly(welch_p_two_sided, *args[:2])
        if p is not None:
            check_unit(p)


@pytest.mark.parametrize("seed", range(2))
def test_simulation_fails_cleanly(seed):
    rng = np.random.default_rng([7, seed])
    fields = ("n", "n_nonnull", "mu1", "mu2", "alpha_grid", "trials", "seed")
    base = [12, 3, 2.0, 1.5, np.array([0.1, 0.3]), 2, int(rng.integers(2**31))]

    def simulate(*args):
        config = SimConfig(**dict(zip(fields, args)))
        return config, run_simulation(config, include_paths=False)

    for args in edge_calls(rng, base, numeric=range(len(base))):
        result = call_cleanly(simulate, *args)
        if result is not None:
            config, summary = result
            assert summary.trials == config.trials == args[5]
            for table in (summary.mean_power, summary.mean_fdp):
                assert ((0.0 <= table) & (table <= 1.0)).all(), (args, table)


@pytest.mark.parametrize("seed", range(4))
def test_step_up_baselines_fail_cleanly(seed):
    rng = np.random.default_rng([8, seed])
    p = rng.random(int(rng.integers(1, 12)))
    for select, base in ((bh_select, [p, 0.2]), (storey_select, [p, 0.2, 0.5])):
        for args in edge_calls(rng, base, numeric=range(len(base))):
            chosen = call_cleanly(select, *args)
            if chosen is not None:
                assert 0 <= chosen.count <= p.size == args[0].size
                assert len(set(chosen.indices)) == len(chosen.indices) == chosen.count
                assert all(0 <= i < p.size for i in chosen.indices)


@pytest.mark.parametrize("seed", range(4))
def test_select_cutoff_fails_cleanly(seed):
    rng = np.random.default_rng([9, seed])
    path = rng.exponential(0.3, size=int(rng.integers(1, 12)))
    for args in edge_calls(rng, [path, 0.2], numeric=(0, 1)):
        k = call_cleanly(select_cutoff, *args)
        if k is not None:
            assert isinstance(k, int) and 0 <= k <= path.size


@pytest.mark.parametrize("seed", range(4))
def test_shift_discrete_pvalues_fails_cleanly(seed):
    rng = np.random.default_rng([10, seed])
    grid = int(rng.integers(1, 30))
    p = rng.integers(1, grid + 1, size=int(rng.integers(1, 12))) / grid
    for args in edge_calls(rng, [p, grid], numeric=(0, 1)):
        shifted = call_cleanly(shift_discrete_pvalues, *args)
        if shifted is not None:
            values = shifted.values
            assert values.size == p.size and ((0.0 < values) & (values < 1.0)).all()


@pytest.mark.parametrize("seed", range(4))
def test_accumulation_test_fails_cleanly(seed):
    rng = np.random.default_rng([11, seed])
    p = rng.random(int(rng.integers(1, 12))) ** 2
    spec = (forward_stop(), hinge_exp(2.0), seq_step(2.0))[seed % 3]
    base = [p, spec, 0.2, "plus", 2.0]
    for args in edge_calls(rng, base, numeric=(0, 2, 4), strings=(3,)):
        result = call_cleanly(run_accumulation_test, *args)
        if result is not None:
            assert 0 <= result.k_hat <= p.size == result.fdp_hat_path.size
