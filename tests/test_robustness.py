"""Seeded robustness sweep: every command finishes or fails cleanly.

Generated expression matrices, p-value CSVs, ``simulate`` options and
``power`` curves go through ``cli.main`` in process.  Every case must exit with 0, 2, 3 or
4, leave no traceback on stderr, write exactly one ``error:`` line there
when it fails and none when it succeeds, raise no RuntimeWarning, and
finish within ``TIME_LIMIT_S``.  Successful runs must meet the
invariants of their output: p-values in [0, 1], permutation p-values on
{1/P, ..., 1}, and at most n discoveries.  The fuzzers hold every case
to the same contract: byte mutations of a small p-value file and of a
small expression matrix, and argument vectors of ``test``, ``simulate``
and ``power`` with bad numbers, methods and curves.  A failing case
also writes no file.

The public functions called outside the CLI get the edge values of
``NUMBERS`` in each numeric parameter, one at a time, and bad strings in
their sign and rule parameters.  Each call must return a value that
meets its invariants or raise an ``AccumTestError``, raise no
RuntimeWarning, and finish within ``TIME_LIMIT_S``.  Every count, seed
and index they take is refused with a ``DomainError`` naming it unless it
is a whole number, and never truncated.
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
    AlternativeDensity,
    DomainError,
    SignalCurve,
    SimConfig,
    bh_select,
    child_rng,
    child_seed,
    cli,
    dosage,
    envelope_exit_fraction,
    fdp,
    forward_stop,
    generate_from_curve,
    hinge_exp,
    mfdp,
    permutation_pvalue,
    power_of_cutoff,
    run_accumulation_test,
    run_simulation,
    select_cutoff,
    seq_step,
    shift_discrete_pvalues,
    simulate_count_ratio,
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


# --- byte and argument fuzzers ----------------------------------------------

FUZZ_CASES = 120

PVALUE_FILE = b"p,is_null\n0.01,0\n0.02,0\n0.3,1\n0.04,0\n0.9,1\n"
MATRIX_FILE = (
    b"gene_id,C0,C1,L0,L1,H0,H1\n"
    b"g0,1.5,1.25,2.5,2.75,4.5,4.25\n"
    b"g1,0.5,0.75,0.5,0.25,0.5,0.75\n"
    b"g2,2,2.5,1.5,1,0.5,0.25\n"
)
# Bytes that reading tends to trip on: latin-1, a byte-order mark, NUL,
# a bare carriage return, a quote and cells past the edges of float().
TOKENS = (b"\xe9", b"\xef\xbb\xbf", b"\x00", b"\r", b'"', b"nan", b"1e999")


def mutated(rng, data: bytes) -> bytes:
    """``data`` with one to three deletions, single bytes or ``TOKENS`` put in."""
    data = bytearray(data)
    for _ in range(int(rng.integers(1, 4))):
        at = int(rng.integers(len(data) + 1))
        kind = rng.integers(3)
        if kind == 0:
            del data[at : at + int(rng.integers(1, 4))]
        elif kind == 1:
            data[at:at] = bytes([int(rng.integers(256))])
        else:
            data[at:at] = TOKENS[rng.integers(len(TOKENS))]
    return bytes(data)


def run_in(directory, argv):
    """``run_main(argv)``, which must write no file into ``directory``
    when it fails."""
    before = set(directory.iterdir())
    code, out, err = run_main(argv)
    if code != 0:
        assert set(directory.iterdir()) == before, (argv, err)
    return code, out, err


@pytest.mark.parametrize(
    "seed, command, data",
    [
        (0, ["test", "input.csv", "--method", "forwardstop", "--alpha", "0.2"], PVALUE_FILE),
        (1, ["dosage", "input.csv", "--alpha-grid", "0.1,0.3"], MATRIX_FILE),
    ],
    ids=["test", "dosage"],
)
def test_mutated_input_bytes_fail_cleanly(seed, command, data, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rng = np.random.default_rng([5, seed])
    codes = set()
    for case in range(FUZZ_CASES):
        (tmp_path / "input.csv").write_bytes(mutated(rng, data))
        codes.add(run_in(tmp_path, command + ["--out", f"out{case}.csv"])[0])
    # The mutations reach both a clean run and a refused file.
    assert {0, 3} <= codes


FUZZ_VALUES = ("nan", "inf", "-inf", "", "1e999", "9" * 30, "-1", "0", "0x1", "1,,2", "abc")
BAD_METHODS = (
    "", "nosuch", "seqstep:C=", "seqstep:C=nan", "hingeexp:C=1e999", "forwardstop:C=2",
    "piecewise:0,0.5", "piecewise:0,1,nan", "piecewise:;", "seqstep:C=2:3",
)
BAD_CURVES = (
    "", "f:", "f:0,0.5", "f:0,nan;1,0.3", "g:0,1;1,1", "f:0,0.5;1",
    "f:0,0.5;;1,0.3", "f:0,1e999;1,0.3", "f:1,0.5;0,0.3", "f:0,0.5;1,0.3;1,0.2",
)


def fuzzed_argv(rng, command: str) -> list[str]:
    """A tiny ``command`` run with some options set to ``FUZZ_VALUES`` or
    to a bad method or curve; every size stays tiny or is out of range."""

    def pick(values):
        return str(values[rng.integers(len(values))])

    def fuzzed(good):
        return pick(FUZZ_VALUES) if rng.random() < 0.15 else good

    if command == "test":
        argv = ["test", "input.csv", "--method", pick(METHODS + BAD_METHODS)]
        argv += [f"--alpha={fuzzed('0.2')}", f"--c={fuzzed('2')}", f"--mfdp-c={fuzzed('1')}"]
        argv += ["--rule", pick(("plain", "plus", "plain", "plus", "PLUS"))]
        if rng.random() < 0.3:
            argv.append(f"--shift-grid={fuzzed('10')}")
    elif command == "simulate":
        argv = ["simulate", f"--seed={fuzzed('1')}", f"--n={fuzzed('6')}"]
        argv += [f"--n-nonnull={fuzzed('2')}", f"--trials={fuzzed('2')}"]
        argv += [f"--mu1={fuzzed('2')}", f"--mu2={fuzzed('2')}", f"--c={fuzzed('2')}"]
        argv += [f"--alpha-grid={fuzzed('0.1,0.2')}", f"--workers={fuzzed('1')}"]
    else:
        argv = ["power", "--curve", pick(("f:0,0.5;1,0.3",) + BAD_CURVES)]
        argv += [f"--alpha={fuzzed('0.2')}", f"--mu={fuzzed('0.5')}"]
    return argv


@pytest.mark.parametrize("seed, command", enumerate(["test", "simulate", "power"]))
def test_fuzzed_arguments_fail_cleanly(seed, command, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "input.csv").write_bytes(PVALUE_FILE)
    rng = np.random.default_rng([6, seed])
    codes = set()
    for case in range(FUZZ_CASES):
        out = [] if command == "power" else ["--out", f"out{case}"]
        codes.add(run_in(tmp_path, fuzzed_argv(rng, command) + out)[0])
    # The cases reach a clean run, a usage error and a refused value.
    assert {0, 2, 4} <= codes, codes


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


# --- counts ----------------------------------------------------------------

MASK = np.array([True, False, False, True])
CURVE = SignalCurve(((0.0, 0.5), (1.0, 0.3)))
DENSITY = AlternativeDensity.beta(1.0, 2.0)

# Each count, seed and index of a public function: its name in the error
# message, and a call that passes it a value in place of 3.
COUNTS = {
    "fdp k": ("k", lambda v: fdp(v, MASK)),
    "mfdp k": ("k", lambda v: mfdp(v, MASK, 1.0)),
    "power_of_cutoff k": ("k", lambda v: power_of_cutoff(v, MASK)),
    "child_seed seed": ("seed", lambda v: child_seed(v, 2)),
    "child_seed index": ("index", lambda v: child_seed(5, v)),
    "child_rng seed": ("seed", lambda v: child_rng(v, 2).random(2)),
    "child_rng index": ("index", lambda v: child_rng(5, v).random(2)),
    "generate_from_curve n": ("n", lambda v: generate_from_curve(CURVE, v, DENSITY, 1).values),
    "generate_from_curve seed": (
        "seed", lambda v: generate_from_curve(CURVE, 5, DENSITY, v).values
    ),
    "simulate_count_ratio n": ("n", lambda v: simulate_count_ratio(v, 0.5, 2, 1)),
    "simulate_count_ratio trials": ("trials", lambda v: simulate_count_ratio(4, 0.5, v, 1)),
    "simulate_count_ratio seed": ("seed", lambda v: simulate_count_ratio(4, 0.5, 2, v)),
    "simulate_count_ratio n_nonnull": (
        "n_nonnull", lambda v: simulate_count_ratio(4, 0.5, 2, 1, n_nonnull=v)
    ),
    "envelope_exit_fraction t_max": (
        "t_max", lambda v: envelope_exit_fraction(1.0, 0.0, 0.5, v, 20, 1)
    ),
    "envelope_exit_fraction n_walks": (
        "n_walks", lambda v: envelope_exit_fraction(1.0, 0.0, 0.5, 5, v, 1)
    ),
    "envelope_exit_fraction seed": (
        "seed", lambda v: envelope_exit_fraction(1.0, 0.0, 0.5, 5, 20, v)
    ),
}


@pytest.mark.parametrize("case", COUNTS)
def test_count_that_is_not_whole_is_refused(case):
    name, call = COUNTS[case]
    for value in (1.5, 2.5, -0.5, math.nan, math.inf, "3", "x", None):
        with pytest.raises(DomainError, match=f"^{name} must be a whole number"):
            call(value)


@pytest.mark.parametrize("case", COUNTS)
def test_whole_count_of_any_type_is_accepted(case):
    _, call = COUNTS[case]
    want = call(3)
    for value in (3.0, np.int64(3), np.uint8(3), np.float64(3.0)):
        assert np.array_equal(call(value), want)


@pytest.mark.parametrize("case", [case for case in COUNTS if case.endswith(" seed")])
def test_seed_wider_than_64_bits_is_accepted(case):
    call = COUNTS[case][1]
    # Every seed, the envelope's one stream included, is read modulo 2^64.
    assert np.array_equal(call(-1), call(2**64 - 1))
    assert np.array_equal(call(2**64 + 3), call(3))
