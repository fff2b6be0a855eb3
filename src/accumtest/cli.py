"""Command-line front end.

Subcommands: ``test`` applies one accumulation method to a CSV of
ordered p-values, ``simulate`` runs the ranked Monte Carlo protocol,
``power`` evaluates the limiting threshold and power of a signal
curve, ``dosage`` runs the expression pipeline, and ``validate`` runs
the built-in self-check suite.

Only the core that ``import accumtest`` loads is imported with this
module.  A subcommand reaches the names of its engine (``dosage``,
``simlab``, ``power_theory`` or ``validation``) through the package's
name table, which imports the engine on first use, so ``test`` and
``--version`` load none of them, ``dosage``, ``simulate`` and ``power``
load one each, and ``validate`` loads all four.  Only ``validate``
loads scipy, which is the optional ``accumtest[theory]`` extra; without
it, ``validate`` fails with exit status 4 before any check runs.
``dosage`` and ``simulate`` take their normal and Student-t tails from
the package's own ``_tails``, and ``power`` works on knot curves alone.

P-value files are read by one ``np.loadtxt`` call when the header and
the first data row allow it, and otherwise row by row with the ``csv``
module, which also words every error message; both routes give the
same result.  Output tables are written in blocks, each formatted by
numpy as one character matrix (``_csvtext``, imported when a table or a
report line is written).

Every file-writing run also writes a JSON manifest next to its outputs
holding the exact argument vector, so ``accumtest --replay MANIFEST``
reproduces the run byte for byte.  Floats are serialized by ``json`` in
their shortest round-trip form (``0.1``, not ``0.10000000000000001``),
which gives back the underlying doubles exactly.

Exit status: 0 on success, 2 for usage errors, 3 for malformed or
out-of-range input data, 4 for numerical or precondition failures
(including a failing validate suite).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import sys
from typing import Optional, Sequence, TextIO

import numpy as np

from . import _HOME, __version__
from .accumfn import parse_spec
from .errors import AccumTestError, DomainError, ValidationError
from .seqtest import (
    OrderedPValues,
    Rule,
    default_methods,
    fdp,
    mfdp,
    power_of_cutoff,
    run_accumulation_test,
    shift_discrete_pvalues,
)

__all__ = ["main", "build_parser"]


def __getattr__(name: str):
    """An engine's public name, resolved through the package's table.

    Commands reach these names as ``_lazy.X``, attributes of this
    module, so that rebinding ``cli.X`` (as bench/tracer.py does to time
    a layer) also rebinds what they call.
    """
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(sys.modules[__package__], name)


_lazy = sys.modules[__name__]

_WRITE_BLOCK_ROWS = 1 << 14


def _fmt(value) -> str:
    """One cell's text: the writer's rule for a single value."""
    from ._csvtext import block_text

    return block_text([np.asarray(value).reshape(1)])[:-1]


def _write_csv(path: Optional[str], header: Sequence[str], columns) -> None:
    """Write a table given column by column to ``path``, or to stdout if no path.

    Rows are written in blocks of ``_WRITE_BLOCK_ROWS``, each formatted
    by :func:`accumtest._csvtext.block_text`, so the text held at once
    stays small however long the table is.  Floats are written as
    ``'%.17g'``, ints and bools as ``'%d'`` and strings as they are.
    Columns of unequal length or strings holding a NUL raise
    ValueError, and a dtype with no format TypeError, before anything
    is written.
    """
    from ._csvtext import block_text, check_column

    arrays = [np.asarray(column) for column in columns]
    for array in arrays:
        check_column(array)
    if len({len(array) for array in arrays}) > 1:
        raise ValueError("columns differ in length")
    n_rows = len(arrays[0]) if arrays else 0
    target = open(path, "w", newline="") if path else contextlib.nullcontext(sys.stdout)
    with target as handle:
        handle.write(",".join(header) + "\n")
        for start in range(0, n_rows, _WRITE_BLOCK_ROWS):
            stop = start + _WRITE_BLOCK_ROWS
            handle.write(block_text([array[start:stop] for array in arrays]))


def _write_manifest(
    path: str,
    subcommand: str,
    argv: Sequence[str],
    args: argparse.Namespace,
    inputs: Sequence[str],
    outputs: Sequence[str],
) -> None:
    parameters = {
        key: value
        for key, value in vars(args).items()
        if key != "func" and not callable(value)
    }
    payload = {
        "version": __version__,
        "subcommand": subcommand,
        "arguments": list(argv),
        "parameters": parameters,
        "inputs": list(inputs),
        "outputs": list(outputs),
    }
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _alpha_list(text: str) -> tuple[float, ...]:
    try:
        values = tuple(float(part) for part in text.split(",") if part.strip() != "")
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad alpha list: {text!r}") from None
    if not values:
        raise argparse.ArgumentTypeError("alpha list is empty")
    return values


def _read_pvalue_csv(path: str) -> OrderedPValues:
    """Load ordered p-values from a CSV with a ``p`` column.

    A column named ``is_null`` (values 0/1 or true/false) attaches
    ground-truth labels used for FDP and power reporting.  Cells are
    split as the ``csv`` module splits them; blank rows are skipped.

    The route is picked once, from the header and the first data row.
    Plain files are read by one ``np.loadtxt`` call
    (:func:`_loadtxt_pvalues`), the rest row by row
    (:func:`_read_pvalue_rows`).  A file the first route refuses is read
    again by the second, which alone words the errors.
    """
    with open(path, newline="", encoding="utf-8-sig") as handle:
        parsed = _loadtxt_pvalues(handle)
        if parsed is None:
            handle.seek(0)
            parsed = _read_pvalue_rows(path, handle)
    values, mask = parsed
    return OrderedPValues(values, null_mask=mask)


# Characters on which np.loadtxt and the csv route part ways: numpy
# drops trailing NULs from strings (``1\x00`` reads back as ``1``), and
# strips \x1c-\x1f around numbers as whitespace where float() refuses them.
_LOADTXT_UNSAFE = "\x00\x1c\x1d\x1e\x1f"


def _loadtxt_columns(handle: TextIO) -> Optional[tuple[int, Optional[int]]]:
    """Indices of the p and is_null columns if ``np.loadtxt`` may read the file.

    That needs an unquoted header naming ``p``, a first data row,
    unquoted, whose is_null cell (if the column exists) is ``0`` or
    ``1``, and no character of ``_LOADTXT_UNSAFE`` after the header.
    The handle is then left at the end of the header.
    """
    header = handle.readline()
    if '"' in header:
        return None
    names = [cell.strip().lower() for cell in header.rstrip("\r\n").split(",")]
    if "p" not in names:
        return None
    null_col = names.index("is_null") if "is_null" in names else None
    start = handle.tell()
    line = handle.readline()
    while line in ("\n", "\r\n", "\r"):
        line = handle.readline()
    if not line or '"' in line:
        return None
    if null_col is not None:
        cells = line.rstrip("\r\n").split(",")
        if null_col >= len(cells) or cells[null_col] not in ("0", "1"):
            return None
    handle.seek(start)
    while chunk := handle.read(1 << 20):
        if any(char in chunk for char in _LOADTXT_UNSAFE):
            return None
    handle.seek(start)
    return names.index("p"), null_col


def _loadtxt_pvalues(handle: TextIO) -> Optional[tuple[np.ndarray, Optional[np.ndarray]]]:
    """p-values and null labels read by one ``np.loadtxt`` call.

    Returns None when the file is not plain (see :func:`_loadtxt_columns`)
    or numpy refuses a cell, such as a label other than ``0`` or ``1``
    after the first row.  p cells follow the same float rules as in
    :func:`_read_pvalue_rows`, except that numpy refuses ``_`` digit
    separators and non-ASCII digits.
    """
    columns = _loadtxt_columns(handle)
    if columns is None:
        return None
    p_col, null_col = columns
    options = dict(delimiter=",", quotechar='"', comments=None, ndmin=1)
    try:
        if null_col is None:
            return np.loadtxt(handle, dtype=float, usecols=p_col, **options), None
        fields = [("p", float), ("is_null", "U2")]
        table = np.loadtxt(handle, dtype=fields, usecols=(p_col, null_col), **options)
    except ValueError:
        return None
    labels = table["is_null"]
    is_null = labels == "1"
    if not (is_null | (labels == "0")).all():
        return None
    return table["p"], is_null


def _read_pvalue_rows(path: str, handle: TextIO) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """p-values and null labels parsed row by row with the ``csv`` module."""
    reader = csv.reader(handle)
    try:
        header = [cell.strip().lower() for cell in next(reader)]
    except StopIteration:
        raise ValidationError(f"{path}: empty file") from None
    if "p" not in header:
        raise ValidationError(f"{path}: no column named p")
    p_col = header.index("p")
    null_col = header.index("is_null") if "is_null" in header else None
    values = []
    labels = []
    for row_number, row in enumerate(reader, start=2):
        if not row:
            continue
        try:
            values.append(float(row[p_col]))
        except (ValueError, IndexError):
            raise ValidationError(f"{path}: row {row_number}: bad p cell") from None
        if null_col is not None:
            try:
                cell = row[null_col].strip().lower()
            except IndexError:
                raise ValidationError(
                    f"{path}: row {row_number}: missing is_null cell"
                ) from None
            if cell in ("1", "true"):
                labels.append(True)
            elif cell in ("0", "false"):
                labels.append(False)
            else:
                raise ValidationError(
                    f"{path}: row {row_number}: bad is_null cell {cell!r}"
                )
    if not values:
        raise ValidationError(f"{path}: no p-value rows")
    return np.array(values), np.array(labels) if null_col is not None else None


def cmd_test(args: argparse.Namespace, argv: Sequence[str]) -> int:
    # Checked before any work: mfdp itself runs only when is_null is given.
    if not args.mfdp_c >= 0.0:
        raise DomainError(f"mfdp constant must be nonnegative, got {args.mfdp_c}")
    pvals = _read_pvalue_csv(args.input)
    spec = parse_spec(args.method)
    if args.shift_grid is not None:
        pvals = shift_discrete_pvalues(pvals, args.shift_grid)
    result = run_accumulation_test(pvals, spec, args.alpha, rule=args.rule, c=args.c)
    # Every reported value is computed before any is printed, so a failing
    # metric leaves stdout empty instead of half a report.
    report = [("k_hat", result.k_hat)]
    if pvals.null_mask is not None:
        mask = pvals.null_mask
        report += [
            ("fdp", fdp(result.k_hat, mask)),
            ("mfdp_c", args.mfdp_c),
            ("mfdp", mfdp(result.k_hat, mask, args.mfdp_c)),
            ("power", power_of_cutoff(result.k_hat, mask)),
        ]
    for name, value in report:
        print(f"{name} = {_fmt(value)}")
    if args.out:
        columns = (np.arange(1, len(pvals) + 1), pvals.values, result.fdp_hat_path)
        _write_csv(args.out, ("k", "p", "fdp_hat"), columns)
        manifest = args.out + ".manifest.json"
        _write_manifest(manifest, "test", argv, args, [args.input], [args.out])
    return 0


def cmd_simulate(args: argparse.Namespace, argv: Sequence[str]) -> int:
    # Options left unset take SimConfig's defaults, which the manifest records.
    fields = ("n", "n_nonnull", "mu1", "mu2", "alpha_grid", "trials")
    for name in fields:
        if getattr(args, name) is None:
            setattr(args, name, getattr(_lazy.SimConfig, name))
    config = _lazy.SimConfig(
        seed=args.seed, **{name: getattr(args, name) for name in fields}
    )
    methods = default_methods(args.c)
    include_paths = bool(args.out) and not args.no_paths
    agg = _lazy.run_simulation(config, methods, include_paths)
    header = ("method", "alpha", "mean_power", "se_power", "mean_fdp", "se_fdp")
    columns = _lazy.power_table_columns(agg)
    if not args.out:
        _write_csv(None, header, columns)
        return 0
    summary = f"{args.out}_summary.csv"
    outputs = [summary]
    _write_csv(summary, header, columns)
    if include_paths:
        paths = f"{args.out}_paths.csv"
        outputs.append(paths)
        _write_csv(
            paths,
            ("method", "k", "mean_fdp_hat", "mean_fdp_true"),
            _lazy.path_table_columns(agg),
        )
    _write_manifest(f"{args.out}.manifest.json", "simulate", argv, args, [], outputs)
    return 0


def cmd_power(args: argparse.Namespace, argv: Sequence[str]) -> int:
    curve = _lazy.parse_curve(args.curve)
    threshold = _lazy.asymptotic_threshold(curve, args.alpha, args.mu)
    power = _lazy.asymptotic_power(curve, args.alpha, args.mu)
    print(f"T = {_fmt(threshold)}")
    print(f"power = {_fmt(power)}")
    return 0


def cmd_dosage(args: argparse.Namespace, argv: Sequence[str]) -> int:
    if args.alpha_grid is None:
        args.alpha_grid = _lazy.DEFAULT_DOSAGE_ALPHAS
    matrix = _lazy.read_expression_csv(args.input)
    result = _lazy.run_pipeline(
        matrix,
        methods=default_methods(args.c),
        alpha_grid=args.alpha_grid,
        include_baselines=not args.no_baselines,
    )
    _write_csv(args.out, ("method", "alpha", "discoveries"), result.columns)
    if args.out:
        manifest = args.out + ".manifest.json"
        _write_manifest(manifest, "dosage", argv, args, [args.input], [args.out])
    return 0


def cmd_validate(args: argparse.Namespace, argv: Sequence[str]) -> int:
    results = _lazy.run_suite(write=print)
    return 0 if all(r.passed for r in results) else 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="accumtest",
        description="Accumulation tests for false discovery control on ordered p-values.",
        epilog="Use 'accumtest --replay MANIFEST.json' to rerun a recorded invocation.",
    )
    parser.add_argument("--version", action="version", version=f"accumtest {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_test = sub.add_parser("test", help="run one accumulation test on a p-value CSV")
    p_test.add_argument("input", help="CSV with column p (optional is_null)")
    p_test.add_argument(
        "--method",
        required=True,
        help="accumulation function, e.g. forwardstop, seqstep:C=2, hingeexp:C=2, "
        "piecewise:0,0.5,0.4;0.5,1,1.6",
    )
    p_test.add_argument("--alpha", type=float, required=True, help="target level in (0,1)")
    p_test.add_argument(
        "--rule",
        choices=[r.value for r in Rule],
        default=Rule.PLAIN.value,
        help="plain cutoff or the conservative plus variant",
    )
    p_test.add_argument("--c", type=float, default=None, help="constant for the plus rule")
    p_test.add_argument(
        "--mfdp-c",
        type=float,
        default=1.0,
        help="denominator constant for the modified FDP report",
    )
    p_test.add_argument(
        "--shift-grid",
        type=int,
        default=None,
        help="treat inputs as k/G grid values and shift them to k/(G+1)",
    )
    p_test.add_argument("--out", default=None, help="write the estimated FDP path CSV here")
    p_test.set_defaults(func=cmd_test)

    p_sim = sub.add_parser(
        "simulate", help="Monte Carlo power/FDP study on ranked hypotheses"
    )
    p_sim.add_argument("--seed", type=int, required=True, help="master seed (required)")
    p_sim.add_argument("--n", type=int, help="hypotheses per trial")
    p_sim.add_argument("--n-nonnull", type=int, help="non-nulls per trial")
    p_sim.add_argument("--mu1", type=float, help="ordering signal strength")
    p_sim.add_argument("--mu2", type=float, help="tested signal strength")
    p_sim.add_argument("--trials", type=int, help="number of trials")
    p_sim.add_argument(
        "--alpha-grid", type=_alpha_list, help="comma-separated target levels"
    )
    p_sim.add_argument("--c", type=float, default=2.0, help="C parameter for all methods")
    p_sim.add_argument(
        "--workers",
        type=int,
        default=None,
        help="accepted for compatibility and ignored; trials always run in one process",
    )
    p_sim.add_argument("--out", default=None, help="output prefix for summary/path CSVs")
    p_sim.add_argument(
        "--no-paths", action="store_true", help="skip the averaged path table"
    )
    p_sim.set_defaults(func=cmd_simulate)

    p_pow = sub.add_parser("power", help="limiting threshold and power of a signal curve")
    p_pow.add_argument(
        "--curve", required=True, help="piecewise-linear curve, e.g. f:0,0.5;1,0.3"
    )
    p_pow.add_argument("--alpha", type=float, required=True, help="target level in (0,1)")
    p_pow.add_argument(
        "--mu", type=float, required=True, help="mean accumulation value under the alternative"
    )
    p_pow.set_defaults(func=cmd_power)

    p_dos = sub.add_parser(
        "dosage", help="dose-response screening pipeline on a matrix CSV"
    )
    p_dos.add_argument("input", help="CSV: gene_id header plus C*/L*/H* sample columns")
    p_dos.add_argument(
        "--alpha-grid",
        type=_alpha_list,
        help="comma-separated target levels in [0,1)",
    )
    p_dos.add_argument("--c", type=float, default=2.0, help="C parameter for all methods")
    p_dos.add_argument(
        "--no-baselines", action="store_true", help="skip BH and Storey comparison rows"
    )
    p_dos.add_argument("--out", default=None, help="write the discovery table here")
    p_dos.set_defaults(func=cmd_dosage)

    p_val = sub.add_parser("validate", help="run the built-in self-check suite")
    p_val.set_defaults(func=cmd_validate)

    return parser


def _replay(argv: Sequence[str]) -> int:
    if len(argv) != 2:
        print("usage: accumtest --replay MANIFEST.json", file=sys.stderr)
        return 2
    try:
        with open(argv[1]) as handle:
            manifest = json.load(handle)
        stored = manifest["arguments"] if isinstance(manifest, dict) else None
    except (OSError, ValueError, KeyError, RecursionError) as exc:
        print(f"error: cannot replay {argv[1]}: {exc}", file=sys.stderr)
        return 3
    if not isinstance(stored, list) or any(not isinstance(s, str) for s in stored):
        print(f"error: manifest {argv[1]} has no argument vector", file=sys.stderr)
        return 3
    if stored and stored[0] == "--replay":
        print("error: manifest replays another replay", file=sys.stderr)
        return 3
    return main(stored)


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv and argv[0] == "--replay":
        return _replay(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return int(code) if isinstance(code, int) else 2
    try:
        return args.func(args, argv)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except AccumTestError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
