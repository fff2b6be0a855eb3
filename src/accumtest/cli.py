"""Command-line front end.

Subcommands: ``test`` applies one accumulation method to a CSV of
ordered p-values, ``simulate`` runs the ranked Monte Carlo protocol,
``power`` evaluates the limiting threshold and power of a signal
curve, ``dosage`` runs the expression pipeline, and ``validate`` runs
the built-in self-check suite.

Every file-writing run also writes a JSON manifest next to its outputs
holding the exact argument vector, so ``accumtest --replay MANIFEST``
reproduces the run byte for byte.  Floats are serialized with 17
significant digits, which round-trips the underlying doubles exactly.

Exit status: 0 on success, 2 for usage errors, 3 for malformed or
out-of-range input data, 4 for numerical or precondition failures
(including a failing validate suite).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .dosage import read_expression_csv, run_pipeline
from .errors import AccumTestError, ContractError, DomainError, ValidationError
from .accumfn import parse_spec
from .power_theory import asymptotic_power, asymptotic_threshold, parse_curve
from .seqtest import (
    OrderedPValues,
    Rule,
    fdp,
    mfdp,
    power_of_cutoff,
    run_accumulation_test,
    shift_discrete_pvalues,
)
from .simlab import (
    SimConfig,
    WORKERS_ENV_VAR,
    default_methods,
    path_table_rows,
    power_table_rows,
    run_simulation,
)
from .validation import run_suite

__all__ = ["main", "build_parser"]


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def _write_csv(path: str, header: Sequence[str], rows) -> None:
    with open(path, "w", newline="") as handle:
        handle.write(",".join(header) + "\n")
        for row in rows:
            handle.write(",".join(_fmt(cell) if not isinstance(cell, str) else cell for cell in row) + "\n")


def _print_csv(header: Sequence[str], rows) -> None:
    print(",".join(header))
    for row in rows:
        print(",".join(_fmt(cell) if not isinstance(cell, str) else cell for cell in row))


def _jsonable(value):
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    return value


def _write_manifest(
    path: str,
    subcommand: str,
    argv: Sequence[str],
    args: argparse.Namespace,
    inputs: Sequence[str],
    outputs: Sequence[str],
) -> None:
    parameters = {
        key: _jsonable(value)
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
    ground-truth labels used for FDP and power reporting.
    """
    with open(path, newline="") as handle:
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
                raise ValidationError(
                    f"{path}: row {row_number}: bad p cell"
                ) from None
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
    mask = np.array(labels) if null_col is not None else None
    return OrderedPValues(np.array(values), null_mask=mask)


def cmd_test(args: argparse.Namespace, argv: Sequence[str]) -> int:
    pvals = _read_pvalue_csv(args.input)
    spec = parse_spec(args.method)
    if args.shift_grid is not None:
        pvals = shift_discrete_pvalues(pvals, args.shift_grid)
    rule = Rule(args.rule)
    result = run_accumulation_test(pvals, spec, args.alpha, rule=rule, c=args.c)
    print(f"k_hat = {result.k_hat}")
    if pvals.null_mask is not None:
        mask = pvals.null_mask
        print(f"fdp = {_fmt(fdp(result.k_hat, mask))}")
        print(f"mfdp_c = {_fmt(args.mfdp_c)}")
        print(f"mfdp = {_fmt(mfdp(result.k_hat, mask, args.mfdp_c))}")
        print(f"power = {_fmt(power_of_cutoff(result.k_hat, mask))}")
    if args.out:
        rows = [
            (k + 1, pvals.values[k], result.fdp_hat_path[k])
            for k in range(len(pvals))
        ]
        _write_csv(args.out, ("k", "p", "fdp_hat"), rows)
        manifest = args.out + ".manifest.json"
        _write_manifest(manifest, "test", argv, args, [args.input], [args.out])
    return 0


def cmd_simulate(args: argparse.Namespace, argv: Sequence[str]) -> int:
    config = SimConfig(
        n=args.n,
        n_nonnull=args.n_nonnull,
        mu1=args.mu1,
        mu2=args.mu2,
        alpha_grid=args.alpha_grid,
        trials=args.trials,
        seed=args.seed,
    )
    methods = default_methods(args.c)
    include_paths = bool(args.out) and not args.no_paths
    agg = run_simulation(config, methods, include_paths, args.workers)
    header = ("method", "alpha", "mean_power", "se_power", "mean_fdp", "se_fdp")
    rows = power_table_rows(agg)
    if not args.out:
        _print_csv(header, rows)
        return 0
    summary = f"{args.out}_summary.csv"
    outputs = [summary]
    _write_csv(summary, header, rows)
    if include_paths:
        paths = f"{args.out}_paths.csv"
        outputs.append(paths)
        _write_csv(
            paths,
            ("method", "k", "mean_fdp_hat", "mean_fdp_true"),
            path_table_rows(agg),
        )
    _write_manifest(f"{args.out}.manifest.json", "simulate", argv, args, [], outputs)
    return 0


def cmd_power(args: argparse.Namespace, argv: Sequence[str]) -> int:
    curve = parse_curve(args.curve)
    threshold = asymptotic_threshold(curve, args.alpha, args.mu)
    power = asymptotic_power(curve, args.alpha, args.mu)
    print(f"T = {_fmt(threshold)}")
    print(f"power = {_fmt(power)}")
    return 0


def cmd_dosage(args: argparse.Namespace, argv: Sequence[str]) -> int:
    matrix = read_expression_csv(args.input)
    result = run_pipeline(
        matrix,
        methods=default_methods(args.c),
        alpha_grid=args.alpha_grid,
        include_baselines=not args.no_baselines,
    )
    header = ("method", "alpha", "discoveries")
    if args.out:
        _write_csv(args.out, header, result.rows)
        manifest = args.out + ".manifest.json"
        _write_manifest(manifest, "dosage", argv, args, [args.input], [args.out])
    else:
        _print_csv(header, result.rows)
    return 0


def cmd_validate(args: argparse.Namespace, argv: Sequence[str]) -> int:
    results = run_suite(write=print)
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

    p_sim = sub.add_parser("simulate", help="Monte Carlo power/FDP study on ranked hypotheses")
    p_sim.add_argument("--seed", type=int, required=True, help="master seed (required)")
    p_sim.add_argument("--n", type=int, default=1000, help="hypotheses per trial")
    p_sim.add_argument("--n-nonnull", type=int, default=100, help="non-nulls per trial")
    p_sim.add_argument("--mu1", type=float, default=3.0, help="ordering signal strength")
    p_sim.add_argument("--mu2", type=float, default=3.0, help="tested signal strength")
    p_sim.add_argument("--trials", type=int, default=50, help="number of trials")
    p_sim.add_argument(
        "--alpha-grid",
        type=_alpha_list,
        default=(0.05, 0.075, 0.1, 0.125, 0.15, 0.175, 0.2, 0.225, 0.25),
        help="comma-separated target levels",
    )
    p_sim.add_argument("--c", type=float, default=2.0, help="C parameter for all methods")
    p_sim.add_argument(
        "--workers",
        type=int,
        default=None,
        help="parallel worker processes, capped at the trial and CPU counts "
        f"(default ${WORKERS_ENV_VAR} or 1)",
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

    p_dos = sub.add_parser("dosage", help="dose-response screening pipeline on a matrix CSV")
    p_dos.add_argument("input", help="CSV: gene_id header plus C*/L*/H* sample columns")
    p_dos.add_argument(
        "--alpha-grid",
        type=_alpha_list,
        default=(0.05, 0.1, 0.15, 0.2, 0.25, 0.3),
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
        stored = manifest["arguments"]
    except (OSError, ValueError, KeyError) as exc:
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
    except (DomainError, ContractError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except AccumTestError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
