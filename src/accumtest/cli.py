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

``_csvtext`` owns the table format: p-values here and expression
matrices in ``dosage`` are read by its ``read_table``, tables are
written by its ``write_table`` and report values by its ``cell_text``.
It is imported when a file is read or a table or report line is
written, so ``--version`` loads neither it nor ``csv``.

Every file-writing run also writes a JSON manifest next to its tables
holding the exact argument vector, so ``accumtest --replay MANIFEST``
reproduces the run byte for byte.  An empty ``--out`` is a usage error.
``_outputs`` names a run's files and refuses each before the engine
runs; ``main`` writes the manifest last.
Floats are serialized by ``json`` in their shortest round-trip form
(``0.1``, not ``0.10000000000000001``), which gives back the underlying
doubles exactly.

Exit status: 0 on success, 2 for usage errors, 3 for malformed or
out-of-range input data (an input file that is not UTF-8 among them),
4 for numerical or precondition failures (including a failing
validate suite).  ``main`` prints every ``error:`` line, those of
``--replay`` included.

``python -m accumtest`` and the ``accumtest`` script run ``entry``,
the one process entry.  It returns ``main``'s exit code after
``gc.freeze()``, so the full collection at interpreter shutdown, about
13 ms of a cold run, skips every object the run left; exit handlers,
stream flushes and file closes still run.  ``main`` called in process
freezes nothing.
"""

from __future__ import annotations

import argparse
import errno
import gc
import json
import os
import sys
from typing import Optional, Sequence

import numpy as np

from . import _HOME, __version__
from .accumfn import parse_spec
from .errors import AccumTestError, ValidationError
from .seqtest import (
    Method,
    OrderedPValues,
    Rule,
    _alpha_levels,
    _grid_size,
    _mfdp_constant,
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


def _outputs(args: argparse.Namespace) -> list[str]:
    """The files a run writes, in write order: its tables, then
    ``OUT.manifest.json``; none without ``--out``.

    Each is refused, the first in write order named, with the error
    ``open(path, "w")`` would raise for a directory that cannot be
    reached (missing, or a file) or for a path that is a directory.
    """
    out = getattr(args, "out", None)
    if out is None:
        return []
    files = [out]
    if args.subcommand == "simulate":
        files = [out + "_summary.csv"] + ([] if args.no_paths else [out + "_paths.csv"])
    files.append(out + ".manifest.json")
    try:
        # The trailing separator makes a parent that is a file fail too.
        os.stat(os.path.join(os.path.dirname(files[0]) or os.curdir, ""))
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, files[0]) from None
    for path in files:
        if os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    return files


def _write_manifest(args: argparse.Namespace, argv: Sequence[str]) -> None:
    """Write the manifest of a run that wrote files, naming the tables it wrote."""
    files = _outputs(args)
    if not files:
        return
    payload = {
        "version": __version__,
        "subcommand": args.subcommand,
        "arguments": list(argv),
        "parameters": {key: value for key, value in vars(args).items() if not callable(value)},
        "inputs": [args.input] if hasattr(args, "input") else [],
        "outputs": files[:-1],
    }
    with open(files[-1], "w") as handle:
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


def _out_path(text: str) -> str:
    if not text:
        raise argparse.ArgumentTypeError("empty path")
    return text


def _read_pvalue_csv(path: str) -> OrderedPValues:
    """Load ordered p-values from a CSV with a ``p`` column.

    A column named ``is_null`` (values 0/1 or true/false) attaches
    ground-truth labels used for FDP and power reporting.  Both are
    named in any case with blanks around; other columns are ignored.
    """
    from ._csvtext import BadRow, read_table

    def fields_of(header: list[str]) -> list[tuple[int, type]]:
        names = [cell.strip().lower() for cell in header]
        if "p" not in names:
            raise ValidationError(f"{path}: no column named p")
        wanted = [("p", float), ("is_null", bool)]
        return [(names.index(name), kind) for name, kind in wanted if name in names]

    try:
        fields = read_table(path, fields_of)
    except BadRow as bad:
        row, (column, kind), cells = bad.args
        if kind is float:
            problem = "bad p cell"
        elif column >= len(cells):
            problem = "missing is_null cell"
        else:
            problem = f"bad is_null cell {cells[column].strip().lower()!r}"
        raise ValidationError(f"{path}: row {row}: {problem}") from None
    if fields is None:
        raise ValidationError(f"{path}: empty file")
    if not len(fields[0]):
        raise ValidationError(f"{path}: no p-value rows")
    return OrderedPValues(fields[0], null_mask=fields[1] if len(fields) > 1 else None)


def cmd_test(args: argparse.Namespace) -> int:
    from ._csvtext import cell_text, write_table

    # Each option is checked before the input is read, by the function that
    # applies it; mfdp itself runs only when is_null is given.
    _mfdp_constant(args.mfdp_c)
    spec = parse_spec(args.method)
    if args.shift_grid is not None:
        _grid_size(args.shift_grid)
    c = Method("", spec, args.rule, args.c).plus_constant
    _alpha_levels(args.alpha)
    pvals = _read_pvalue_csv(args.input)
    if args.shift_grid is not None:
        pvals = shift_discrete_pvalues(pvals, args.shift_grid)
    tables = _outputs(args)[:-1]
    result = run_accumulation_test(pvals, spec, args.alpha, rule=args.rule, c=c)
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
        print(f"{name} = {cell_text(value)}")
    if tables:
        columns = (np.arange(1, len(pvals) + 1), pvals.values, result.fdp_hat_path)
        write_table(tables[0], ("k", "p", "fdp_hat"), columns)
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    from ._csvtext import write_table

    # Options left unset take SimConfig's defaults, which the manifest records.
    fields = ("n", "n_nonnull", "mu1", "mu2", "alpha_grid", "trials")
    for name in fields:
        if getattr(args, name) is None:
            setattr(args, name, getattr(_lazy.SimConfig, name))
    config = _lazy.SimConfig(seed=args.seed, **{name: getattr(args, name) for name in fields})
    tables = _outputs(args)[:-1] or [None]
    agg = _lazy.run_simulation(config, default_methods(args.c), len(tables) > 1)
    header = ("method", "alpha", "mean_power", "se_power", "mean_fdp", "se_fdp")
    write_table(tables[0], header, _lazy.power_table_columns(agg))
    if len(tables) > 1:
        columns = _lazy.path_table_columns(agg)
        write_table(tables[1], ("method", "k", "mean_fdp_hat", "mean_fdp_true"), columns)
    return 0


def cmd_power(args: argparse.Namespace) -> int:
    from ._csvtext import cell_text

    curve = _lazy.parse_curve(args.curve)
    threshold = _lazy.asymptotic_threshold(curve, args.alpha, args.mu)
    power = _lazy.asymptotic_power(curve, args.alpha, args.mu)
    print(f"T = {cell_text(threshold)}")
    print(f"power = {cell_text(power)}")
    return 0


def cmd_dosage(args: argparse.Namespace) -> int:
    from ._csvtext import write_table
    from .dosage import _alpha_grid

    if args.alpha_grid is None:
        args.alpha_grid = _lazy.DEFAULT_DOSAGE_ALPHAS
    # Both options are checked before the input is read, as in cmd_test.
    methods = default_methods(args.c)
    _alpha_grid(args.alpha_grid)
    matrix = _lazy.read_expression_csv(args.input)
    tables = _outputs(args)[:-1] or [None]
    result = _lazy.run_pipeline(
        matrix,
        methods=methods,
        alpha_grid=args.alpha_grid,
        include_baselines=not args.no_baselines,
    )
    write_table(tables[0], ("method", "alpha", "discoveries"), result.columns)
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
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
    p_test.add_argument("--out", type=_out_path, help="write the estimated FDP path CSV here")
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
    p_sim.add_argument("--out", type=_out_path, help="output prefix for summary/path CSVs")
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
    p_dos.add_argument("--out", type=_out_path, help="write the discovery table here")
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
        raise ValidationError(f"cannot replay {argv[1]}: {exc}") from None
    if not isinstance(stored, list) or any(not isinstance(s, str) for s in stored):
        raise ValidationError(f"manifest {argv[1]} has no argument vector")
    if stored and stored[0] == "--replay":
        raise ValidationError("manifest replays another replay")
    return main(stored)


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        if argv and argv[0] == "--replay":
            return _replay(argv)
        args = build_parser().parse_args(argv)
        code = args.func(args)
        if code == 0:
            _write_manifest(args, argv)
        return code
    except SystemExit as exc:  # argparse: usage errors, --help and --version
        code = exc.code
        return int(code) if isinstance(code, int) else 2
    except (ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except AccumTestError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


def entry() -> int:
    """``main`` as a process: its exit code, with every object it left
    frozen out of the collector's reach."""
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    raise SystemExit(entry())
