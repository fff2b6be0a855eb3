"""Accumulation tests for false discovery control on ordered p-values.

The package estimates the false discovery proportion along a ranked
list of hypotheses by averaging a nonnegative unit-integral transform
of each p-value, then rejects the longest prefix whose estimate stays
below the target level.  Alongside the core test it ships the
classical step-up baselines, asymptotic power calculations for signal
curves, a reproducible simulation lab, and a dose-response permutation
pipeline.

Public names are resolved on first use (PEP 562), so importing the
package, or running one command, loads only the modules that command
needs.
"""

import importlib

# Every command needs the densities (accumfn imports them), and
# bench/run.py times their import under ``import accumtest``.
from . import densities  # noqa: F401

__version__ = "0.1.0"

_PUBLIC = {
    "errors": ("AccumTestError", "ContractError", "DomainError", "ValidationError"),
    "accumfn": (
        "AccumulationSpec",
        "Family",
        "evaluate",
        "format_spec",
        "forward_stop",
        "hinge_exp",
        "nonnull_mean",
        "parse_spec",
        "piecewise_constant",
        "seq_step",
        "truncated_integral",
        "unit_integral",
    ),
    "densities": ("AlternativeDensity", "DensityForm"),
    "seqtest": (
        "CutoffResult",
        "Method",
        "OrderedPValues",
        "Rule",
        "default_methods",
        "estimated_fdp_path",
        "estimated_fdp_path_plus",
        "fdp",
        "mfdp",
        "power_of_cutoff",
        "run_accumulation_test",
        "select_cutoff",
        "shift_discrete_pvalues",
    ),
    "baselines": ("RejectionSet", "bh_select", "storey_select"),
    "power_theory": (
        "CurveCheck",
        "CurveReport",
        "SignalCurve",
        "asymptotic_power",
        "asymptotic_threshold",
        "centered_mgf",
        "envelope_exit_fraction",
        "expected_fdp_curve",
        "format_curve",
        "parse_curve",
        "random_walk_envelope",
        "step_optimality_gap",
        "validate_signal_curve",
    ),
    "simlab": (
        "AggregateResult",
        "SimConfig",
        "TrialFrame",
        "aggregate",
        "child_rng",
        "child_seed",
        "collect_trial_frames",
        "generate_from_curve",
        "generate_ranked_trial",
        "normal_cdf",
        "run_simulation",
        "run_trial",
        "simulate_count_ratio",
    ),
    "dosage": (
        "ExpressionMatrix",
        "GeneRecord",
        "Group",
        "HighDoseRank",
        "PipelineResult",
        "Sign",
        "high_dose_ordering",
        "permutation_pvalue",
        "read_expression_csv",
        "run_pipeline",
        "welch_p_one_sided",
        "welch_p_two_sided",
    ),
}

_HOME = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = ["__version__", *_HOME]


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
