"""Accumulation tests for false discovery control on ordered p-values.

The package estimates the false discovery proportion along a ranked
list of hypotheses by averaging a nonnegative unit-integral transform
of each p-value, then rejects the longest prefix whose estimate stays
below the target level.  Alongside the core test it ships the
classical step-up baselines, asymptotic power calculations for signal
curves, a reproducible simulation lab, and a dose-response permutation
pipeline.

``import accumtest`` loads the core: ``errors``, ``densities``,
``accumfn``, ``seqtest`` and ``baselines``, whose public names it
re-exports.  The engines, ``dosage``, ``simlab``, ``power_theory`` and
``validation``, are imported on first use of one of their names
(PEP 562), so running one command loads only the engine it needs.
"""

import importlib

from . import accumfn, baselines, densities, errors, seqtest
from .accumfn import *  # noqa: F403
from .baselines import *  # noqa: F403
from .densities import *  # noqa: F403
from .errors import *  # noqa: F403
from .seqtest import *  # noqa: F403

__version__ = "0.1.0"

# Each engine's ``__all__`` less the core names it re-exports, which
# tests/test_layers.py checks.  ``cli`` resolves its engine names here too.
_ENGINES = {
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
        "path_table_columns",
        "power_table_columns",
        "run_simulation",
        "run_trial",
        "simulate_count_ratio",
    ),
    "dosage": (
        "DEFAULT_DOSAGE_ALPHAS",
        "ExpressionMatrix",
        "Group",
        "PipelineResult",
        "Sign",
        "high_dose_ordering",
        "permutation_pvalue",
        "read_expression_csv",
        "run_pipeline",
        "welch_p_one_sided",
        "welch_p_two_sided",
    ),
    "validation": ("CHECKS", "CheckResult", "run_suite"),
}

_HOME = {name: module for module, names in _ENGINES.items() for name in names}

__all__ = [
    "__version__",
    *errors.__all__,
    *densities.__all__,
    *accumfn.__all__,
    *seqtest.__all__,
    *baselines.__all__,
    *_HOME,
]


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
