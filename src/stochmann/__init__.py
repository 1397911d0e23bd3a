"""Inexact fixed-point iterations with certified error tail bounds.

Runs Mann-type schemes whose map evaluations carry additive random errors,
computes nonasymptotic envelopes and exponential tail bounds for the
iteration error, sizes confidence sets from those bounds, and checks
everything against Monte Carlo replication.  All randomness is counter
based, so every experiment is a pure function of its seeds.

The names below are exported lazily (PEP 562): ``import stochmann`` loads
no submodule, and ``from stochmann import advance`` loads the modules that
advance needs and no others.  So a command loads only what it runs:
``import stochmann.cli`` loads neither montecarlo nor OpenSSL, and only
the ``montecarlo`` command loads montecarlo.
"""

import importlib

__version__ = "0.1.0"

# Each exported name, by the submodule that defines it.
_EXPORTS = {name: module for module, names in (
    ("bounds", "BoundParams BoundReport Certificate canonical_eps0 "
               "certificate envelope_sequence min_iterations_for_confidence "
               "product_bound rate_envelope tail_bound"),
    ("errors", "CoverageError DivergedError DominanceError "
               "InfeasibleExperimentError NonContractiveError StochmannError "
               "ValidationError"),
    ("montecarlo", "ExperimentPlan TailEstimate clopper_pearson "
                   "coverage_experiment dominance_failures empirical_tail "
                   "error_table rate_diagnostic replica_errors replica_seeds"),
    ("noise", "CramerReport NoiseModel bounded_uniform cramer_check "
              "default_cramer_params gaussian sample_block sample_many zero"),
    ("schemes", "SCHEME_KINDS SchemeConfig StepSequences Trajectory advance "
                "rows_at run step"),
    ("spaces", "INVERSE_QUADRATIC_C MAP_FAMILIES NORM_KINDS MapSpec affine "
               "as_point contraction_constant dimension estimate_contraction "
               "eval_map inverse_quadratic norm reference_fixed_point "
               "scaled_cosine"),
    ("streams", "derive_key mix64 philox2x64 substream_normals "
                "substream_uniforms"),
) for name in names.split()}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    """An exported name, or one of the submodules that define them, loaded
    on first access."""
    if name in _EXPORTS.values():
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"),
                    name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS, *_EXPORTS.values()})
