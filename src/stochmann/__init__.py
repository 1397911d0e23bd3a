"""Inexact fixed-point iterations with certified error tail bounds.

Runs Mann-type schemes whose map evaluations carry additive random errors,
computes nonasymptotic envelopes and exponential tail bounds for the
iteration error, sizes confidence sets from those bounds, and checks
everything against Monte Carlo replication.  All randomness is counter
based, so every experiment is a pure function of its seeds.
"""

from .bounds import (BoundParams, BoundReport, Certificate, canonical_eps0,
                     certificate, deterministic_envelope, envelope_sequence,
                     min_iterations_for_confidence, product_bound,
                     rate_envelope, tail_bound)
from .errors import (CoverageError, DivergedError, DominanceError,
                     InfeasibleExperimentError, NonContractiveError,
                     StochmannError, ValidationError)
from .montecarlo import (ExperimentPlan, TailEstimate, clopper_pearson,
                         coverage_experiment, dominance_failures,
                         empirical_tail, error_table, rate_diagnostic,
                         replica_errors, replica_seeds)
from .noise import (CramerReport, NoiseModel, bounded_uniform, cramer_check,
                    default_cramer_params, gaussian, sample_block,
                    sample_many, zero)
from .schemes import (SCHEME_KINDS, SchemeConfig, StepSequences, Trajectory,
                      advance, rows_at, run, step)
from .spaces import (INVERSE_QUADRATIC_C, MAP_FAMILIES, NORM_KINDS, MapSpec,
                     affine, as_point, contraction_constant, dimension,
                     estimate_contraction, eval_map, inverse_quadratic, norm,
                     reference_fixed_point, scaled_cosine)
from .streams import derive_key, mix64, philox2x64, substream_normals, \
    substream_uniforms

__version__ = "0.1.0"
