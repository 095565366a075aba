"""Numerical workbench for norm reduction on the line's diffeomorphism group.

Jet calculus with exact composition and inversion, concave moduli of
continuity and their tameness functionals, C^{k,alpha} seminorm
estimators, piecewise-Hermite diffeomorphism models, plateau-field flows,
the rolling-up / spreading / norm-reduction operators with their
conjugacy certificates, and a renormalization fixed-point experiment
emitting verifiable certificate chains.
"""

from .config import DEFAULT_TOL, RunConfig, Tolerances, smallness_threshold
from .errors import ConstructionError, PreconditionError
from .jets import MAX_ORDER, compose_derivs, invert_derivs
from .modulus import (ConcaveModulus, ModulusLawReport, TamenessVerdict,
                      check_modulus_laws, classify_tameness, concavity_slack,
                      holder, lcm_sandwich_slack, least_concave_majorant,
                      log_refined_holder, modulus_from_dict,
                      oscillation_modulus, tameness_functional)
from .diffeo import (Diffeo1, compose, compose_all, from_dict, from_preset,
                     identity, inverse, post_translate, refined_grid,
                     rescale_displacement, support_interval, to_dict,
                     translate_conjugate, translation)
from .norms import (NormReport, holder_norm, norm_report, verify_derivation,
                    verify_domination, verify_lip_met, verify_subadditivity)
from .flow import (Chart, PlateauField, make_rho, time_t_map,
                   trajectory_chart, verify_chart_conjugation,
                   verify_chart_fixes_support)
from .reduction import (ConjugacyCertificate, LambdaResult, MatherConfig,
                        PsiResult, blend_toward_identity, conjugator,
                        isotopy_step, lambda_limit, make_config, reduce_norm,
                        reduction_sweep, rescale_factor,
                        roll_equivariance_residual, roll_norm_check,
                        roll_params, roll_up, spread, spread_once,
                        sweep_profile, witness_window)
from .fixpoint import (FixedPointResult, calibrated_bump, ck_distance,
                       dump_chain, fixed_point_search, load_chain,
                       make_rescaler, rescaler_params, scaling_ratio,
                       verify_certificate, write_chain)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_TOL", "RunConfig", "Tolerances", "smallness_threshold",
    "ConstructionError", "PreconditionError",
    "MAX_ORDER", "compose_derivs", "invert_derivs",
    "ConcaveModulus", "ModulusLawReport", "TamenessVerdict",
    "check_modulus_laws", "classify_tameness", "concavity_slack", "holder",
    "lcm_sandwich_slack", "least_concave_majorant", "log_refined_holder",
    "modulus_from_dict", "oscillation_modulus", "tameness_functional",
    "Diffeo1", "compose", "compose_all",
    "from_dict", "from_preset", "identity", "inverse", "post_translate",
    "refined_grid", "rescale_displacement", "support_interval", "to_dict",
    "translate_conjugate", "translation",
    "NormReport", "holder_norm", "norm_report",
    "verify_derivation", "verify_domination",
    "verify_lip_met", "verify_subadditivity",
    "Chart", "PlateauField", "make_rho", "time_t_map", "trajectory_chart",
    "verify_chart_conjugation", "verify_chart_fixes_support",
    "ConjugacyCertificate", "LambdaResult", "MatherConfig", "PsiResult",
    "blend_toward_identity", "conjugator", "isotopy_step", "lambda_limit",
    "make_config", "reduce_norm", "reduction_sweep", "rescale_factor",
    "roll_equivariance_residual", "roll_norm_check",
    "roll_params", "roll_up", "spread", "spread_once", "sweep_profile",
    "witness_window",
    "FixedPointResult", "calibrated_bump", "ck_distance", "dump_chain",
    "fixed_point_search", "load_chain", "make_rescaler", "rescaler_params",
    "scaling_ratio", "verify_certificate", "write_chain",
]
