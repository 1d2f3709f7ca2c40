"""Shapley-value explanations for dependent features via D-vine copulas.

Conditional expectations v(S) = E[g(x) | x_S] are estimated either by
conditional simulation from fitted D-vines or by copula-density-ratio
weighting of the training sample, alongside independence and Gaussian
baselines.  A multivariate-Burr ground-truth harness scores all of them
against a Monte Carlo oracle.
"""

from .bicop import (ClaytonCopula, GaussianCopula, GridCopula,
                    IndependenceCopula, PairCopula, fit_nonparametric,
                    fit_parametric)
from .dvine import (DVineModel, NonparametricMode, ParametricMode, fit_dvine,
                    pseudo_observations)
from .errors import (CoverageError, DataError, InvalidInputError, NumericError,
                     VineShapError)
from .explain import (ContributionEstimator, Explanation,
                      GaussianCopulaEstimator, GaussianEstimator,
                      IndependenceEstimator, VineCondSimEstimator,
                      VineRatioEstimator, shapley, shapley_from_values,
                      shapley_weights)
from .marginals import EmpiricalMarginal
from .simstudy import (BurrMarginal, BurrParams, ExperimentConfig,
                       ExperimentReport, analytic_mean_predictor,
                       burr_conditional_params, burr_conditional_sample,
                       burr_log_density, burr_sample,
                       generate_response, knn_predictor, mae,
                       response_mean_from_u, run_experiment, run_repetition,
                       study_params, true_shapley, truth_vine)
from .structure import CoverPlan, covered_sets, greedy_cover, required_sets

__version__ = "0.1.0"

__all__ = [
    "BurrMarginal", "BurrParams", "ClaytonCopula",
    "ContributionEstimator", "CoverPlan", "CoverageError", "DVineModel",
    "DataError", "EmpiricalMarginal", "ExperimentConfig", "ExperimentReport",
    "Explanation", "GaussianCopula", "GaussianCopulaEstimator",
    "GaussianEstimator", "GridCopula", "IndependenceCopula",
    "IndependenceEstimator", "InvalidInputError", "NonparametricMode",
    "NumericError", "PairCopula", "ParametricMode", "VineCondSimEstimator",
    "VineRatioEstimator",
    "VineShapError", "analytic_mean_predictor", "burr_conditional_params",
    "burr_conditional_sample", "burr_log_density",
    "burr_sample", "covered_sets", "fit_dvine",
    "fit_nonparametric", "fit_parametric", "generate_response", "greedy_cover",
    "knn_predictor", "mae", "pseudo_observations",
    "required_sets", "response_mean_from_u", "run_experiment",
    "run_repetition", "shapley", "shapley_from_values", "shapley_weights",
    "study_params", "true_shapley", "truth_vine",
]
