"""Learning PSNE sets of polymatrix games from observed joint actions.

The package splits into small layers: `games` holds the game model and
exact equilibrium enumeration, `mixture` the generative signal/noise
distribution over joint actions, `estimator` exact MLE over families of
candidate equilibrium sets, `bounds` the closed-form sample-complexity
calculators, `influence` the hard single-equilibrium instances with their
MAP decoder, and `experiments` the seeded Monte Carlo harnesses that put
all of it together.
"""

__version__ = "0.1.0"

import os as _os

# Nothing here gives BLAS work worth sharing, yet OpenBLAS's worker threads spin:
# load numpy with one BLAS thread unless the caller chose a count.
if not _os.environ.keys() & {"OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"}:
    _os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy as _numpy  # noqa: F401
    finally:
        del _os.environ["OPENBLAS_NUM_THREADS"]

from .bounds import (
    fano_error_lower_bound,
    fano_pair_kl,
    log_binomial,
    mixture_kl,
    sufficient_samples,
    superset_recovery_margin,
)
from .errors import CapacityError, ConfigError, InputError
from .estimator import (
    CandidateFamily,
    FitResult,
    count_grid_games,
    enumerate_psne_sets,
    fit_counts,
    fit_mle,
    optimal_q,
    population_mle,
)
from .experiments import (
    ExperimentConfig,
    ResultRow,
    ResultTable,
    run_experiment,
    run_fano,
    run_generalization_gap,
    run_recovery,
)
from .games import (
    ActionSpace,
    LinearPsneForm,
    PolymatrixGame,
    PsneSet,
    decode_joint_action,
    embed_binary_weight_game,
    encode_joint_action,
    enumerate_psne,
)
from .influence import (
    InfluenceInstance,
    all_influence_sets,
    influence_game,
    influence_psne,
    map_decoder,
)
from .mixture import (
    Dataset,
    MixtureInterval,
    MixtureModel,
    expected_log_pmf,
    expected_nll,
    mixture_interval,
    nll_scale,
)

__all__ = [
    "ActionSpace",
    "CandidateFamily",
    "CapacityError",
    "ConfigError",
    "Dataset",
    "ExperimentConfig",
    "FitResult",
    "InfluenceInstance",
    "InputError",
    "LinearPsneForm",
    "MixtureInterval",
    "MixtureModel",
    "PolymatrixGame",
    "PsneSet",
    "ResultRow",
    "ResultTable",
    "all_influence_sets",
    "count_grid_games",
    "decode_joint_action",
    "embed_binary_weight_game",
    "encode_joint_action",
    "enumerate_psne",
    "enumerate_psne_sets",
    "expected_log_pmf",
    "expected_nll",
    "fano_error_lower_bound",
    "fano_pair_kl",
    "fit_counts",
    "fit_mle",
    "influence_game",
    "influence_psne",
    "log_binomial",
    "map_decoder",
    "mixture_interval",
    "mixture_kl",
    "nll_scale",
    "optimal_q",
    "population_mle",
    "run_experiment",
    "run_fano",
    "run_generalization_gap",
    "run_recovery",
    "sufficient_samples",
    "superset_recovery_margin",
]
