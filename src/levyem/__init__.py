"""Simulation and verification toolkit for Levy-driven SDEs dX = b(t,X)dt + dL.

Subpackages:

* :mod:`levyem.models`   -- driving-process catalog, exponents, rate prediction
* :mod:`levyem.samplers` -- exact and bias-controlled increment samplers
* :mod:`levyem.engine`   -- one Euler-Maruyama kernel for paths and coupled ladders
* :mod:`levyem.harness`  -- Monte Carlo strong-rate measurement
* :mod:`levyem.spectral` -- Fourier densities, gradient estimates, Kolmogorov solve
* :mod:`levyem.cli`      -- batch front end
"""

from .engine import (DriftSpec, drift_const, drift_cos, drift_cos_time,
                     drift_rough, drift_zero, euler_ladder)
from .harness import (ConvergenceReport, ExperimentConfig, compare_to_theory,
                      mc_strong_error, run_experiment)
from .models import (Family, LevyModel, MomentIndices, RatePrediction,
                     SubordinatorSpec, balance_check, balance_margin,
                     bernstein_eval, char_exponent_radial, kappa_exponent,
                     lamperti_bernstein, predict_for_model, predicted_rate,
                     radial_density)
from .rng import RngStream
from .samplers import (IncrementBatch, TruncationMeta, increments, load_batch,
                       sample_jump_decomposition, sample_stable,
                       sample_stable_subordinator, sample_subordinated_bm,
                       sample_tempered_subordinator, save_batch)
from .spectral import (DensityTable, PicardSolution, SpaceGrid, density_fft,
                       grad_l1_norm, gradient_scaling_exponent, picard_solve,
                       second_l1_norm, semigroup_apply, suggest_grid)

__version__ = "0.1.0"
