"""Matrix-free minimum-variance wavefront reconstruction.

Turbulent screens are modelled through multiscale mid-point operators
whose inverse whitens the phase prior; reconstruction from
Shack-Hartmann slopes then runs in linear time per conjugate-gradient
iteration.
"""

from .fractal import (CoefficientError, FractalOperator, OuterOperator,
                      ScaleCoefficients, build_coefficients,
                      build_outer_operator, scale_count)
from .harness import (BenchRow, ExperimentSpec, SimulationResult, draw_screen,
                      run_bench, run_sf_validation, run_simulation,
                      trial_generator)
from .metrics import (FlopCounter, empirical_structure_function,
                      fractal_apply_flops, radial_profile, residual_stats,
                      strehl_ratio)
from .sensor import (Pupil, ShackHartmann, SlopeSet, make_pupil,
                     simulate_measurements)
from .solver import (VARIANTS, ConvergenceTrace, DiagonalPreconditioner,
                     IndefiniteOperatorError, NormalOperator, Reconstructor,
                     SolverConfig, jacobi_preconditioner,
                     operator_diagonal_stats,
                     optimal_diagonal_preconditioner, pcg_solve)
from .turbulence import KOLMOGOROV_SCALE, KolmogorovStructureFunction, kolmogorov

__version__ = "0.1.0"
