"""Estimates judged against the Kolmogorov law, not against the prior they assume.

Every other Monte-Carlo check here draws its truths from the fractal prior
itself, so the solver's prior is right by construction there.  These
truths come from the law's exact covariance (``exact_law_screens``), and
the bar is the dense minimum-variance floor under that same law
(``dense_mmse``).  Trials are seeded as ``run_simulation`` seeds them.
"""

import numpy as np
import pytest

from fracwave.harness import trial_generator
from fracwave.sensor import simulate_measurements
from fracwave.solver import Reconstructor, SolverConfig
from fracwave.turbulence import kolmogorov

from oracles import dense_mmse, exact_law_screens

P = 5
TRIALS = 100


# At seed 0 the mean over 100 trials reads 1.32x the floor at sigma = 0.1
# and 1.02x at sigma = 1 (1.29-1.32x and 0.99-1.03x over seeds 0-2, with a
# standard error of about 0.03x): the fractal prior costs the estimate most
# where the noise is low.  The lower bound catches a floor set too high.
@pytest.mark.parametrize("sigma, factor", [(0.1, 1.4), (1.0, 1.1)])
def test_default_solve_stays_within_a_factor_of_the_law_floor(sigma, factor, tmp_path):
    rec = Reconstructor(P, cache_dir=tmp_path)
    sf = kolmogorov(1.0, float(rec.n - 1))
    rngs = [trial_generator(0, t) for t in range(TRIALS)]
    truths = exact_law_screens(sf, rec.n, rngs)
    slopes = [simulate_measurements(w, rec.pupil, sigma, rng) for w, rng in zip(truths, rngs)]
    _, traces = rec.reconstruct(slopes, SolverConfig(), truth=truths)
    mean = np.mean([trace.resid_var[-1] for trace in traces])
    floor = dense_mmse(sf, rec.pupil, sigma * sigma)
    assert 0.9 * floor < mean < factor * floor, mean / floor
