"""Results under other BLAS thread counts.

PCG reduces with ``np.vecdot``, which goes through BLAS above some size,
and OpenBLAS splits a long dot product across its threads.  The bits of
a solve then depend on the thread count; the results must still agree
to roundoff.  Bit reproducibility needs one BLAS thread.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import fracwave

SOLVE = """
import sys
import numpy as np
from fracwave import Reconstructor, SolverConfig, draw_screen, simulate_measurements
rec = Reconstructor(7, cache_dir=sys.argv[2])
rng = np.random.default_rng(7)
truth = draw_screen(rec.fractal, rng)
slopes = simulate_measurements(truth, rec.pupil, 0.5, rng)
w_hat, _ = rec.reconstruct(slopes, SolverConfig("u-pcg-opt", max_iter=10, tol=1e-30))
np.save(sys.argv[1], w_hat)
"""


def test_solve_agrees_across_blas_thread_counts(tmp_path):
    src = str(Path(fracwave.__file__).resolve().parents[1])
    results = []
    for threads in (1, 2):
        out, cache = tmp_path / f"w-{threads}.npy", tmp_path / f"cache-{threads}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads),
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", SOLVE, str(out), str(cache)], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        results.append(np.load(out))
    one, two = results
    gap = np.abs(one - two).max() / np.abs(one).max()
    assert gap <= 1e-12, f"1 vs 2 BLAS threads: relative gap {gap:.3g}"
