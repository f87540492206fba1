"""Ufunc-call budgets of the operators, counted with ``CallCounting``.

Below p=7 an operator application costs per numpy call more than per
sample, so a change that adds calls shows here as a count before it
shows on a timer.  A multiscale map makes 4 calls in its corner step
(one broadcast multiply by the 4 x 4 corner matrix and three adds), 1
for its alpha0 scale and 25 per refinement pass; the normal operator
makes two maps, 7 calls for S^T W S on the cell grid and 1 for the sum
of its two terms.

The counts are taken on (2, n, n) stacks, which run the pass steps on
the caller's array.  A single grid at p <= 7 runs the same steps as a
program bound to the operator's own workspace, which a counting array
cannot see; its step count is pinned directly.
"""

import numpy as np
import pytest

from fracwave.fractal import FractalOperator
from fracwave.solver import Reconstructor
from fracwave.turbulence import kolmogorov

from callcount import CallCounting, ufunc_calls

MAPS = ("apply", "apply_inverse", "apply_transpose", "apply_inverse_transpose")


def map_calls(p):
    return 5 + 25 * p  # 130 at p=5, 180 at p=7


def normal_calls(p):
    return 2 * map_calls(p) + 7 + 1  # 268 at p=5, 368 at p=7


@pytest.fixture(scope="module", params=[5, 7])
def rec(request, tmp_path_factory):
    return Reconstructor(request.param, cache_dir=tmp_path_factory.mktemp("cache"))


def test_counting_array_counts_derived_arrays():
    x = np.zeros((4, 4)).view(CallCounting)
    CallCounting.calls = 0
    y = x[1:] + 1.0  # 1
    y *= 2.0         # 2, in place on a derived array
    z = y.copy()
    z[0] = 5.0       # assignment is not a ufunc
    np.subtract(z, z, out=z)  # 3
    assert isinstance(y, CallCounting) and isinstance(z, CallCounting)
    assert CallCounting.calls == 3


@pytest.mark.parametrize("name", MAPS)
def test_multiscale_map_call_budget(rec, name):
    x = np.random.default_rng(0).standard_normal((2, rec.n, rec.n))
    assert ufunc_calls(getattr(rec.fractal, name), x) == map_calls(rec.p)


@pytest.mark.parametrize("space", ["u", "w"])
def test_normal_operator_call_budget(rec, space):
    rng = np.random.default_rng(1)
    A = rec.system(rng.uniform(0.5, 2.0, rec.pupil.nsub), space)
    x = rng.standard_normal((2, rec.n, rec.n))
    assert ufunc_calls(A.apply, x) == normal_calls(rec.p)


def test_bound_program_has_25_steps_per_pass():
    fractal = FractalOperator(kolmogorov(1.0, 32.0), 5)
    assert len(fractal._programs) == 4
    for program in fractal._programs.values():
        assert len(program) == 25 * 5
