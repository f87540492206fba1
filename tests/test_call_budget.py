"""Ufunc-call budgets of the operators, counted with ``CallCounting``.

Below p=7 an operator application costs per numpy call more than per
sample, so a change that adds calls shows here as a count before it
shows on a timer.  A multiscale map makes 4 calls in its corner step
(one broadcast multiply by the 4 x 4 corner matrix and three adds), 1
for its alpha0 scale and 25 per refinement pass; the normal operator
makes two maps, 7 calls for S^T W S on the cell grid and 1 for the sum
of its two terms.

Every map runs its passes as a 25p-step program, bound on first use to
the operator's workspace, which a counting array cannot see.  A budget is
therefore the calls that the counting array sees (the corner step, the
alpha0 scale and, in the normal operator, S^T W S and the sum) plus the
length of each bound program that runs.  Both are taken on single grids
and on (2, n, n) stacks.
"""

import numpy as np
import pytest

from fracwave import fractal
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


@pytest.fixture
def program_steps(monkeypatch):
    """Lengths of the bound programs that the maps run, in call order."""
    ran = []
    run = fractal._run

    def counted(program):
        ran.append(len(program))
        run(program)

    monkeypatch.setattr(fractal, "_run", counted)
    return ran


def budget(fn, x, program_steps):
    """Ufunc calls of ``fn`` on ``x``: counted ones plus bound program steps."""
    program_steps.clear()
    return ufunc_calls(fn, x) + sum(program_steps)


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
def test_multiscale_map_call_budget(rec, name, program_steps):
    rng = np.random.default_rng(0)
    for shape in ((rec.n, rec.n), (2, rec.n, rec.n)):
        x = rng.standard_normal(shape)
        assert budget(getattr(rec.fractal, name), x, program_steps) == map_calls(rec.p)
        assert program_steps == [25 * rec.p]


@pytest.mark.parametrize("space", ["u", "w"])
def test_normal_operator_call_budget(rec, space, program_steps):
    rng = np.random.default_rng(1)
    A = rec.system(rng.uniform(0.5, 2.0, rec.pupil.nsub), space)
    for shape in ((rec.n, rec.n), (2, rec.n, rec.n)):
        x = rng.standard_normal(shape)
        assert budget(A.apply, x, program_steps) == normal_calls(rec.p)
        assert program_steps == [25 * rec.p] * 2


def test_bound_programs_have_25_steps_per_pass():
    # Construction binds nothing; each map binds its program on first use
    # and a new grid shape drops the programs of the last.
    op = FractalOperator(kolmogorov(1.0, 32.0), 5)
    assert op._programs == {}
    for shape in ((op.n, op.n), (2, op.n, op.n)):
        for k, name in enumerate(MAPS):
            getattr(op, name)(np.zeros(shape))
            assert len(op._programs) == k + 1
        assert [len(program) for program in op._programs.values()] == [25 * 5] * 4
