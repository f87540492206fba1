"""Test device: an ndarray subclass that counts the ufunc calls made on it.

Every ufunc call that has a ``CallCounting`` among its inputs or outputs
adds one to ``CallCounting.calls``, and its new outputs are again
``CallCounting``, so views, copies and temporaries derived from a counted
array keep counting.  Fancy indexing, slicing assignment, ``copy`` and
the ``*_like`` constructors are not ufuncs and add nothing.  Pinning the
count of an operator pins its per-call overhead without a timer.
"""

from __future__ import annotations

import numpy as np


class CallCounting(np.ndarray):
    calls = 0

    def __array_ufunc__(self, ufunc, method, *inputs, out=None, **kwargs):
        CallCounting.calls += 1

        def plain(a):
            return a.view(np.ndarray) if isinstance(a, CallCounting) else a

        if out is not None:
            kwargs["out"] = tuple(map(plain, out))
        results = super().__array_ufunc__(ufunc, method, *map(plain, inputs), **kwargs)
        if results is NotImplemented or method == "at":
            return results
        if ufunc.nout == 1:
            results = (results,)
        outputs = out if out is not None else (None,) * ufunc.nout
        results = tuple(np.asarray(r).view(CallCounting) if o is None else o
                        for r, o in zip(results, outputs))
        return results[0] if ufunc.nout == 1 else results


def ufunc_calls(fn, x) -> int:
    """Ufunc calls made by ``fn`` on a counting copy of the array ``x``."""
    counted = np.array(x, dtype=float).view(CallCounting)
    CallCounting.calls = 0
    fn(counted)
    return CallCounting.calls
