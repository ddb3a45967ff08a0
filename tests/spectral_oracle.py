"""A 50-digit reference for the overlap of the discriminant matrix.

The float64 quotient of T is solved again by ``mpmath.eigsy`` at 50 digits,
and the overlap is the squared norm of the uniform vector's projection onto
the top eigenspace (the values within 1e-10 of the top).  It shares only
the quotient matrix with ``edgewalk.spectral``.  Requires t >= 1.
"""

import pytest


def reference_overlap(T):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        values, vectors = mpmath.eigsy(mpmath.matrix(T.quotient.tolist()))
        top = max(values)
        root = mpmath.sqrt(T.order)
        uniform = [1 / root] * T.s + [mpmath.sqrt(T.t) / root]
        return float(mpmath.fsum(
            mpmath.fsum(vectors[i, k] * uniform[i] for i in range(len(uniform))) ** 2
            for k in range(len(values))
            if top - values[k] < 1e-10
        ))
