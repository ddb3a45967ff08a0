"""Reference walk step for the kernel tests: the gather formula on the arc
vector, reading the arc table's index arrays directly.

For an arc a = (u, v), with m_w = (1/sqrt(n)) * sum over arcs b into w of
sigma(b) psi_b:

    (U psi)_a = (2/sqrt(n)) * sigma(a^{-1}) * m_u - psi_{a^{-1}}.

It shares no code with the square-layout kernel in ``edgewalk.operators``
or with the vertex-pair walk in ``edgewalk.quantum_search``.  A real
``np.longdouble`` state is walked in long double throughout, which makes the
oracle a higher-precision reference.
"""

import numpy as np


def _reflection(g, dtype):
    """(2/sqrt(n)) * sigma(a^{-1}) on every arc a, the same at every step."""
    sqrt_n = np.sqrt(np.finfo(dtype).dtype.type(g.n))
    return (2.0 / sqrt_n) * g.sigma_arcs[g.arcs.inverse_index]


def gather_apply_U(g, psi, reflection=None):
    """One application of the walk operator by gathers over the arc table."""
    arcs = g.arcs
    psi = np.asarray(psi)
    assert psi.shape == (arcs.num_arcs,)
    if reflection is None:
        reflection = _reflection(g, psi.dtype)
    sqrt_n = np.sqrt(psi.real.dtype.type(g.n))
    signed = g.sigma_arcs * psi
    if psi.dtype == np.longdouble:
        # bincount would round the weights to float64
        m = np.zeros(g.n + 1, dtype=np.longdouble)
        np.add.at(m, arcs.termini, signed)
    elif np.iscomplexobj(psi):
        m = np.bincount(
            arcs.termini, weights=signed.real, minlength=g.n + 1
        ) + 1j * np.bincount(arcs.termini, weights=signed.imag, minlength=g.n + 1)
    else:
        m = np.bincount(arcs.termini, weights=signed, minlength=g.n + 1)
    m /= sqrt_n
    return reflection * m[arcs.origins] - psi[arcs.inverse_index]


def gather_walk(g, psi, steps):
    """States psi, U psi, ..., U^steps psi by repeated gather steps."""
    states = [np.asarray(psi)]
    reflection = _reflection(g, states[0].dtype)
    for _ in range(steps):
        states.append(gather_apply_U(g, states[-1], reflection))
    return states
