"""Reference walk step for the kernel tests: the gather formula on the arc
vector, reading the arc table's index arrays directly.

For an arc a = (u, v), with m_w = (1/sqrt(n)) * sum over arcs b into w of
sigma(b) psi_b:

    (U psi)_a = (2/sqrt(n)) * sigma(a^{-1}) * m_u - psi_{a^{-1}}.

It shares no code with the square-layout kernel in ``edgewalk.operators``.
"""

import numpy as np


def gather_apply_U(g, psi):
    """One application of the walk operator by gathers over the arc table."""
    arcs = g.arcs
    psi = np.asarray(psi)
    assert psi.shape == (arcs.num_arcs,)
    sqrt_n = np.sqrt(g.n)
    signed = g.sigma_arcs * psi
    if np.iscomplexobj(psi):
        m = np.bincount(
            arcs.termini, weights=signed.real, minlength=g.n + 1
        ) + 1j * np.bincount(arcs.termini, weights=signed.imag, minlength=g.n + 1)
    else:
        m = np.bincount(arcs.termini, weights=signed, minlength=g.n + 1)
    m /= sqrt_n
    sigma_inverse = g.sigma_arcs[arcs.inverse_index]
    return (2.0 / sqrt_n) * sigma_inverse * m[arcs.origins] - psi[arcs.inverse_index]


def gather_walk(g, psi, steps):
    """States psi, U psi, ..., U^steps psi by repeated gather steps."""
    states = [np.asarray(psi)]
    for _ in range(steps):
        states.append(gather_apply_U(g, states[-1]))
    return states
