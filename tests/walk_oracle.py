"""Reference walks for the kernel tests.

The gather formula on the arc vector reads the arc table's index arrays
directly.  For an arc a = (u, v), with m_w = (1/sqrt(n)) * sum over arcs b
into w of sigma(b) psi_b:

    (U psi)_a = (2/sqrt(n)) * sigma(a^{-1}) * m_u - psi_{a^{-1}}.

It shares no code with the square-layout kernel in ``edgewalk.operators``
or with the vertex-pair walk in ``edgewalk.quantum_search``.  A real
``np.longdouble`` state is walked in long double throughout, which makes the
oracle a higher-precision reference.

The vertex-pair walk on whole (n+1)-vectors is the oracle of the package's
pair walk on the order-(s+1) quotient: the same recurrence
b_{t+1} = 2 T b_t - b_{t-1}, with n T b = <1, b> 1 - b - 2 A b summed over
every vertex, in long double.

``mp_uniform_series`` runs the forced pair recurrence of the uniform state
on the order-(s+1) quotient in 50-digit ``mpmath`` arithmetic, so it judges
either step of the package's walk by accuracy, not by agreement in the last
bits.
"""

import numpy as np
import pytest


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


def vertex_times_nT(g):
    """The map b -> n T b = <1, b> 1 - b - 2 A b on (n+1)-vectors."""
    neg_o, neg_t = g.negative_arcs
    ends, starts = np.concatenate((neg_o, neg_t)), np.concatenate((neg_t, neg_o))

    def times_nT(b):
        nt_b = b.sum() - b
        np.subtract.at(nt_b, ends, 2.0 * b[starts])
        return nt_b

    return times_nT


def vertex_walk_pair(g, a, b, steps, forcing=None):
    """Every b_t, t = -1..steps, of the pair walk from (a, b), with
    ``forcing[step % 2]`` added after each step, as (steps + 2, n + 1) long
    doubles."""
    times_nT = vertex_times_nT(g)
    scale = np.longdouble(2.0) / g.n
    history = np.empty((steps + 2, g.n + 1), dtype=np.longdouble)
    history[0] = -np.asarray(a, dtype=np.longdouble)
    history[1] = np.asarray(b, dtype=np.longdouble)
    for step in range(steps):
        history[step + 2] = scale * times_nT(history[step + 1]) - history[step]
        if forcing is not None:
            history[step + 2] += forcing[step % 2]
    return history


def vertex_uniform_series(g, t_max):
    """The finding probability of U^t j, t = 0..t_max, from the forced pair
    walk on (n+1)-vectors: U^t j = (-1)^t j + d* a_t + S d* b_t."""
    n = g.n
    neg_o, neg_t = g.negative_arcs
    into = np.bincount(neg_t, minlength=n + 1).astype(np.longdouble)
    twice_dj = 2.0 * (n - 2.0 * into) / (n * np.sqrt(np.longdouble(n + 1)))
    zeros = np.zeros(n + 1, dtype=np.longdouble)
    history = vertex_walk_pair(g, zeros, zeros, t_max, (twice_dj, -twice_dj))
    prev, cur = history[:-1].astype(np.float64), history[1:].astype(np.float64)
    j = 1.0 / np.sqrt(g.num_arcs)
    signs = np.where(np.arange(t_max + 1) % 2 == 0, j, -j)[:, None]
    forward = (prev[:, neg_t] + cur[:, neg_o]) / np.sqrt(n) + signs
    backward = signs - (prev[:, neg_o] + cur[:, neg_t]) / np.sqrt(n)
    return np.sum(forward**2 + backward**2, axis=1)


def vertex_rotation_gap(g, summary, t_f):
    """||U^{t_f}(i beta_-) - (-beta_+)||^2 from the pair walk of (0, f) on
    (n+1)-vectors, through the Gram matrix [[I, T], [T, I]]."""
    f = np.asarray(summary.f, dtype=np.longdouble)
    theta = np.longdouble(summary.theta_max)
    history = vertex_walk_pair(g, np.zeros_like(f), f, t_f)
    a, b = -history[-2], history[-1]
    da = a + f / np.sin(theta)
    db = b - np.cos(theta) * f / np.sin(theta)
    cross = np.dot(da, vertex_times_nT(g)(db))
    return float(np.dot(da, da) + np.dot(db, db) + 2.0 * cross / g.n)


def mp_uniform_series(g, t_max, dps=50):
    """The finding probability of U^t j, t = 0..t_max, from
    b_{t+1} = (2/n) n T b_t - b_{t-1} + 2 (-1)^t d j on the quotient (the s
    marked vertices, then the rest value weighted by t), in ``dps`` digits."""
    mpmath = pytest.importorskip("mpmath")
    n, s = g.n, g.s
    cells = [1] * s + [g.t] * (g.t > 0)
    arcs = [(int(o), int(t)) for o, t in zip(*g.negative_arcs)]
    into = [sum(t == v for _, t in arcs) for v in range(len(cells))]
    with mpmath.workdps(dps):
        sqrt_n = mpmath.sqrt(n)
        twice_dj = [2 * mpmath.mpf(n - 2 * h) / (n * mpmath.sqrt(n + 1)) for h in into]
        j = 1 / mpmath.sqrt(n * (n + 1))
        prev = cur = [mpmath.mpf(0)] * len(cells)
        fp = []
        for step in range(t_max + 1):
            sign = j if step % 2 == 0 else -j
            mass = mpmath.mpf(0)
            for o, t in arcs:
                mass += ((prev[t] + cur[o]) / sqrt_n + sign) ** 2
                mass += (sign - (prev[o] + cur[t]) / sqrt_n) ** 2
            fp.append(float(mass))
            total = mpmath.fsum(c * b for c, b in zip(cells, cur))
            nt_b = [total - b for b in cur]
            for o, t in arcs:
                nt_b[o] -= 2 * cur[t]
                nt_b[t] -= 2 * cur[o]
            forcing = 1 if step % 2 == 0 else -1
            prev, cur = cur, [
                2 * x / n - p + forcing * f for x, p, f in zip(nt_b, prev, twice_dj)
            ]
    return np.array(fp)
