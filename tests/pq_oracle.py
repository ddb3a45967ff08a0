"""Reference pq_spectra values for the ledger tests.

The certificate oracle lifts every companion eigenpair into edge space one
at a time and takes its residual under the line kernel's matrix-free
application; on small instances the full multisets of the dense kernel and
the companion are compared as well.

For a companion eigenpair (q, w) with q != -1/(n-1), the lift is
(N^T w)_{uv} = w_u + w_v over the unmarked edges uv, and the certificate is
||P N^T w - q N^T w|| / ||N^T w||, maximized over the pairs and combined with
|lambda_max(P) - q_1|.  It shares no code with the vertex-space evaluation
in ``edgewalk.bounds``.
"""

import numpy as np

from edgewalk.operators import VertexMatrix
from edgewalk.spectral import eigh


def z_matrix(g):
    """The ledger's vertex matrix Z = J - (n+1)I - A - D."""
    order = g.n + 1
    return (
        np.ones((order, order))
        - order * np.eye(order)
        - g.marked_matrix
        - np.diag(g.gamma_degrees)
    )


def companion_closed_form(g):
    """Q = (J + (n-3)I - A - D)/(2(n-1)), each entry an integer over
    2(n-1): the closed form the line kernel's companion was built from
    before it was read off N N^T."""
    return VertexMatrix(g, 0, g.n - 2, degree=-1, divisor=2 * (g.n - 1))


def same_bits(a, b):
    """Whether two vertex matrices agree bit for bit: order, block,
    quotient, and the two scalars as the same Python type."""
    return (
        a.order == b.order
        and a.block.tobytes() == b.block.tobytes()
        and a.quotient.tobytes() == b.quotient.tobytes()
        and np.array([a.off, a.diagonal]).tobytes()
        == np.array([b.off, b.diagonal]).tobytes()
        and (type(a.off), type(a.diagonal)) == (type(b.off), type(b.diagonal))
    )


def companion_eigendata(g):
    """Descending eigendata of the companion Q as the ledger takes it: the
    eigenvectors of Z, with values z/(2(n-1)) + 1."""
    values, vectors = eigh(z_matrix(g))
    return values / (2.0 * (g.n - 1)) + 1.0, vectors


def dense_eigendata(spectrum):
    """Descending (values, vectors) of order n+1 from a quotient spectrum:
    each quotient vector lifted, and for beta an orthonormal basis of the
    zero-sum vectors on the rest, from a QR factorization of the
    differences e_1 - e_k."""
    s, t = spectrum.s, spectrum.t
    vectors = [spectrum.lift(v) for v in spectrum.vectors.T]
    values = list(spectrum.values)
    if spectrum.copies:
        differences = np.zeros((t, t - 1))
        differences[0] = 1.0
        differences[np.arange(1, t), np.arange(t - 1)] = -1.0
        basis = np.linalg.qr(differences)[0]
        vectors.extend(np.concatenate([np.zeros(s), column]) for column in basis.T)
        values.extend([spectrum.beta] * spectrum.copies)
    order = np.argsort(values, kind="stable")[::-1]
    return np.array(values)[order], np.column_stack(vectors)[:, order]


def lifted_pq_mismatch(P, lambda_max_p, q_values, q_vectors, kernel_tol=1e-6):
    """The pq_spectra certificate by explicit lifts into edge space."""
    kernel_value = -1.0 / (P.n - 1)
    eu = P.complement.edges[:, 0]
    ev = P.complement.edges[:, 1]
    worst = abs(lambda_max_p - float(q_values[0]))
    for i in np.nonzero(np.abs(q_values - kernel_value) > kernel_tol)[0]:
        w = q_vectors[:, i]
        lifted = w[eu] + w[ev]
        residual = P.matvec(lifted) - q_values[i] * lifted
        worst = max(
            worst,
            float(np.linalg.norm(residual) / np.linalg.norm(lifted)),
        )
    return worst


def dense_pq_mismatch(P, q_values, kernel_tol=1e-6):
    """Distance between the full multisets Spec(P) and Spec(Q) with the
    value -1/(n-1) removed from both, from the dense kernel (small
    instances only); infinite when the remaining counts differ."""
    kernel_value = -1.0 / (P.n - 1)
    p_values = np.sort(np.linalg.eigvalsh(P.dense()))
    q_sorted = np.sort(q_values)
    p_keep = p_values[np.abs(p_values - kernel_value) > kernel_tol]
    q_keep = q_sorted[np.abs(q_sorted - kernel_value) > kernel_tol]
    if p_keep.size != q_keep.size:
        return float("inf")
    if p_keep.size == 0:
        return 0.0
    return float(np.abs(p_keep - q_keep).max())
