"""Reference pq_spectra certificate for the ledger tests: every companion
eigenpair is lifted into edge space one at a time and its residual is taken
under the line kernel's matrix-free application.

For a companion eigenpair (q, w) with q != -1/(n-1), the lift is
(N^T w)_{uv} = w_u + w_v over the unmarked edges uv, and the certificate is
||P N^T w - q N^T w|| / ||N^T w||, maximized over the pairs and combined with
|lambda_max(P) - q_1|.  It shares no code with the vertex-space evaluation
in ``edgewalk.bounds``.
"""

import numpy as np

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


def companion_eigendata(g):
    """Descending eigendata of the companion Q as the ledger takes it: the
    eigenvectors of Z, with values z/(2(n-1)) + 1."""
    values, vectors = eigh(z_matrix(g))
    return values / (2.0 * (g.n - 1)) + 1.0, vectors


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
