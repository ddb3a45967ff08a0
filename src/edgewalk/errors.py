"""Exception types raised across the package."""


class EdgeWalkError(Exception):
    """Base class for every error raised by this package."""


class TooSmall(EdgeWalkError):
    """The host-graph parameter n is below the minimum of 2."""


class InvalidVertex(EdgeWalkError):
    """A vertex label lies outside {0, ..., n}."""


class LoopEdge(EdgeWalkError):
    """An edge joins a vertex to itself."""


class EmptySubgraph(EdgeWalkError):
    """No marked edge was supplied."""


class InvalidArc(EdgeWalkError):
    """An ordered pair is not an arc of the host graph."""


class InvalidEdge(EdgeWalkError):
    """An unordered pair is not an edge of the host graph."""


class EmptyComplement(EdgeWalkError):
    """Every edge of the host graph is marked; there is nothing to walk on."""


class TooLarge(EdgeWalkError):
    """The instance is too large for a dense construction or an order-(n+1)
    lift, has more unmarked edges than the Monte-Carlo walker's 32-bit
    bounded draws serve, or has lost its rotation angle (LostPrecision)."""


class LostPrecision(TooLarge):
    """lambda_max(T) is within ``DEGENERACY_TOL`` of 1, float64's resolution,
    though the marked subgraph does not span the host, so lambda_max < 1:
    the rotation angle has no correct digit.  ``QuotientSpectrum.summary``,
    the one decision on lambda_max(T) = 1, raises it; walks and the ledger
    skip the angle, and bipartite_iff reads the refusal as lambda_max = 1.
    ``verify_all`` raises it when the lambda_max(P) bracket reads 1."""


class DimensionMismatch(EdgeWalkError):
    """A state vector does not match the arc set of the instance."""


class NotSymmetric(EdgeWalkError):
    """A matrix expected to be symmetric is not."""


class NoConvergence(EdgeWalkError):
    """An eigenvalue computation failed to converge."""


class DegenerateSpectrum(EdgeWalkError):
    """The top eigenvalue of T equals 1, which happens exactly when the
    marked subgraph is a spanning complete bipartite graph (so it spans the
    host, t = 0); the rotation angle is then 0 and the quantum searching
    time is undefined.  ``QuotientSpectrum.summary`` alone decides it, within
    ``DEGENERACY_TOL``, and a ``SpectralSummary`` refuses theta_max <= 0."""


class SolverFailure(EdgeWalkError):
    """A linear solve did not reach the requested residual."""


class StepCapExceeded(EdgeWalkError):
    """A Monte-Carlo trial exceeded the per-trial step cap."""


class ZeroTrials(EdgeWalkError):
    """A Monte-Carlo estimate was requested with zero trials."""
