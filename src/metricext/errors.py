"""Exception hierarchy for the metricext package."""

from __future__ import annotations


class MetricExtError(Exception):
    """Base class for all package errors."""


# --- complex construction ------------------------------------------------

class DuplicateVertex(MetricExtError):
    pass


class UnknownVertexInSimplex(MetricExtError):
    pass


class EmptySimplex(MetricExtError):
    pass


# --- barycentric points ---------------------------------------------------

class NegativeWeight(MetricExtError):
    pass


class WeightsNotNormalizable(MetricExtError):
    pass


class SupportNotASimplex(MetricExtError):
    pass


class NotAnAutomorphism(MetricExtError):
    pass


# --- vertex metrics -------------------------------------------------------

class DisconnectedComplex(MetricExtError):
    pass


class MetricAxiomError(MetricExtError):
    """A supplied distance matrix violates the metric axioms.

    Carries the full violation list so callers can report witnesses.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        head = "; ".join(str(v) for v in self.violations[:3])
        more = "" if len(self.violations) <= 3 else f" (+{len(self.violations) - 3} more)"
        super().__init__(f"{len(self.violations)} metric axiom violation(s): {head}{more}")


class SuppliedConstantTooSmall(MetricExtError):
    pass


class MissingQIConstants(MetricExtError):
    pass


# --- path metric ----------------------------------------------------------

class InvalidCarrier(MetricExtError):
    pass


class EmptyIntersection(MetricExtError):
    pass


class EndpointNotInCarrier(MetricExtError):
    pass


# --- oracle ---------------------------------------------------------------

class PointNotOnGrid(MetricExtError):
    pass


class ResolutionTooCoarse(MetricExtError):
    pass


class NotATree(MetricExtError):
    pass


# --- probes ---------------------------------------------------------------

class InvalidConfiguration(MetricExtError):
    pass


# --- generators / CLI -----------------------------------------------------

class InvalidParameters(MetricExtError):
    pass


class InternalConsistencyError(MetricExtError):
    """A solver result contradicted a registered bound: build-stopping bug."""
