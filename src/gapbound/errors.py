"""Exception types shared across the toolkit."""


class GapboundError(Exception):
    """Base class for all toolkit errors."""


class SpecValidationError(GapboundError):
    """Malformed user input (instance spec, CLI arguments)."""


# -- groups -----------------------------------------------------------------

class NonGroupTable(GapboundError):
    """Explicit multiplication table violates a group axiom."""

    def __init__(self, axiom, witness, message=None):
        self.axiom = axiom
        self.witness = witness
        super().__init__(message or f"group axiom {axiom!r} fails at {witness!r}")


class GroupTooLarge(GapboundError):
    """Requested group order exceeds the hard cap."""


class InvalidGeneratorSet(GapboundError):
    """Generator set is not symmetric, contains the identity, or fails to generate."""


# -- graphs -----------------------------------------------------------------

class NotInvariant(GapboundError):
    """Generating set is not closed under conjugation by its own elements."""


class DisconnectedSubgraph(GapboundError):
    """Induced subgraph is not connected."""


class CriterionMismatch(GapboundError):
    """Strong convexity holds but an equivalent criterion disagrees (internal bug)."""


# -- operators --------------------------------------------------------------

class NegativePotential(GapboundError):
    """Supplied diagonal potential has a negative entry."""


class ConvergenceFailure(GapboundError):
    """LAPACK's symmetric eigensolver did not converge."""


class SpectrumInvariantError(GapboundError):
    """Computed spectrum violates a certified invariant (internal bug)."""


class CertificateFailure(GapboundError):
    """A verification certificate failed; carries the offending witness."""

    def __init__(self, message, witness=None):
        self.witness = witness
        super().__init__(message)


# -- moduli / bounds --------------------------------------------------------

class NoAdmissibleTriple(GapboundError):
    """A distance class admits no (y, x, a) triple for the concavity modulus."""


class EmptyAfterSkips(GapboundError):
    """Every extremal pair was skipped (near-zero denominator); no constant available."""


class NotHypercube(GapboundError):
    """Graph is not a standard-generator hypercube Cayley graph."""


class BoundUnavailable(GapboundError):
    """A theorem's bound could not be evaluated (e.g. no usable extremal pair)."""


class HypothesisFailed(GapboundError):
    """A theorem's hypothesis does not hold on this instance."""


# -- heat -------------------------------------------------------------------

class InsufficientSpan(GapboundError):
    """Trajectory too short to fit a decay rate over the required decades."""
