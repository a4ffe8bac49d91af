"""Exception types raised by the toolkit."""


class OrbicertError(Exception):
    """Base class for all toolkit errors."""


class ZeroInverse(OrbicertError):
    """Multiplicative inverse of zero requested."""


class ZeroLambda(OrbicertError):
    """A nonzero field element was required."""


class DimensionMismatch(OrbicertError):
    """Matrix/tensor shapes or moduli are incompatible."""


class Singular(OrbicertError):
    """Matrix is not invertible over GF(p)."""


class ParameterTooLarge(OrbicertError):
    """Parameters exceed the guard rail for exhaustive computation."""


class EmptyUnion(OrbicertError):
    """A connection set needs at least one nontrivial suborbit label."""


class BadDecomposition(OrbicertError):
    """Connection set is not a union of two direct-sum direction spaces."""


class DegenerateConfig(OrbicertError):
    """Direction slopes of a projection configuration must be distinct."""


class IndexOutOfRange(OrbicertError):
    """Projection index outside the configured index set."""


class LemmaViolation(OrbicertError):
    """A structural check failed; carries the check name and a counterexample."""

    def __init__(self, lemma: str, counterexample=None):
        self.lemma = lemma
        self.counterexample = counterexample
        msg = f"check failed: {lemma}"
        if counterexample is not None:
            msg += f" (counterexample: {counterexample!r})"
        super().__init__(msg)


class TableViolation(OrbicertError):
    """Cross-ratio permutation table disagreement; carries a counterexample."""

    def __init__(self, sigma, quad, expected, got):
        self.sigma = sigma
        self.quad = quad
        self.expected = expected
        self.got = got
        super().__init__(
            f"permuted cross-ratio mismatch: sigma={sigma} quad={quad} "
            f"expected {expected} got {got}"
        )


class ScanViolation(OrbicertError):
    """Prime scan found a prime contradicting the obstruction dichotomy."""


class CertificationFailed(OrbicertError):
    """A verification driver could not certify its claim.

    ``stage`` names the failing step; ``detail`` carries evidence.
    """

    def __init__(self, claim: str, stage: str, detail=None):
        self.claim = claim
        self.stage = stage
        self.detail = detail
        msg = f"certification failed: {claim} [stage: {stage}]"
        if detail is not None:
            msg += f" -- {detail!r}"
        super().__init__(msg)


class InvalidConfig(OrbicertError):
    """Command-line configuration is inconsistent."""
