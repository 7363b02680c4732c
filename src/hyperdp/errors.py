"""Exception types shared across the library.

Each class name doubles as the symbolic error name surfaced by the
command line front end, so renaming one is a breaking change.
"""


class HyperDPError(Exception):
    """Base class for every library-specific error."""

    def payload(self):
        """Structured detail for reports; subclasses may extend."""
        return {"error": type(self).__name__, "detail": str(self)}


class UnknownVertex(HyperDPError):
    pass


class DuplicateVertex(HyperDPError):
    pass


class NotDecomposable(HyperDPError):
    pass


class NotConnected(HyperDPError):
    pass


class UnknownVariable(HyperDPError):
    pass


class DomainMismatch(HyperDPError):
    pass


class ZeroMass(HyperDPError):
    pass


class ZeroConditional(HyperDPError):
    pass


class OutsideDomain(HyperDPError):
    pass


class Inconsistent(HyperDPError):
    """Two measures fail the consistency conditions for combination.

    ``pair`` holds the 1-based positions of the two measures when they
    come from a list, such as the clique bases of a spec.
    """

    def __init__(self, message, report=None, pair=None):
        super().__init__(message)
        self.report = report
        self.pair = pair

    def payload(self):
        out = super().payload()
        if self.pair is not None:
            out["pair"] = list(self.pair)
        if self.report is not None:
            out["report"] = self.report.as_dict()
        return out


class _WitnessedError(HyperDPError):
    """An error carrying a degeneracy report; its payload names the witness."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report

    def payload(self):
        out = super().payload()
        if self.report is not None:
            witness = self.report.first_witness()
            if witness is not None:
                out["witness"] = witness
        return out


class RefinementViolated(_WitnessedError):
    """A separator value admits more than one clique completion."""


class NotMarkov(HyperDPError):
    """Internal check failed: a combined measure did not factorize."""


class ObservationViolatesSupport(_WitnessedError):
    """Observed data contradicts the degeneracy structure of the base."""
