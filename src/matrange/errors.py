"""Exception hierarchy shared by every module."""


class MatrangeError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(MatrangeError):
    """Shapes or coordinate counts of operands do not line up."""


class ParseError(MatrangeError):
    """A file or JSON document does not match the expected schema."""


class DegenerateSpectrumError(MatrangeError):
    """Block splitting could not resolve numerically coincident eigenvalues."""


class NonIrreducibleInputError(MatrangeError):
    """An operation requiring irreducible tuples received a reducible one."""


class IllConditionedError(MatrangeError):
    """Constraint rows are none or dependent beyond sdp.RANK_TOL, or no
    combination of them gives the identity.  Membership poses independent
    rows only: build_frame finds range relations at the same bound."""


class CertificateError(MatrangeError):
    """A certificate failed independent re-validation.  Never silent."""


class NotSeparableError(MatrangeError):
    """Separating pencil requested for a point that is not outside the range;
    `status` is the membership verdict, "in" or "marginal"."""

    def __init__(self, message, status):
        super().__init__(message)
        self.status = status


class NoGapError(MatrangeError):
    """No exposing pencil with a positive gap exists at the given tolerance."""


class NotEquivalentError(MatrangeError):
    """Tuples have different matrix ranges; carries a separating certificate."""

    def __init__(self, message, separator=None):
        super().__init__(message)
        self.separator = separator


class NotMinimalError(MatrangeError):
    """A unitary-recovery precondition failed: an input is not minimal."""


class IndeterminateError(MatrangeError):
    """A classification came back Marginal; no hard verdict is available."""

    def __init__(self, message, near_certificates=None):
        super().__init__(message)
        self.near_certificates = near_certificates or {}
