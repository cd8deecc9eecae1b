"""Exception hierarchy shared by the whole package.

``InputError`` covers everything a caller can fix (bad dimensions, bad
literals, data outside the supported domain).  ``ScaleLimit`` means a
computation blew its configured step budget.  ``InternalInconsistency`` is
reserved for situations the underlying theory rules out; seeing one is a
bug in this library, never a data problem.
"""


class GkzError(Exception):
    """Base class for all errors raised by gkzmono."""


class InputError(GkzError, ValueError):
    """Invalid user-supplied data (CLI exit code 1)."""


class DimensionMismatch(InputError):
    """Operands have incompatible shapes or lengths."""


class RankDeficient(InputError):
    """The matrix does not have the rank required by the operation."""


class LatticeNotSaturated(InputError):
    """Columns generate a proper finite-index sublattice; reduce first."""


class BetaOutsideSpan(InputError):
    """The parameter vector is not in the column span of the matrix."""


class EmptyFace(InputError):
    """Operation is undefined for the empty face."""


class UnsupportedFormat(InputError):
    """Unknown export format name."""


class ScaleLimit(GkzError):
    """A step-budgeted computation exceeded its budget (CLI exit code 2)."""


class InternalInconsistency(GkzError):
    """A result the theory rules out was computed (CLI exit code 3)."""
