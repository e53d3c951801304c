"""Exception types that carry a behavioural contract for callers.

Plain precondition violations (bad lengths, out-of-range indices,
self-loops, ...) raise ``ValueError`` with a descriptive message and are
not given dedicated classes.
"""


class ZeroSignal(ValueError):
    """A node signal required to be nonzero (or nonconstant) is degenerate."""


class IsolatedNodeUnderMu(ValueError):
    """Some weighted degree is zero; the caller must floor the potential."""


class HeatSeriesTooLong(ValueError):
    """Heat flow to this time needs more Chebyshev terms than are run above the
    dense limit, where no eigendecomposition can take their place."""


class NaNLoss(RuntimeError):
    """Training produced a non-finite loss or parameter; run aborted."""


class DisconnectedAfterRetries(RuntimeError):
    """Random graph generator failed to produce a connected graph."""
