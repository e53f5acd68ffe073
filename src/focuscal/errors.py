"""Exception types raised across the toolkit.

Every error that callers are expected to catch derives from
:class:`FocusCalError`, so CLI-level handling can map the whole family to a
single exit code. Geometric, numeric and missing-data failures are raised as
:class:`FocusCalError` itself, told apart by their messages; a subclass exists
only for a failure that a caller handles differently.
"""

from __future__ import annotations


class FocusCalError(Exception):
    """Base class for all toolkit errors."""


class FormatError(FocusCalError):
    """A dataset, calibration, preset or table document violates its schema."""


class NonConvergence(FocusCalError):
    """An iteration budget ran out before a tolerance was met.

    Raised by the refinement, which attaches its partial solution as
    ``result`` so callers can persist it, and by the distortion inversion,
    which has none (``result`` is ``None``).
    """

    def __init__(self, message: str, result=None):
        super().__init__(message)
        self.result = result


class NoPlateauFound(FocusCalError):
    """No run of at least three samples is flat within the noise band.

    Passing a wider noise band is the usual remedy.
    """
