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
    """The command line's report of a calibration that ran out of iterations.

    The library returns such a calibration with ``converged`` false; the
    ``calibrate`` command writes it and then raises this.
    """


class NoPlateauFound(FocusCalError):
    """No run of at least three samples is flat within the noise band.

    Passing a wider noise band is the usual remedy.
    """
