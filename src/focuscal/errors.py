"""Exception types raised across the toolkit.

Every error that callers are expected to catch derives from
:class:`FocusCalError`, so CLI-level handling can map the whole family to a
single exit code. Geometric, numeric and missing-data failures are raised as
:class:`FocusCalError` itself, told apart by their messages; a subclass exists
only for a failure that a caller handles differently. ``raise_first`` reports
the first rejected view of a batch of views.
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


def raise_first(failures: dict, labels=None) -> None:
    """Raise the failure of the lowest-numbered view, if any.

    ``failures`` maps a view's index to the first error found for it. With
    ``labels``, the error is re-raised as ``"view <label>: <message>"``, so a
    batch of views names the one at fault; without, it is raised as it is.
    """
    if not failures:
        return
    index = min(failures)
    error = failures[index]
    if labels is None:
        raise error
    raise type(error)(f"view {labels[index]}: {error}")
