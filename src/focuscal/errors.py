"""Exception types raised across the toolkit, and the one check of outside input.

Every error that callers are expected to catch derives from
:class:`FocusCalError`, so CLI-level handling can map the whole family to a
single exit code. Geometric, numeric and missing-data failures are raised as
:class:`FocusCalError` itself, told apart by their messages; a subclass exists
only for a failure that a caller handles differently. ``raise_first`` reports
the first rejected view of a batch of views.
"""

from __future__ import annotations

import json
from contextlib import contextmanager

SCHEMA_VERSION = 1


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


def _parse_json(text: str, what: str):
    """The document a JSON text holds; a text ``json.loads`` rejects is malformed."""
    try:
        return json.loads(text)
    except (RecursionError, ValueError) as exc:  # ValueError: JSONDecodeError, digit limit
        raise FormatError(f"{what}: not valid JSON ({exc})") from exc


@contextmanager
def _reading(what: str, doc=None):
    """Given a document, require ``"schema": 1``. In the block, a missing key, a malformed
    value, a number too large for its type or a value of the wrong JSON type (a list
    where an object belongs) is a :class:`FormatError` about ``what``."""
    if doc is not None and not (isinstance(doc, dict) and doc.get("schema") == SCHEMA_VERSION):
        raise FormatError(f"{what}: unsupported or missing schema version")
    try:
        yield
    except KeyError as exc:
        raise FormatError(f"{what}: missing key {exc}") from exc
    except (AttributeError, IndexError, OverflowError, TypeError, ValueError) as exc:
        raise FormatError(f"{what}: {exc}") from exc
