"""Exception types raised across the toolkit, and the one check of outside input.

Every error that callers are expected to catch derives from
:class:`FocusCalError`, so CLI-level handling can map the whole family to a
single exit code. Geometric, numeric and missing-data failures are raised as
:class:`FocusCalError` itself, told apart by their messages; a subclass exists
only for a failure that a caller handles differently. ``raise_first`` reports
the first rejected view of a batch of views. Inside ``_reading``, readers take
each document value with one of the ``_get`` readers below, as one JSON kind.
"""

from __future__ import annotations

import json
import math
import sys
from contextlib import contextmanager
from itertools import chain, product
from operator import itemgetter

import numpy as np

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
    """Given a document, require ``"schema": 1`` as an integer, so not ``true`` or ``1.0``.
    In the block, a missing key, a malformed value, a number too large for its type or a
    value of the wrong JSON type (a list where an object belongs) is a
    :class:`FormatError` about ``what``."""
    if doc is not None and not (isinstance(doc, dict) and _is(doc.get("schema"), int)
                                and doc["schema"] == SCHEMA_VERSION):
        raise FormatError(f"{what}: unsupported or missing schema version")
    try:
        yield
    except KeyError as exc:
        raise FormatError(f"{what}: missing key {exc}") from exc
    except (AttributeError, IndexError, OverflowError, TypeError, ValueError) as exc:
        raise FormatError(f"{what}: {exc}") from exc


_ABSENT = object()  # no default: the key is required
_KINDS = {float: "a finite number", int: "an integer", str: "a string", dict: "an object",
          list: "a list"}


def _is(value, kind: type) -> bool:
    """Whether ``value`` is of the JSON kind ``kind`` names; a bool is no number."""
    if isinstance(value, bool):
        return False
    if kind is float:  # an int or a float, and finite
        return isinstance(value, (int, float)) and math.isfinite(value)
    return isinstance(value, kind)


def _wrong(key: str, kind: str, value) -> TypeError:
    text = json.dumps(value, default=repr)  # the value as the document spells it
    return TypeError(f"{key} must be {kind}, not {text if len(text) <= 40 else text[:40] + '...'}")


def _get(doc, key: str, kind: type, default=_ABSENT):
    """``doc[key]``, or ``default`` when given and the key is absent, as the JSON
    kind ``kind`` names; a number read as ``float`` is returned as a float."""
    if default is not _ABSENT and key not in doc:
        return default
    value = doc[key]
    if not _is(value, kind):
        raise _wrong(key, _KINDS[kind], value)
    return float(value) if kind is float else value


def _get_list(doc, key: str, kind: type, n: int) -> list:
    """``doc[key]`` as a list of ``n`` values, each read as ``_get`` reads ``kind``."""
    values = _get(doc, key, list)
    if len(values) != n or not all(_is(v, kind) for v in values):
        raise _wrong(key, f"a list of {n} values, each {_KINDS[kind]}", values)
    return [float(v) for v in values] if kind is float else values


def _get_size(doc, key: str) -> tuple[int, int]:
    """``doc[key]`` as an image's (width, height) in pixels: two integers, each
    positive and no larger than the largest float, so that both convert to floats."""
    size = _get_list(doc, key, int, 2)
    if not all(0 < n <= sys.float_info.max for n in size):
        raise _wrong(key, "two integers, each positive and at most 1.8e308", size)
    return tuple(size)


def _get_rows(docs: list, keys: tuple) -> np.ndarray:
    """The numbers at ``keys`` of each object in ``docs`` as one float array, row by row.
    One set of value types checks them all; only a table that fails it is searched,
    value by value, for the one to name. The caller checks that they are finite."""
    rows = list(map(itemgetter(*keys), docs))
    if not set(map(type, chain.from_iterable(rows))) <= {int, float}:
        for doc, key in product(docs, keys):  # a float subclass, such as numpy's, passes
            _get(doc, key, float)
    return np.array(rows, dtype=float).reshape(-1, len(keys))
