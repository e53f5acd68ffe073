"""Ordered map over per-view work, no longer used by the pipelines.

The pipelines now batch their per-view homography, pose and statistics work
over all views, so nothing in the package calls ``map_ordered``. The module
stays imported (``focuscal/__init__.py``) only because the benchmark's
tracer, ``perfbench/tracing.py``, looks it up by name; it goes once the
tracer no longer does.
"""

from __future__ import annotations

__all__ = ["map_ordered"]


def map_ordered(fn, items) -> list:
    """Apply ``fn`` to each of ``items`` in order and return the results."""
    return [fn(item) for item in items]
