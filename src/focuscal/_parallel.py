"""Ordered map over per-view work.

The pipelines map their per-view homography and pose work through
``map_ordered``, so the per-view stage can be timed by name. It runs
serially: each view costs well under a millisecond with the thin SVD.
"""

from __future__ import annotations

__all__ = ["map_ordered"]


def map_ordered(fn, items) -> list:
    """Apply ``fn`` to each of ``items`` in order and return the results."""
    return [fn(item) for item in items]
