"""Camera calibration with distance-dependent focal length.

A numpy toolkit for planar-template calibration that treats the lens focus
honestly: it measures per-distance scale factors from fronto-parallel views,
locates the hyperfocal plateau, and refines poses with the scale factors
frozen, alongside a classic single-focal-length baseline and a ray-optics
simulator that generates ground-truth datasets for comparing the two.

The public names are those in the ``__all__`` of each library module below,
all importable from the package itself.
"""

from . import _parallel  # noqa: F401  (unused; perfbench/tracing.py looks it up)
from . import calibrate, core, homography, lens, scale, solver, synth
from .calibrate import *  # noqa: F403
from .core import *  # noqa: F403
from .homography import *  # noqa: F403
from .lens import *  # noqa: F403
from .scale import *  # noqa: F403
from .solver import *  # noqa: F403
from .synth import *  # noqa: F403

__all__ = [
    name
    for module in (calibrate, core, homography, lens, scale, solver, synth)
    for name in module.__all__
]

__version__ = "0.1.0"
