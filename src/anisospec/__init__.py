"""anisospec: desk-scale numerics for anisotropic-Sobolev transfer-operator
spectra.

Modules follow the machinery they implement: bracket_metric (Japanese
bracket and the phase-space metric), wavepackets (packets and the
wave-packet transform on periodic grids), quantize (anti-Wick operators,
weighted norms estimated from below by power iteration, and residual
probes), escape (weight functions over linear hyperbolic models),
shift_model (the bi-infinite weighted shift), suspension (cat-map mapping
torus), and fractal_count (Holder graphs and symplectic box covers).
"""

__version__ = "0.1.0"

# numpy 2 loads these on first use (np.fft in the transforms, np.random for
# every seeded draw, np.polynomial for the Gauss-Hermite nodes, numpy.ma
# inside np.unique); loading them with the package keeps their import out of
# the first computation that needs them.
import numpy.fft  # noqa: F401
import numpy.ma  # noqa: F401
import numpy.polynomial  # noqa: F401
import numpy.random  # noqa: F401

from .bracket_metric import MetricParams, jbracket, phase_point
from .errors import ResolutionError

__all__ = [
    "MetricParams",
    "jbracket",
    "phase_point",
    "ResolutionError",
    "__version__",
]
