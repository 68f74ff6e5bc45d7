"""Critical curves of planar equi-affine curvature functionals.

Subpackages:

- ``elliptic``   Weierstrass kernel (weierstrass, wp, half-periods)
- ``curvature``  equi-affine geometry of sampled curves and residuals
- ``classifier`` case taxonomy of the phase-plane cubic
- ``synthesis``  curve construction for every case, closure solving
- ``fullaffine`` full-affine criticality fits, SL(2) congruence machinery
- ``cli``        command-line interface
"""

from . import classifier, curvature, elliptic, errors, fullaffine, synthesis

__all__ = ["classifier", "curvature", "elliptic", "errors", "fullaffine", "synthesis"]
__version__ = "0.1.0"
