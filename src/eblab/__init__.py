"""Numerical laboratory for Gaussian-noise empirical-Bayes denoising.

Core objects: discrete priors and their Gaussian-convolution marginals
(``mixtures``), divergence and regret functionals between two such models
(``metrics``), adaptive line quadrature (``quadrature``), Hermite moment
expansions of density gaps (``hermite``), orthonormal polynomials and
derivative-operator norms for phi^2/f weights (``orthopoly``), benchmark
prior families (``families``), a grid maximum-likelihood prior solver
(``npmle``), and a CSV/JSON reporting CLI (``cli``).
"""

from . import families, hermite, metrics, mixtures, npmle, orthopoly, quadrature, reports
from .families import *
from .hermite import *
from .metrics import *
from .mixtures import *
from .npmle import *
from .orthopoly import *
from .quadrature import *
from .reports import *

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *quadrature.__all__,
    *mixtures.__all__,
    *metrics.__all__,
    *hermite.__all__,
    *orthopoly.__all__,
    *families.__all__,
    *npmle.__all__,
    *reports.__all__,
]
