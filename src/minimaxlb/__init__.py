"""Non-asymptotic minimax lower bounds for non-smooth functional estimation.

Evaluates mixture extensions of the van Trees / HCR inequalities in the
Hellinger and chi-squared metrics, solves the Kepler-equation geometry of
least-favorable constrained cosine priors, computes exact local minimax
risks of reference estimators of max(theta, 0) under Gaussian noise, and
reproduces the bound-versus-estimator comparison figures.
"""

from .bounds import (BoundResult, DegenerateKernelError, Functional, Identity,
                     MaxZero, PolyKernel, PowerMax, chi2_mixture_bound,
                     density_lam_constant, diffeo_bound, diffeo_bound_sup, evaluate_bound,
                     hellinger_mixture_bound, hellinger_mixture_bound_sup,
                     lam_constant, two_point_hellinger_bound,
                     twopoint_bound_sup, van_trees_value, vt_kepler_bound)
from .estimators import (Constant, PluginMLE, PreTest, local_minimax_risk,
                         pretest_risk_at)
from .mixtures import (CoverageWarning, GridSpec, MixtureSpec,
                       mixture_chi_sq, mixture_hellinger_oracle,
                       mixture_hellinger_sq)
from .models import Family, GaussianLocation, UniformScale, chi_sq_iid, hellinger_sq_iid
from .numerics import (SearchBox, ToleranceNotMet, integrate_panels, maximize_1d, maximize_2d,
                       normal_cdf, normal_pdf)
from .priors import (Cosine, GaussianPrior, KeplerCosine, KeplerSolution, Prior,
                     UniformPrior, prior_density, solve_kepler)

__version__ = "0.1.0"
