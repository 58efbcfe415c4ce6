"""Exact decision-theory certificates at desk scale.

Subpackages by capability:

* :mod:`lcbayes.lcnum` - truncated Levi-Civita field: exact arithmetic
  with infinitesimals, standard parts, and the infinitely-larger order.
* :mod:`lcbayes.ratlp` - exact-rational simplex for the prior game's LP
  shape, every optimum verified by an independent checker.
* :mod:`lcbayes.decision` - finite decision problems, randomized rules,
  exact risk and Bayes risk, mixtures and derandomization; the one prior
  type, with rational or Levi-Civita weights on states or on parameter
  points; the one domination predicate, over rational or Levi-Civita
  risks with standard tags.
* :mod:`lcbayes.priors` - the prior game, one LP per verdict, returned as
  one record (epsilon*, the total slack S*, the witness prior, the
  improver and the candidate's risks) from which admissibility and
  extended admissibility are read; each verdict checked; epsilon-Bayes
  verification.
* :mod:`lcbayes.admissibility` - defines nothing: it re-exports the prior
  game's two readers, ``check_admissible`` and ``max_uniform_improvement``,
  under the names the benchmark's tracer spans.
* :mod:`lcbayes.families` - closed-form location and boundary families,
  one prior-regularity check for Gaussian and finite priors, pushdowns of Levi-Civita priors with their Bayes-risk
  consistency check, and grid-scoped admissibility certificates.
* :mod:`lcbayes.cli` - the ``lcbayes`` command.

Each public name below loads its module on first use, so ``import
lcbayes`` (and with it the ``lcbayes`` command) imports no submodule
until one is needed.
"""

import importlib

_EXPORTS = {
    "lcnum": ("DEFAULT_ORDER", "LCNumber", "LCParseError", "NotNearStandard",
              "approx_eq", "compare", "eps", "evaluate", "leq_approx",
              "much_greater", "parse", "refute_much_greater", "st"),
    "ratlp": ("CertificateError", "LPProblem", "LPSolution", "MalformedProblem",
              "check_certificate", "solve_lp"),
    "decision": ("FiniteProblem", "Prior", "Procedure", "bayes_risk",
                 "convex_combine", "derandomize", "dominates", "risk", "risk_vector"),
    "priors": ("AdmissibilityVerdict", "check_admissible", "classify",
               "max_uniform_improvement", "minimal_bayes_risk", "synthesize_prior",
               "verify_epsilon_bayes"),
    "families": ("BernoulliBoundary", "BlythCertificate", "GaussianPrior",
                 "NormalLocationLinear", "RegularityVerdict",
                 "bernoulli_boundary_report", "blyth_certificate",
                 "check_epsilon_regular_normal", "normal_location_report",
                 "pushdown", "pushdown_risk_consistency"),
}
# public name -> the submodule that defines it
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    """Import the submodule behind ``name`` on first access (PEP 562)."""
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value
