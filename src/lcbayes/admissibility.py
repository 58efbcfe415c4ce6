"""The prior game's two readers, under the names the benchmark's tracer spans.

``bench/tracing.py`` spans ``admissibility.check_admissible`` and
``admissibility.max_uniform_improvement``.  This module defines nothing
of its own: it re-exports the two readers from :mod:`lcbayes.priors` for
those spans alone, and goes when they do.  Domination is
:func:`lcbayes.decision.dominates`.
"""

from .priors import check_admissible, max_uniform_improvement
