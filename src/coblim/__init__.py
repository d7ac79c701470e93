"""coblim: a lab for martingale-coboundary limit theorems on two concrete systems.

The package simulates and cross-checks the classical limit-theorem conditions
(invariance principle, law of the iterated logarithm, p-strong law) for
functions of the form f = m + g - g.T on

* the truncated binary odometer (add-one-with-carry on B bits), where all
  tower events have exact dyadic-rational measure and can be counted, and
* the dyadic Bernoulli shift / doubling map, where conditional expectations
  with respect to the past have a closed form.

Monte Carlo estimates are always backed by an exact counterpart when one
exists; the exact side never samples.

Both systems are computed in batches: residue tables of g and orbit views on
the odometer (`counterexamples`, `mc_harness`), and `dynamics.coordinate_matrix`
for the shift coordinates of many paths at once.  The package namespace
exports only the weak and strong norms of `weak_tails`; the reports are run
through `coblim.cli` or imported from their modules.
"""

__version__ = "0.1.0"

from .weak_tails import SimpleFunctionRep, strong_norm, weak_norm

__all__ = [
    "SimpleFunctionRep",
    "weak_norm",
    "strong_norm",
    "__version__",
]
