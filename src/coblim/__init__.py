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
"""

__version__ = "0.1.0"

from .dynamics import OdometerPoint, ShiftTrajectory, level, odometer_advance
from .weak_tails import SimpleFunctionRep, strong_norm, weak_norm

__all__ = [
    "OdometerPoint",
    "ShiftTrajectory",
    "odometer_advance",
    "level",
    "SimpleFunctionRep",
    "weak_norm",
    "strong_norm",
    "__version__",
]
