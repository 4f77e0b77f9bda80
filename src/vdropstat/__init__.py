"""Distribution of the maximal voltage drop along a radial feeder.

Random per-bus loads (consumption minus injection) propagate through the
linearized branch-flow model; the package computes the exact law of the
worst drop seen along the line, cross-checked by Monte Carlo.

The package root exports only ``__version__``; import from the modules
(``feeder_model``, ``distflow``, ``mixed_dist``, ``dp_engine``,
``mc_oracle``, ``cli``).
"""

__version__ = "0.1.0"
