"""groupoidlab: exact computations on labeled graph groupoids.

Works in the groupoid of reduced edge words over a shadowed directed
multigraph labeled by out-degrees: draws the action trees of the
induced graph automaton, decides the fractaloid property, and computes
the diagonal-algebra valued free moments and cumulants of the labeling
operators, with a truncated sparse-operator model as a cross-check.

The package exports only its version; import the submodules
(``from groupoidlab import moments``) for everything else.
"""

__version__ = "0.1.0"
