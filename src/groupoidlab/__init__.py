"""groupoidlab: exact computations on labeled graph groupoids.

Builds the groupoid of reduced edge words over a shadowed directed
multigraph, labels it by out-degrees, runs the induced graph automaton
(including the fractaloid test), and computes the diagonal-algebra
valued free moments and cumulants of the labeling operators, with a
truncated sparse-operator model as an independent cross-check.

The package exports only its version; import the submodules
(``from groupoidlab import moments``) for everything else.
"""

__version__ = "0.1.0"
