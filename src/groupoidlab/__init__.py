"""groupoidlab: exact computations on labeled graph groupoids.

Builds the groupoid of reduced edge words over a shadowed directed
multigraph, labels it by out-degrees, runs the induced graph automaton
(including the fractaloid test), and computes the diagonal-algebra
valued free moments and cumulants of the labeling operators, with a
truncated sparse-operator model as an independent cross-check.
"""

from .errors import BudgetExceededError
from .graphs import (
    DirectedGraph,
    Edge,
    GraphError,
    ShadowedGraph,
    SignedEdge,
    max_out_degree,
    shadow,
    validate_graph,
)
from .groupoid import (
    EMPTY,
    ReducedPath,
    Vertex,
    concat,
    diagram,
    diagram_distinct,
    enumerate_admissible_words,
    inverse,
    reduce_word,
)
from .labeling import (
    BalanceVector,
    LabeledGraph,
    WeightedElement,
    assign_weights,
    count_axis_paths,
    omega_plus,
    theta,
    weight,
)
from .automaton import GraphAutomaton, build_tree, is_fractaloid, tree_dot
from .ncpartitions import NoncrossingPartition, catalan, e_pi, enumerate_nc, leq, moebius
from .operators import (
    Basis,
    SparseOperator,
    build_basis,
    labeling_operator,
    oracle_expectation_power,
    right_mult,
    total_labeling_operator,
)
from .moments import (
    DiagonalElement,
    check_freeness,
    closed_form_cumulant,
    cumulant_direct,
    cumulant_via_wc,
    expectation_of_word,
    joint_cumulant,
    joint_moment,
    moment,
    moment_via_cumulants,
    mu_w,
    w_m_set,
)

__version__ = "0.1.0"
