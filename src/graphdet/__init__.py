"""Exact graph-algebra determinants and matrix-tree identity verification."""

from .graphs import (
    CapExceeded,
    DirectedGraph,
    GraphClassification,
    GraphFormatError,
    UndirectedGraph,
    beta0,
    beta1,
    classify,
    enumerate_graphs,
    enumerate_undirected,
    forget,
    format_graph,
    orientations,
    parse_graph,
)
from .algebra import (
    FormalSum,
    GradedElement,
    SymmetricSum,
    concat_product,
    enumerate_class,
    forget_sum,
    format_formal_sum,
    pairing,
    parse_formal_sum,
    theta,
    u_sum,
    universal_codim1,
    universal_det,
    x_sum,
)
from .laplace import b_op, laplace
from .poly import (
    MultiPoly,
    Variable,
    WeightMatrix,
    determinant,
    laplace_matrix,
    minor,
    w,
)
from .potts import count_orientations, shave, tutte, universal_potts

__version__ = "0.1.0"
