"""Finite-level tools for tree semigroupoid algebras.

The package decides when a tower of digraph algebras presents a tensor
algebra of a tree, classifies tree-refinement limit algebras up to
ampliation, and reports on the partial-isometry relations of graph
correspondences.

The names below are the ones the README documents; everything else is
imported from its module, for example
``from treealg.algebra import DigraphAlgebra``.
"""

from .ampliation import TreeRefinementSpec, ampliate, build_tree_refinement_tower
from .classify import classify_tree_refinement
from .correspondence import check_neat_inequality, module_norm, verify_ckt
from .graphs import DirectedGraph, OutForest
from .tower import Verdict, decide_tensor

__all__ = [
    "DirectedGraph",
    "OutForest",
    "ampliate",
    "decide_tensor",
    "Verdict",
    "TreeRefinementSpec",
    "build_tree_refinement_tower",
    "classify_tree_refinement",
    "verify_ckt",
    "module_norm",
    "check_neat_inequality",
]

__version__ = "0.1.0"
