"""Cayley colour graphs and colour-preserving automorphism analysis.

A Cayley graph carries a natural edge colouring: the edge {g, gc} is coloured
by the inverse pair {c, c^-1}.  This package builds such graphs for small
table-backed groups, searches for their colour-preserving automorphisms, and
decides whether every one of them is affine (a left translation composed with
a group automorphism).  Graphs and groups where that holds are called CCA.
"""

from .perm import compose
from .groups import (
    FiniteGroup,
    are_isomorphic,
    automorphisms,
    closure,
    cyclic,
    default_cap,
    dihedral,
    direct_product,
    generalized_dicyclic,
    generalized_dihedral,
    inverse_classes,
    left_regular,
    quaternion,
    recognize_dicyclic,
    wreath_c2,
)
from .graphs import (
    Arc,
    CayleyColouredGraph,
    ColouredGraph,
    arcs,
    cayley_graph,
    complete_bipartite,
    complete_colour_graph,
    is_connected,
    line_graph,
    subdivision,
)
from .engine import (
    AffineDecomposition,
    AutGroupResult,
    Check,
    Verdict,
    VerdictKind,
    arc_lift_harness,
    colour_preserving_automorphisms,
    is_affine,
    is_cca_graph,
    is_cca_group,
    is_colour_preserving,
    is_complete_colour_pair,
    local_action,
    replay_witness,
)
from .labeling import ArcLabeling, arc_labeling, cayley_form, induced_vertex_map
from .bipartite import (
    DoubleDihedral,
    KnnActors,
    NormalForm,
    cyclic_dihedral_witness,
    double_dihedral,
    double_dihedral_witness,
    gamma,
    knn_actors,
)
from .errors import (
    CapExceededError,
    CcaError,
    InternalInconsistencyError,
    PipelineError,
    SpecElabError,
    SpecSyntaxError,
)

__version__ = "0.1.0"
