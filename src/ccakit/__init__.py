"""Cayley colour graphs and colour-preserving automorphism analysis.

A Cayley graph carries a natural edge colouring: the edge {g, gc} is coloured
by the inverse pair {c, c^-1}.  This package builds such graphs for small
table-backed groups, searches for their colour-preserving automorphisms, and
decides whether every one of them is affine (a left translation composed with
a group automorphism).  Graphs and groups where that holds are called CCA.

Importing the package runs none of its layers.  Each layer module is put in
``sys.modules`` (and on the package) through ``importlib.util.LazyLoader``:
its code is compiled and run on the first access to one of its attributes,
so a CLI process runs only the layers its command reaches.  The re-exported
names below resolve through the module that defines them, on first use.
``cli`` is not registered, so ``python -m ccakit.cli`` runs it only once.
"""

import sys
from importlib.util import LazyLoader, find_spec, module_from_spec

__version__ = "0.1.0"

_LAYERS = ("errors", "perm", "kernels", "groups", "graphs", "labeling",
           "engine", "bipartite", "speclang", "report")

for _layer in _LAYERS:
    _spec = find_spec(f"{__name__}.{_layer}")
    _spec.loader = LazyLoader(_spec.loader)
    _module = module_from_spec(_spec)
    sys.modules[_spec.name] = _module
    _spec.loader.exec_module(_module)
    globals()[_layer] = _module
del _layer, _spec, _module

# public name -> the layer module that defines it
_EXPORTS = {name: layer for layer, names in (
    ("perm", ("compose",)),
    ("groups", ("FiniteGroup", "are_isomorphic", "automorphisms", "closure",
                "cyclic", "default_cap", "dihedral", "direct_product",
                "generalized_dicyclic", "generalized_dihedral",
                "inverse_classes", "left_regular", "quaternion",
                "recognize_dicyclic", "wreath_c2")),
    ("graphs", ("Arc", "CayleyColouredGraph", "ColouredGraph", "arcs",
                "cayley_graph", "complete_bipartite", "complete_colour_graph",
                "is_connected", "line_graph", "subdivision")),
    ("engine", ("AffineDecomposition", "AutGroupResult", "Check", "Verdict",
                "VerdictKind", "arc_lift_harness",
                "colour_preserving_automorphisms", "is_affine",
                "is_cca_graph", "is_cca_group", "is_colour_preserving",
                "is_complete_colour_pair", "local_action", "replay_witness")),
    ("labeling", ("ArcLabeling", "arc_labeling", "cayley_form",
                  "induced_vertex_map")),
    ("bipartite", ("DoubleDihedral", "KnnActors", "NormalForm",
                   "cyclic_dihedral_witness", "double_dihedral",
                   "double_dihedral_witness", "gamma", "knn_actors")),
    ("errors", ("CapExceededError", "CcaError", "InternalInconsistencyError",
                "PipelineError", "SpecElabError", "SpecSyntaxError")),
) for name in names}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    layer = _EXPORTS.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[layer], name)


def __dir__():
    return sorted({*globals(), *_EXPORTS})
