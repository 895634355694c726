"""Exact computational algebra for grid-free hypersurfaces over finite fields.

Every submodule but `cli` is registered in sys.modules and on the package
at import, through importlib's LazyLoader: a module is compiled and run on
the first access to one of its attributes, so a command compiles only the
modules it runs.  The public names resolve through `__getattr__`.
"""

import sys
from importlib.util import LazyLoader, find_spec, module_from_spec

# Importer first: each module comes before the modules it imports names
# from.  A tracer that replaces a function in every module bound to it,
# visiting the modules in sys.modules order, loads each one as it reaches
# it.  Importer first, a module runs, and binds the original, before the
# defining module's binding is replaced, so its binding is replaced and
# restored too; the other way round it would bind the wrapper and keep it.
for _name in ("sweep", "cremona", "classify_s1", "curves", "gridcheck", "hypersurfaces", "poly",
              "projective", "ring", "fields", "extfields", "rationals", "primefields", "errors"):
    _spec = find_spec(f"{__name__}.{_name}")
    _spec.loader = LazyLoader(_spec.loader)
    sys.modules[_spec.name] = globals()[_name] = module_from_spec(_spec)
    _spec.loader.exec_module(globals()[_name])

_EXPORTS = {
    "fields": ("GF", "QQ"),
    "extfields": ("canonical_modulus", "norm", "pi_s"),
    "ring": ("BiHomPoly", "MultiPoly", "bihomogenize"),
    "projective": ("Hypersurface", "OpenSet", "ProjPoint"),
    "poly": ("exact_div", "gcd", "squarefree_part"),
    "hypersurfaces": ("construct", "norm_poly"),
    "gridcheck": ("BipartiteGraph", "build_graph", "edge_report", "find_grid",
                  "max_common_neighborhood"),
    "curves": ("PlaneCurve", "common_component_rank_test", "conic_classify",
               "intersection_multiplicity", "moura_max"),
    "classify_s1": ("s1_classify", "s1_reduce"),
    "cremona": ("RationalMap", "apply_map", "example_line_map", "grid_transport_check", "nagata",
                "standard_quadratic"),
}


def __getattr__(name):
    for module, names in _EXPORTS.items():
        if name in names:
            return getattr(globals()[module], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__version__ = "0.1.0"
