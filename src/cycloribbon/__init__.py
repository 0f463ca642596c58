"""Colored ribbon combinatorics, the Grothendieck rings of the colored
0-Hecke algebras, and an explicit structure-constant oracle validating
the combinatorial rules.

``hopf``, ``reptheory``, ``linalg`` and ``oracle`` are lazy modules:
they are in ``sys.modules`` and in this package from the start, but
each body runs on the first access to the module or to one of its
names exported here.  A process that never uses them, such as most CLI
commands, does not pay for them.  Every submodule a lazy module imports
is registered before any body runs, so a first use adds no name to the
package while something (a doctest finder, say) iterates over it.  The
first access takes no lock, so a threaded program should touch
``cycloribbon.oracle``, which loads them all, before it starts threads.
"""

from .ribbons import (
    ColoredComposition,
    ColoredPermutation,
    ColoredRibbon,
    anticycloribbon_to_colored_comp,
    colored_comp_to_anticycloribbon,
    colored_compositions,
    colored_descent_composition,
    composition_from_descents,
    descent_class_size,
    descent_set,
    enumerate_anticycloribbons,
    enumerate_cycloribbons,
    fillings_below,
    flip_ribbon,
    is_anticycloribbon,
    is_cycloribbon,
    max_inversion_perm,
    multipartitions,
    shifted_shuffle,
    sorting_covers,
)
from .lincomb import (
    LinComb,
    MR_R,
    MR_S,
    NCSF_R,
    QMR_F,
    SYM_H,
    TensorComb,
)

# the public names of each lazy module, read from it on first use
_LAZY_EXPORTS = {
    "hopf": ("anti_refinements", "cartan_map", "duality_pairing",
             "mr_coproduct", "mr_product_R", "mr_product_S", "mr_to_ncsf",
             "mr_to_sym", "multipartition_class", "qmr_coproduct_F",
             "qmr_product_F", "r_to_s", "s_to_r", "schur_in_h", "sym_to_qmr"),
    "reptheory": ("Character", "cartan_matrix", "decomposition_matrix",
                  "dim_projective", "induce_hecke_projective",
                  "induce_projectives", "induce_simples", "restrict_simple",
                  "ribbon_from_character", "simple_character", "simple_labels",
                  "projective_labels"),
    "oracle": ("AlgebraParams", "AlgebraElement", "ExplicitModule",
               "OracleError", "build_induced_module", "build_shape_module",
               "check_socle", "check_submodule_order", "composition_factors",
               "cross_check_induction", "enumerate_one_dim_characters",
               "left_mult_T", "left_mult_xi", "verify_relations"),
}
_OWNER = {name: module for module, names in _LAZY_EXPORTS.items()
          for name in names}


def _lazy_module(name: str):
    """Register the submodule ``name`` in ``sys.modules`` unexecuted."""
    import importlib.util
    import sys

    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


hopf = _lazy_module("hopf")
linalg = _lazy_module("linalg")
reptheory = _lazy_module("reptheory")
oracle = _lazy_module("oracle")


def __getattr__(name: str):
    if name in _OWNER:
        return getattr(globals()[_OWNER[name]], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# every public name and submodule; the star import loads them all
__all__ = sorted({*(name for name in globals() if not name.startswith("_")),
                  *_OWNER})

__version__ = "0.1.0"
