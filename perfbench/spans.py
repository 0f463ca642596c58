"""Spans and counters recorded from outside the package.

The package imports names directly (``from .linalg import rref``), so a
wrapper only sees the calls that look the name up where it is installed.
:meth:`Tracer.install` therefore replaces every binding of a target
function in every loaded ``cycloribbon`` module, and patches methods on
their class.

Spans are aggregated as they close: per name, the number of calls, the
total time and the self time (own duration minus the time of the child
spans opened inside it).  Nothing is kept per call, because the oracle
makes hundreds of thousands of ``left_mult_T`` calls per pass.
"""

from __future__ import annotations

import sys
import time

# name -> how the wrapper's result feeds the extra counter of that span
SPAN_FUNCTIONS = {
    "ribbons.shifted_shuffle": len,              # words generated
    "ribbons.enumerate_cycloribbons": None,
    "hopf.cartan_map": None,
    "hopf.sym_to_qmr": None,
    "hopf.qmr_product_F": None,
    "hopf.mr_product_R": None,
    "hopf.mr_coproduct": None,
    "reptheory.cartan_matrix": None,
    "reptheory.decomposition_matrix": None,
    "reptheory.induce_simples": None,
    "reptheory.dim_projective": None,
    "linalg.kernel_basis": bool,                 # nonempty kernels
    "linalg.rref": None,
    "linalg.reduce_mod_rref": None,
    "oracle.composition_factors": None,
    "oracle.enumerate_one_dim_characters": None,
    "oracle.left_mult_T": None,
    "oracle.left_mult_xi": None,
    "oracle.build_induced_module": None,
    "oracle.verify_relations": None,
    "oracle.module_relations_ok": None,
}
SPAN_METHODS = {
    "linalg.SparseEchelon.insert": lambda idx: idx is not None,  # accepted rows
    "linalg.SparseEchelon.coordinates": None,
}


def package_modules() -> dict:
    return {name: mod for name, mod in sys.modules.items()
            if mod is not None and (name == "cycloribbon"
                                    or name.startswith("cycloribbon."))}


def package_caches() -> dict:
    """Every ``lru_cache`` defined in the loaded package modules, by
    qualified name.  Call it before :meth:`Tracer.install`, which hides
    the cached functions behind wrappers."""
    out = {}
    for mod in package_modules().values():
        for obj in vars(mod).values():
            if callable(getattr(obj, "cache_info", None)) and \
                    getattr(obj, "__module__", "").startswith("cycloribbon"):
                short = obj.__module__.rsplit(".", 1)[-1]
                out[f"{short}.{obj.__qualname__}"] = obj
    return dict(sorted(out.items()))


def cache_infos(caches: dict) -> dict:
    return {name: fn.cache_info()._asdict() for name, fn in caches.items()}


class Tracer:
    def __init__(self):
        self._stack = []       # child time accumulated per open span
        self.stats = {}        # name -> [calls, total_s, self_s, extra]
        self.lincomb = [0, 0]  # constructions, input terms

    def _wrap(self, name, fn, extra):
        stack = self._stack
        rec = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dur
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - child
            if extra is not None:
                rec[3] += extra(out)
            return out

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        return wrapper

    def install(self) -> None:
        modules = package_modules()
        for name, extra in SPAN_FUNCTIONS.items():
            mod_name, attr = name.split(".")
            original = getattr(modules["cycloribbon." + mod_name], attr)
            wrapper = self._wrap(name, original, extra)
            for mod in modules.values():
                for key, val in list(vars(mod).items()):
                    if val is original:
                        setattr(mod, key, wrapper)
        for name, extra in SPAN_METHODS.items():
            mod_name, cls_name, attr = name.split(".")
            cls = getattr(modules["cycloribbon." + mod_name], cls_name)
            setattr(cls, attr, self._wrap(name, getattr(cls, attr), extra))

        lincomb_cls = modules["cycloribbon.lincomb"].LinComb
        original_init = lincomb_cls.__init__
        counts = self.lincomb

        def init(self, basis, terms=()):
            if not hasattr(terms, "items"):
                terms = list(terms)
            counts[0] += 1
            counts[1] += len(terms)
            original_init(self, basis, terms)

        lincomb_cls.__init__ = init

    def report(self) -> dict:
        return {"spans": {k: list(v) for k, v in self.stats.items()},
                "lincomb": list(self.lincomb)}
