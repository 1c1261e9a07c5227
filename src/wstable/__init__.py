"""Weighted-stable monomial ideals.

Exact computations with monomial ideals that are stable under weighted
Borel moves: closures and weighted Borel generators, truncation trees,
weighted Catalan diagrams, Stanley decompositions, Hilbert and Poincare
series, Betti numbers, and the cone of weight vectors realizing a strongly
stable ideal as a principal closure.

Importing the package loads none of its modules: each public name is
imported from its home module on first use (PEP 562), so ``wstable <cmd>``
pays only for the modules its subcommand needs.  ``from wstable import *``
loads them all.
"""

from importlib import import_module

__version__ = "0.1.0"

# home module -> the public names it defines
_EXPORTS = {
    "catalan": ("CatalanDiagram", "catalan_diagram", "generator_stats"),
    "closure": ("NotWStableError", "is_w_stable", "trunc_ideal", "w_borel_gens", "w_closure"),
    "cone": ("Cone", "ConstraintSystem", "HalfSpace", "cone_rays", "constraint_system",
             "open_region_is_empty", "principal_weight_vector"),
    "ideals": ("MonomialIdeal", "minimalize"),
    "monomials": ("DimensionMismatch", "Monomial", "WeightVector", "factored_indices",
                  "max_index", "meet_w", "psi", "psi_inverse", "truncate", "w_borel_below",
                  "weighted_degree"),
    "parsing": ("IdealExpression", "ParseError", "format_ideal", "format_monomial",
                "parse_ideal", "parse_monomial", "parse_weights"),
    "series": ("HilbertSeries", "PoincarePolynomial", "StanleyDecomposition", "betti_numbers",
               "format_betti_table", "hilbert_series", "poincare_series",
               "stanley_decomposition"),
    "trees": ("TruncationTree", "iter_tree_sinks", "tree_from_ideal", "tree_from_monomial"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name in _EXPORTS:  # a submodule, which its import binds here
        return import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
