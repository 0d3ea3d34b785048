"""Exact arithmetic for toric Landau-Ginzburg models.

Laurent polynomial periods, mutations, toric mirrors and quantum-period
oracles, divisor-direction degenerations, and a machine-verified catalog
of models, all over exact rationals.

The public names below load their submodule on first use, so importing
the package loads no submodule.  A name is looked up in its submodule on
every access and never stored here, so the package always shows the
submodule's current binding.
"""

import sys
from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "catalog": ("CatalogEntry", "Check", "load_catalog", "verify_all", "verify_entry"),
    "degeneration": (
        "DegenerationResult",
        "DivisorOnFan",
        "direction_degeneration",
        "parameter_direction_limit",
        "parameter_limit",
        "restrict_model",
    ),
    "laurent": (
        "LaurentError",
        "LaurentPolynomial",
        "NewtonPolytopeData",
        "ParamPoly",
        "laurent_divide",
    ),
    "mutation": (
        "CoordStep",
        "MutationChain",
        "MutationData",
        "MutationStep",
        "NotMutableError",
        "SubstStep",
        "grade_by_weight",
        "invert_mutation",
        "mutate",
        "run_chain",
        "verify_chain",
    ),
    "parsing": ("ExpressionError", "parse"),
    "period": (
        "PeriodSeries",
        "period_coefficients",
        "period_distinct",
        "period_equal_up_to_shift",
        "shift_relation_check",
    ),
    "toric": (
        "ClassGroupData",
        "FanData",
        "MarkovTriple",
        "NefPartition",
        "RelationMonoidSlice",
        "ToricError",
        "ci_quantum_period",
        "class_group",
        "fibre_fan",
        "hori_vafa",
        "markov_mutate",
        "markov_solutions_up_to",
        "markov_tree",
        "relation_monoid",
        "toric_pair_model",
        "toric_quantum_period",
        "wpp_fan_polytope",
    ),
}

_MODULE_OF = {name: f"{__name__}.{module}" for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # a loaded module is read from sys.modules: import_module would add a
    # microsecond to every access
    return getattr(sys.modules.get(module) or import_module(module), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
