"""Exact-arithmetic lifts from half-integral to integral weight.

The package computes, on Fourier expansions with rational or cyclotomic
coefficients, the family of index-t lifts taking forms of weight k + 1/2
to forms of weight 2k, together with the plus-space and vector-valued
machinery around them, a level predictor for the output, and independent
verification against classically constructed forms.

Entry points: the `shimura_*` functions for the lifts themselves,
`fixtures` for reference expansions, `verify` for exact and numeric
checks, and the `shimlift` console script.

`import shimlift` loads no submodule: each public name is imported from
the module that defines it on its first access.
"""

import importlib

# every public name -> the submodule that defines it
_EXPORTS = {
    "arith": ["split_square"],
    "characters": ["DirichletCharacter", "chi_t", "eta_char", "omega_chi"],
    "errors": ["HypothesisError", "PrecisionError", "SchemaError", "TailBoundError",
               "VerificationFailure"],
    "fixtures": ["fixture", "fixture_names"],
    "level": ["LevelVerdict", "predict_level"],
    "plusspace": ["epsilon_for", "is_plus_space", "lift_L", "lift_L_inverse", "project_plus",
                  "project_two"],
    "qseries": ["QExp", "add", "decompose_mod4", "filter_residues", "invert_unit", "mul",
                "qexp_from_json", "qexp_to_json", "rescale", "scale", "u_op"],
    "scalars": ["CycScalar", "kronecker", "partial_zeta_neg"],
    "shimura": ["CONSTANT_TERM_SIGN", "CharacterOrbit", "DiamondOrbit", "ExplicitOrbit",
                "corrected_combination", "diamond", "level_change_rhs", "shimura_S1",
                "shimura_St", "shimura_general"],
    "verify": ["eval_qexp", "level1_exact_check", "modularity_residual"],
    "weilrep": ["FqModule", "VVQExp", "weil_S", "weil_T", "weil_selftest", "weil_word"],
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    """Import the submodule that defines a public name on its first access;
    any other name, a submodule's included, is an AttributeError, so that
    `from shimlift import cli` falls through to the import system."""
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = getattr(importlib.import_module("." + module, __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
