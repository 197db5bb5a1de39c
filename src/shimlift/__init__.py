"""Exact-arithmetic lifts from half-integral to integral weight.

The package computes, on Fourier expansions with rational or cyclotomic
coefficients, the family of index-t lifts taking forms of weight k + 1/2
to forms of weight 2k, together with the plus-space and vector-valued
machinery around them, a level predictor for the output, and independent
verification against classically constructed forms.

Entry points: the `shimura_*` functions for the lifts themselves,
`fixtures` for reference expansions, `verify` for exact and numeric
checks, and the `shimlift` console script.
"""

from .characters import DirichletCharacter, chi_t, eta_char, omega_chi
from .errors import (
    HypothesisError,
    PrecisionError,
    SchemaError,
    TailBoundError,
    VerificationFailure,
)
from .fixtures import fixture, fixture_names
from .plusspace import (
    epsilon_for,
    is_plus_space,
    lift_L,
    lift_L_inverse,
    project_plus,
    project_two,
)
from .qseries import (
    QExp,
    add,
    decompose_mod4,
    filter_residues,
    invert_unit,
    mul,
    qexp_from_json,
    qexp_to_json,
    rescale,
    scale,
    u_op,
)
from .scalars import CycScalar, kronecker, partial_zeta_neg
from .shimura import (
    CONSTANT_TERM_SIGN,
    CharacterOrbit,
    DiamondOrbit,
    ExplicitOrbit,
    LevelVerdict,
    corrected_combination,
    diamond,
    level_change_rhs,
    predict_level,
    shimura_S1,
    shimura_St,
    shimura_general,
    split_square,
)
from .verify import eval_qexp, level1_exact_check, modularity_residual
from .weilrep import FqModule, VVQExp, weil_S, weil_T, weil_selftest, weil_word

__version__ = "0.1.0"

__all__ = [
    "CONSTANT_TERM_SIGN",
    "CharacterOrbit",
    "CycScalar",
    "DiamondOrbit",
    "DirichletCharacter",
    "ExplicitOrbit",
    "FqModule",
    "HypothesisError",
    "LevelVerdict",
    "PrecisionError",
    "QExp",
    "SchemaError",
    "TailBoundError",
    "VVQExp",
    "VerificationFailure",
    "add",
    "chi_t",
    "corrected_combination",
    "decompose_mod4",
    "diamond",
    "epsilon_for",
    "eta_char",
    "eval_qexp",
    "filter_residues",
    "fixture",
    "fixture_names",
    "invert_unit",
    "is_plus_space",
    "kronecker",
    "level1_exact_check",
    "level_change_rhs",
    "lift_L",
    "lift_L_inverse",
    "modularity_residual",
    "mul",
    "omega_chi",
    "partial_zeta_neg",
    "predict_level",
    "project_plus",
    "project_two",
    "qexp_from_json",
    "qexp_to_json",
    "rescale",
    "scale",
    "shimura_S1",
    "shimura_St",
    "shimura_general",
    "split_square",
    "u_op",
    "weil_S",
    "weil_T",
    "weil_selftest",
    "weil_word",
]
