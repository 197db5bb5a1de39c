"""The package API: every advertised name resolves, and the top-level
`shimlift.__all__` is pinned, so a change to it is a deliberate edit here."""
from __future__ import annotations

import importlib
import pkgutil

import pytest

import shimlift

PUBLIC = [
    "CONSTANT_TERM_SIGN", "CharacterOrbit", "CycScalar", "DiamondOrbit", "DirichletCharacter",
    "ExplicitOrbit", "FqModule", "HypothesisError", "LevelVerdict", "PlusContext",
    "PrecisionError", "QExp", "SchemaError", "TailBoundError", "VVQExp", "VerificationFailure",
    "add", "chi_t", "corrected_combination", "decompose_mod4", "diamond", "epsilon_for",
    "eta_char", "eval_qexp", "filter_residues", "fixture", "fixture_names", "invert_unit",
    "is_plus_space", "kronecker", "level1_exact_check", "level_change_rhs", "lift_L",
    "lift_L_inverse", "make_character", "modularity_residual", "mul", "omega_chi",
    "partial_zeta_neg", "predict_level", "project_plus", "project_two", "qexp_from_json",
    "qexp_to_json", "rescale", "scale", "shimura_S1", "shimura_St", "shimura_general",
    "split_square", "u_op", "weil_S", "weil_T", "weil_selftest", "weil_word",
]

MODULES = sorted(m.name for m in pkgutil.iter_modules(shimlift.__path__))


def test_package_all_is_pinned():
    assert len(PUBLIC) == 55
    assert list(shimlift.__all__) == PUBLIC
    for name in PUBLIC:
        assert hasattr(shimlift, name), name


@pytest.mark.parametrize("module", MODULES)
def test_every_module_all_entry_resolves(module):
    mod = importlib.import_module("shimlift." + module)
    names = getattr(mod, "__all__", [])
    assert len(set(names)) == len(names), module
    missing = [name for name in names if not hasattr(mod, name)]
    assert not missing, (module, missing)
