"""The package API: every advertised name resolves, and the top-level
`shimlift.__all__` and the parameter names of its callables are pinned, so
a change to either is a deliberate edit here."""
from __future__ import annotations

import importlib
import inspect
import pkgutil

import pytest

import shimlift

PUBLIC = [
    "CONSTANT_TERM_SIGN", "CharacterOrbit", "CycScalar", "DiamondOrbit", "DirichletCharacter",
    "ExplicitOrbit", "FqModule", "HypothesisError", "LevelVerdict",
    "PrecisionError", "QExp", "SchemaError", "TailBoundError", "VVQExp", "VerificationFailure",
    "add", "chi_t", "corrected_combination", "decompose_mod4", "diamond", "epsilon_for",
    "eta_char", "eval_qexp", "filter_residues", "fixture", "fixture_names", "invert_unit",
    "is_plus_space", "kronecker", "level1_exact_check", "level_change_rhs", "lift_L",
    "lift_L_inverse", "modularity_residual", "mul", "omega_chi",
    "partial_zeta_neg", "predict_level", "project_plus", "project_two", "qexp_from_json",
    "qexp_to_json", "rescale", "scale", "shimura_S1", "shimura_St", "shimura_general",
    "split_square", "u_op", "weil_S", "weil_T", "weil_selftest", "weil_word",
]

MODULES = sorted(m.name for m in pkgutil.iter_modules(shimlift.__path__))


def test_package_all_is_pinned():
    assert len(PUBLIC) == 53
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


# Parameter names, self omitted, of every callable in __all__ and of every
# public method of its classes; None for an exception that keeps
# ValueError's constructor.
SIGNATURES = {
    "CharacterOrbit": "chi",
    "CharacterOrbit.twist": "f m",
    "CycScalar": "order terms", "CycScalar.from_rational": "r", "CycScalar.root_of_unity": "m e",
    "CycScalar.is_rational": "", "CycScalar.as_rational": "", "CycScalar.conjugate": "",
    "DiamondOrbit": "",
    "DiamondOrbit.twist": "f m", "DiamondOrbit.validate_for": "f N",
    "DirichletCharacter": "modulus values", "DirichletCharacter.trivial": "modulus",
    "DirichletCharacter.from_function": "modulus fn period",
    "DirichletCharacter.from_kronecker": "t modulus", "DirichletCharacter.parity": "",
    "DirichletCharacter.is_trivial": "", "ExplicitOrbit": "modulus table",
    "ExplicitOrbit.twist": "f m",
    "FqModule": "orders q_values signature_mod_8", "FqModule.elements": "",
    "FqModule.reduce": "gamma", "FqModule.add": "a b",
    "FqModule.neg": "a", "FqModule.q": "gamma", "FqModule.bilinear": "a b",
    "FqModule.direct_sum": "other", "FqModule.d1": "", "FqModule.d1_minus": "",
    "FqModule.d_b": "N", "FqModule.d1_n": "N", "HypothesisError": "obstruction detail case",
    "LevelVerdict": "case_tag p_J lcm_ns factor covered", "LevelVerdict.to_json": "",
    "PrecisionError": "detail required_lo required_hi",
    "QExp": "weight denom coeffs lo hi metadata",
    "QExp.from_numerators": "weight denom numerators cden lo hi metadata", "QExp.coeff": "a",
    "QExp.coeff_exponent": "x", "QExp.exponents": "", "QExp.support": "", "QExp.min_support": "",
    "QExp.is_zero": "", "QExp.truncate": "hi", "QExp.normalized": "", "QExp.agrees_with": "other",
    "SchemaError": None, "TailBoundError": None, "VVQExp": "module weight components",
    "VVQExp.component": "gamma", "VerificationFailure": "detail first_mismatch", "add": "f g",
    "chi_t": "t", "corrected_combination": "f N M k t s eps prec orbit", "decompose_mod4": "f",
    "diamond": "f orbit d", "epsilon_for": "k xi", "eta_char": "chi t eps", "eval_qexp": "f tau",
    "filter_residues": "f modulus allowed", "fixture": "name prec", "fixture_names": "",
    "invert_unit": "f", "is_plus_space": "f eps", "kronecker": "t d",
    "level1_exact_check": "f weight", "level_change_rhs": "f N M k t eps prec orbit",
    "lift_L": "f eps", "lift_L_inverse": "vv",
    "modularity_residual": "f weight level character samples terms tail_tol", "mul": "f g",
    "omega_chi": "chi", "partial_zeta_neg": "N d k",
    "predict_level": "N t s M plus_space_matching_eps psi_subspace_known", "project_plus": "f eps N",
    "project_two": "f N", "qexp_from_json": "obj", "qexp_to_json": "f", "rescale": "f t",
    "scale": "f c", "shimura_S1": "f N k prec orbit", "shimura_St": "f N k t eps prec orbit",
    "shimura_general": "f N k t s eps prec orbit", "split_square": "T", "u_op": "f s",
    "weil_S": "module", "weil_T": "module", "weil_selftest": "max_n words seed",
    "weil_word": "module word",
}


def _parameters(obj):
    try:
        return " ".join(p for p in inspect.signature(obj).parameters if p != "self")
    except ValueError:
        return None


def test_public_signatures_are_pinned():
    got = {}
    for name in PUBLIC:
        obj = getattr(shimlift, name)
        if not callable(obj):
            continue
        got[name] = _parameters(obj)
        if inspect.isclass(obj):
            for attr in vars(obj):
                if not attr.startswith("_") and callable(getattr(obj, attr)):
                    got[name + "." + attr] = _parameters(getattr(obj, attr))
    assert got == SIGNATURES


def test_result_records_are_immutable_values():
    # LevelVerdict and ResidualReport are plain classes, not dataclasses:
    # they keep value semantics, but never equal a tuple of their fields
    import copy
    import pickle

    from shimlift.verify import ResidualReport

    verdict = shimlift.LevelVerdict("i", 1, 1, 1, True)
    twin = shimlift.LevelVerdict("i", 1, 1, 1, True)
    assert repr(verdict) == "LevelVerdict(case_tag='i', p_J=1, lcm_ns=1, factor=1, covered=True)"
    assert verdict == twin and hash(verdict) == hash(twin)
    assert verdict != shimlift.LevelVerdict("i", 1, 1, 2, True)
    assert verdict != ("i", 1, 1, 1, True) and ("i", 1, 1, 1, True) != verdict
    with pytest.raises(AttributeError):
        verdict.covered = False
    with pytest.raises(AttributeError):
        del verdict.p_J
    assert copy.copy(verdict) == pickle.loads(pickle.dumps(verdict)) == verdict

    report = ResidualReport(((1, 1, 0, 1),), (0.5j,), 1e-15, 10, 1e-20, residuals=(1e-15,))
    assert repr(report) == ("ResidualReport(matrices=((1, 1, 0, 1),), points=(0.5j,), "
                            "max_residual=1e-15, truncation=10, tail_bound=1e-20)")
    assert report.residuals == (1e-15,) and ResidualReport((), (), 0.0, 0, 0.0).residuals == ()
    assert report == ResidualReport(((1, 1, 0, 1),), (0.5j,), 1e-15, 10, 1e-20, (1e-15,))
    assert report != ResidualReport(((1, 1, 0, 1),), (0.5j,), 1e-15, 10, 1e-20)
    with pytest.raises(AttributeError):
        report.max_residual = 0.0
