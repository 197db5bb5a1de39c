"""Command line entry point.

Subcommands: lift, project, level-predict, verify, weil-selftest, fixtures.
Exit codes are a stable contract: 0 success, 1 a verification ran and
failed, 2 invalid input or a violated theorem hypothesis (the payload names
it), 3 precision shortfall (the payload carries the required window), 141
(128 + SIGPIPE) stdout closed by its reader before the output was written,
with nothing on stderr.  A stdout that takes no output for another reason
(a full device) exits 2 with the error on stderr.

With --json all output is a single deterministic JSON object on stdout
(sorted keys, no whitespace), suitable for byte-exact round trips.

Each subcommand imports the modules it calls when it runs, so a call loads
only what its own branch uses: `level-predict` loads `level` and `arith`,
`fixtures --reemit` only `qseries` and what `qseries` needs,
`weil-selftest` `weilrep` and `scalars` but no series code, a `project`
refused at its level (4 does not divide --N) only `plusspace`, and a call
that forms no product (a numeric `verify` of theta, a lift refused by its
gate) never loads the convolution backend `_intpoly`.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from typing import TYPE_CHECKING

from .errors import (
    HypothesisError,
    PrecisionError,
    SchemaError,
    TailBoundError,
    VerificationFailure,
    check_budget,
)

if TYPE_CHECKING:
    from .qseries import QExp

__all__ = ["main"]

# the exit status of a call whose reader closed stdout, as a shell reports
# a process that SIGPIPE ended
EXIT_CLOSED_STDOUT = 128 + 13


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _emit(args, payload: dict, human) -> None:
    """The payload under --json, else the text `human`: a string, or a
    function that builds it, called only then."""
    if getattr(args, "json", False):
        print(_dump(payload))
    else:
        print(human() if callable(human) else human)


def _read_json_source(path: str):
    """The JSON document at path (- for stdin), or SchemaError."""
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path) as fh:
            return json.load(fh)
    except (ValueError, RecursionError) as e:
        raise SchemaError("input is not JSON: %s" % e) from None


def _load_series(args, needed_hi: int | None = None) -> QExp:
    """The --input or --fixture series; a fixture is built to needed_hi,
    which the lift has checked against the budget, or to --prec.  For the
    lift the fixtures of `fixtures._READ_SETS` load as their formula
    source (`fixtures._CohenReadSet`), which answers c(t s^2 m^2) without
    building the window."""
    if getattr(args, "fixture", None):
        from . import fixtures

        if needed_hi is None:
            needed_hi = args.prec
            check_budget(needed_hi, "the --fixture window --prec")
        elif args.fixture in fixtures._READ_SETS:
            k = fixtures.FIXTURES[args.fixture][1]["k"]
            return fixtures._CohenReadSet(k, needed_hi, fixtures._READ_SETS[args.fixture])
        return fixtures.fixture(args.fixture, needed_hi)
    if getattr(args, "input", None):
        from .qseries import qexp_from_json

        doc = _read_json_source(args.input)
        if isinstance(doc, dict):
            for wrapper in ("lift", "projection"):
                if wrapper in doc and "coefficients" not in doc:
                    doc = doc[wrapper]
                    break
        return qexp_from_json(doc)
    raise SchemaError("need --input PATH or --fixture NAME")


def _resolve(args, field: str, default=None):
    v = getattr(args, field, None)
    if v is not None:
        return v
    if getattr(args, "fixture", None):
        from .fixtures import fixture_defaults

        meta = fixture_defaults(args.fixture)
        if field in meta:
            return meta[field]
    return default


def _parse_character(spec: str | None, modulus: int):
    if spec is None or spec == "trivial":
        return None
    if spec.startswith("kronecker:"):
        from .characters import DirichletCharacter

        text = spec.split(":", 1)[1]
        try:
            t = int(text)
        except ValueError:
            raise SchemaError("--character kronecker:t needs an integer t, got %r" % text) from None
        check_budget(modulus, "the modulus of --character kronecker:t")
        try:
            return DirichletCharacter.from_kronecker(t, modulus)
        except ValueError as exc:
            raise SchemaError("--character kronecker:%d at modulus %d: %s" % (t, modulus, exc)) from None
    if spec.startswith("json:"):
        from .characters import character_from_json

        return character_from_json(_read_json_source(spec.split(":", 1)[1]))
    raise SchemaError(
        "character spec %r; use trivial, kronecker:t, or json:PATH" % spec
    )


def _series_human(f: QExp, limit: int = 12) -> str:
    names = []
    shown = 0
    for a in f.support():
        if shown >= limit:
            names.append("...")
            break
        e = "q^%d" % a if f.denom == 1 else "q^(%d/%d)" % (a, f.denom)
        names.append("%s: %s" % (e, f.coeff(a)))
        shown += 1
    if not names:
        names = ["0"]
    return "window [%d, %d)/%d, weight %s\n  " % (f.lo, f.hi, f.denom, f.weight) + "\n  ".join(names)


def _check_at_least(least: int, *flags: tuple[str, int]) -> None:
    """SchemaError naming the first (flag, value) pair below `least` (0 or 1)."""
    for flag, value in flags:
        if value < least:
            kind = "positive" if least else "nonnegative"
            raise SchemaError("%s must be a %s integer, got %d" % (flag, kind, value))


def _cmd_lift(args) -> int:
    from .level import predict_level
    from .qseries import qexp_to_json
    from .shimura import CharacterOrbit, _check_args, matches_plus_space, shimura_general, shimura_St

    N = _resolve(args, "N", 1)
    _check_at_least(1, ("--t", args.t), ("--s", args.s), ("--M", args.M), ("--N", N))
    level = args.M * N
    T = args.t * args.s * args.s
    needed_hi = T * args.prec * args.prec + 1
    # before the character table is built and before any series is built
    check_budget(4 * level * T, "the constant-term modulus 4 M N t s^2 of --M, --N, --t and --s")
    if args.fixture:
        check_budget(needed_hi, "the --fixture window t s^2 prec^2 + 1 of --t, --s and --prec")
    # an --input window is not budgeted, but the lift's output always is
    check_budget(args.prec + 1, "the lift's length prec + 1 of --prec")
    chi = _parse_character(args.character, level)
    orbit = CharacterOrbit(chi) if chi is not None else None
    k = _resolve(args, "k")
    if k is None:
        raise SchemaError("weight parameter k is not fixed by the input; pass --k")
    eps = _resolve(args, "eps", 1)
    # the lift's own argument check, before any series is built or read
    _check_args(level, k, args.prec, eps, args.t, args.s)
    f = _load_series(args, needed_hi)
    if 2 * f.weight != 2 * k + 1:
        raise SchemaError("the input has weight %s, but --k %d asks for weight %d/2" % (f.weight, k, 2 * k + 1))
    if args.extended or args.s > 1:
        out = shimura_general(f, level, k, args.t, args.s, eps, args.prec, orbit)
    else:
        out = shimura_St(f, level, k, args.t, eps, args.prec, orbit)
    verdict = predict_level(
        N, args.t, args.s, args.M,
        plus_space_matching_eps=matches_plus_space(f, T, eps),
        psi_subspace_known=args.psi_known,
    )
    payload = {"lift": qexp_to_json(out), "verdict": verdict.to_json()}
    _emit(args, payload,
          lambda: "case (%s), level %s\n%s" % (verdict.case_tag, verdict.level, _series_human(out)))
    return 0


def _cmd_project(args) -> int:
    from .plusspace import _require_4n, epsilon_for, project_plus, project_two

    _check_at_least(0, ("--prec", args.prec))
    _check_at_least(1, ("--N", args.N))
    # before any series is built or read, or its code compiled
    _require_4n(args.N, "mod-two projection" if args.two else "plus projection")
    from .qseries import qexp_to_json

    f = _load_series(args)
    if args.xi is not None:
        k = _resolve(args, "k")
        if k is None:
            raise SchemaError("pass --k (not fixed by the input)")
        eps = epsilon_for(k, args.xi)
    else:
        eps = _resolve(args, "eps", 1)
    out = project_two(f, args.N) if args.two else project_plus(f, eps, args.N)
    _emit(args, {"projection": qexp_to_json(out)}, lambda: _series_human(out))
    return 0


def _cmd_level_predict(args) -> int:
    from .level import predict_level

    # trial division tries about sqrt(n) / 2 divisors of n
    check_budget(math.isqrt(max(args.t, 0)) // 2, "the trial division of --t")
    check_budget(math.isqrt(max(args.M, 0)) // 2, "the trial division of --M")
    verdict = predict_level(
        args.N, args.t, args.s, args.M,
        plus_space_matching_eps=args.plus,
        psi_subspace_known=args.psi_known,
    )
    if verdict.covered:
        human = "case (%s): level %d%s" % (
            verdict.case_tag,
            verdict.level,
            " (corrected combination)" if verdict.needs_correction else "",
        )
    else:
        human = "case (%s): not covered without a known psi-subspace" % verdict.case_tag
    _emit(args, {"verdict": verdict.to_json()}, human)
    return 0


def _cmd_verify(args) -> int:
    from .scalars import rational_from_str, scalar_to_json
    from .verify import _level1_dim, level1_exact_check, modularity_residual

    _check_at_least(0, ("--prec", args.prec))
    _check_at_least(1, ("--level", args.level), ("--terms", args.terms))
    try:
        weight = rational_from_str(args.weight)
    except SchemaError:
        raise SchemaError("--weight must be a rational like 4 or 5/2, got %r" % args.weight) from None
    if args.mode == "exact":
        if weight.denominator != 1:
            raise SchemaError("exact mode decomposes integral weights only")
    elif weight.denominator not in (1, 2):
        raise SchemaError("--weight must be integral or half-integral, got %r" % args.weight)
    elif weight.denominator == 2 and args.level % 4:
        raise SchemaError("--level must be a multiple of 4 for a half-integral --weight, got %d" % args.level)
    elif not 0 < args.tol < math.inf:  # refuses nan too
        raise SchemaError("--tol must be a positive finite number, got %s" % args.tol)
    if args.mode == "exact":
        w = int(weight)
        # about 3 dim(M_w) products on the window, of coefficients that grow
        # with dim; odd and negative weights are refused before any product
        dim = _level1_dim(w)
        what = "the exact check dim(M_w)^2 x window of --weight"
        if getattr(args, "fixture", None):
            check_budget(args.prec, "the --fixture window --prec")
            check_budget(dim * dim * args.prec, what)
    f = _load_series(args)
    if args.mode == "exact":
        check_budget(dim * dim * f.hi, what)
        try:
            dec = level1_exact_check(f, w)
        except VerificationFailure as e:
            payload = {"passed": False, "reason": str(e)}
            if e.first_mismatch is not None:
                n, got, want = e.first_mismatch
                payload["first_mismatch"] = {
                    "exponent": n,
                    "combination": scalar_to_json(got),
                    "input": scalar_to_json(want),
                }
            _emit(args, payload, "FAIL: %s" % e)
            return 1
        terms = sorted(((a, b), scalar_to_json(c)) for (a, b), c in dec.items())
        payload = {"passed": True, "decomposition": [[list(m), c] for m, c in terms]}
        human = "exact decomposition: " + (
            " + ".join("%s * E4^%d E6^%d" % (c, m[0], m[1]) for m, c in terms) or "0"
        )
        _emit(args, payload, human)
        return 0
    chi = _parse_character(args.character, args.level)
    report = modularity_residual(
        f, weight, args.level, chi, terms=args.terms, tail_tol=args.tol
    )
    ok = report.max_residual < args.tol
    payload = {"passed": ok, "report": report.to_json()}
    human = "max residual %.3g over %d samples (threshold %g): %s" % (
        report.max_residual,
        len(report.residuals),
        args.tol,
        "ok" if ok else "FAIL",
    )
    _emit(args, payload, human)
    return 0 if ok else 1


def _cmd_weil_selftest(args) -> int:
    _check_at_least(0, ("--words", args.words), ("--max-n", args.max_n))
    # the largest module, d1_n(max_n), has n = 2 max_n^2 elements, and its
    # relation checks hold the bytes of seven n x n complex matrices at
    # once: S, T, the real identity and pairing table (half each) and up
    # to four products (7.04 n^2 complex entries under tracemalloc at n = 512)
    check_budget(7 * (2 * args.max_n ** 2) ** 2, "the 7 (2 max_n^2)^2 Weil matrix entries held at once of --max-n")
    check_budget(args.words, "the word count --words")
    from .weilrep import weil_selftest

    report = weil_selftest(max_n=args.max_n, words=args.words)
    report = {k: (v.item() if hasattr(v, "item") else v) for k, v in report.items()}
    _emit(args, report, "weil selftest ok: %r" % (report,))
    return 0


def _cmd_fixtures(args) -> int:
    _check_at_least(0, ("--prec", args.prec))
    if args.list:
        from .fixtures import fixture_names

        _emit(args, {"fixtures": fixture_names()}, "\n".join(fixture_names()))
        return 0
    from .qseries import qexp_from_json, qexp_to_json

    if args.reemit:
        f = qexp_from_json(_read_json_source(args.reemit))
        print(_dump(qexp_to_json(f)))
        return 0
    if not args.name:
        raise SchemaError("need --name, --list, or --reemit")
    check_budget(args.prec, "the fixture window --prec")
    from .fixtures import fixture

    f = fixture(args.name, args.prec)
    if args.json:
        print(_dump(qexp_to_json(f)))
    else:
        print(_series_human(f))
    return 0


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it
    unchanged, and building it costs more than most requests."""
    p = argparse.ArgumentParser(prog="shimlift", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    def add_io(sp, default_prec=200):
        sp.add_argument("--input", help="q-expansion JSON (path or - for stdin)")
        sp.add_argument("--fixture", help="named fixture instead of --input")
        sp.add_argument("--prec", type=int, default=default_prec,
                        help="fixture window / output precision")
        sp.add_argument("--json", action="store_true", help="machine output")

    sp = sub.add_parser("lift", help="apply the half-integral to integral weight lift")
    add_io(sp, default_prec=50)
    sp.add_argument("--N", type=int, default=None, help="level parameter (fixture default, else 1)")
    sp.add_argument("--k", type=int, default=None, help="integral part of the input weight k + 1/2")
    sp.add_argument("--t", type=int, default=1, help="square-free part of the lift index")
    sp.add_argument("--s", type=int, default=1, help="square part: full index is t s^2")
    sp.add_argument("--M", type=int, default=1, help="push the input up to level M N first")
    sp.add_argument("--epsilon", dest="eps", type=int, choices=(1, -1), default=None)
    sp.add_argument("--character", help="trivial | kronecker:t | json:PATH")
    sp.add_argument("--extended", action="store_true",
                    help="use the everywhere-defined index formula, skipping hypothesis gates")
    sp.add_argument("--psi-known", action="store_true", dest="psi_known",
                    help="assert the input sits in a single psi-eigenspace (level case viii)")
    sp.set_defaults(func=_cmd_lift)

    sp = sub.add_parser("project", help="plus-space / mod-two coefficient projection")
    add_io(sp)
    sp.add_argument("--N", type=int, default=4)
    sp.add_argument("--k", type=int, default=None,
                    help="integral part of the input weight; read only with --xi, to derive "
                         "eps = (-1)^k xi; without --xi it has no effect")
    sp.add_argument("--xi", type=int, choices=(1, -1), default=None)
    sp.add_argument("--epsilon", dest="eps", type=int, choices=(1, -1), default=None)
    sp.add_argument("--two", action="store_true", help="project onto residues {0,2} instead")
    sp.set_defaults(func=_cmd_project)

    sp = sub.add_parser("level-predict", help="predicted level of a lift")
    sp.add_argument("--N", type=int, required=True)
    sp.add_argument("--t", type=int, default=1)
    sp.add_argument("--s", type=int, default=1)
    sp.add_argument("--M", type=int, default=1)
    sp.add_argument("--plus", action="store_true",
                    help="input is plus-space with matching epsilon")
    sp.add_argument("--psi-known", action="store_true", dest="psi_known")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=_cmd_level_predict)

    sp = sub.add_parser("verify", help="exact or numeric modularity check")
    add_io(sp, default_prec=260)
    sp.add_argument("--weight", required=True, help="e.g. 4 or 5/2")
    sp.add_argument("--level", type=int, default=1)
    sp.add_argument("--character", help="trivial | kronecker:t | json:PATH")
    sp.add_argument("--mode", choices=("exact", "numeric"), default="numeric")
    sp.add_argument("--tol", type=float, default=1e-6,
                    help="numeric mode's residual threshold, a positive finite number")
    sp.add_argument("--terms", type=int, default=200)
    sp.set_defaults(func=_cmd_verify)

    sp = sub.add_parser("weil-selftest", help="representation relation suite")
    sp.add_argument("--max-n", type=int, default=12, dest="max_n")
    sp.add_argument("--words", type=int, default=100)
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=_cmd_weil_selftest)

    sp = sub.add_parser("fixtures", help="emit reference expansions")
    sp.add_argument("--name", help="fixture name")
    sp.add_argument("--prec", type=int, default=50)
    sp.add_argument("--list", action="store_true")
    sp.add_argument("--reemit", help="re-emit a q-expansion JSON canonically (path or -)")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=_cmd_fixtures)
    return p


def _error_payload(e: Exception) -> dict:
    payload = {"error": type(e).__name__, "message": str(e)}
    if isinstance(e, HypothesisError):
        payload["obstruction"] = e.obstruction
        if e.case:
            payload["case"] = e.case
    if isinstance(e, PrecisionError):
        payload["required_window"] = list(e.required_window)
    return payload


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        try:
            code = args.func(args)
        except BrokenPipeError:
            raise
        except (ValueError, OSError) as e:
            code = _report(args, e)
        # a reader that has closed stdout is seen here, not at exit
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # stdout is a closed pipe: nothing more can reach the reader, and
        # the flush at exit goes to the null device, so the exit is quiet
        _stdout_to_devnull()
        return EXIT_CLOSED_STDOUT
    except OSError as e:
        # stdout takes no more output (a full device, say): the error goes
        # to stderr, what is left for stdout to the null device
        _stdout_to_devnull()
        print("error: %s" % e, file=sys.stderr)
        return 2


def _stdout_to_devnull() -> None:
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, 1)
    os.close(devnull)


def _report(args, e: Exception) -> int:
    """The exit code of the typed error e, which is reported on stdout as
    JSON under --json and on stderr otherwise."""
    if isinstance(e, PrecisionError):
        code = 3
    elif isinstance(e, (VerificationFailure, TailBoundError)):
        code = 1
    else:
        code = 2
    if getattr(args, "json", False):
        print(_dump(_error_payload(e)))
    else:
        print("error: %s" % e, file=sys.stderr)
        if isinstance(e, PrecisionError):
            print("required window: [%d, %d)" % e.required_window, file=sys.stderr)
        if isinstance(e, HypothesisError) and e.case:
            print("level theorem case (%s)" % e.case, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
