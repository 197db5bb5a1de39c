"""The benchmark's three workloads.

Each workload turns a seed into an endless list of requests, runs one
request at a time (a closed loop with one client), and checks every result
exactly, outside the timed interval, against a reference built without the
lift code.  Requests are generated here only; the program sees nothing but
the generated inputs.

A run is a fixed number of requests.  The kinds of request follow a fixed
cycle, and each kind's sizes are stratified over a log-uniform range, so
every seed runs nearly the same work and differs in the exact sizes, the
lift parameters and the order.
"""

from __future__ import annotations

import collections
import contextlib
import io
import itertools
import json
import math
import os
import random
import resource
import subprocess
import sys
from fractions import Fraction

from shimlift import cli, fixtures, qseries, shimura, verify


class Failure(Exception):
    """A request whose output, exit code or refusal is not the expected one."""


def stratified(rng: random.Random, lo: int, hi: int, m: int, scale: float = 1.0) -> list[tuple[int, int]]:
    """m (size, stratum) pairs, log-uniform over [lo, hi]: one size in each
    of m equal strata of log-size, near the stratum's middle, in seeded
    order.  The offset moves with the seed only by a tenth of a stratum
    either way, and callers pick other parameters from the stratum number,
    so the request costs, which grow steeply with size, vary little from
    seed to seed.  `scale` < 1 shrinks the range towards lo (smoke runs)."""
    top = lo * (hi / lo) ** scale
    shift = 0.4 + 0.2 * rng.random()
    sizes = [(int(round(lo * (top / lo) ** ((i + shift) / m))), i) for i in range(m)]
    rng.shuffle(sizes)
    return sizes


def run_cli_inprocess(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def one_json_object(stdout: str) -> dict:
    lines = stdout.splitlines()
    if len(lines) != 1:
        raise Failure("stdout holds %d lines, expected one JSON object" % len(lines))
    try:
        payload = json.loads(lines[0])
    except json.JSONDecodeError as e:
        raise Failure("stdout is not JSON: %s" % e) from None
    if not isinstance(payload, dict):
        raise Failure("stdout JSON is not an object")
    return payload


def check_level1_lift(lift: qseries.QExp, weight: int, prec: int) -> None:
    """A holomorphic level-one lift: a rational multiple of E_weight over
    the whole window for the one-dimensional weights, an exact E4/E6
    decomposition otherwise."""
    if lift.weight != weight or (lift.lo, lift.hi) != (0, prec + 1):
        raise Failure("lift has weight %s window [%d, %d)" % (lift.weight, lift.lo, lift.hi))
    if weight in (4, 6, 8):
        e = fixtures.eisenstein(weight, prec + 1)
        lam = lift.coeff(1) / e.coeff(1)
        for n in range(prec + 1):
            if lift.coeff(n) != lam * e.coeff(n):
                raise Failure("lift is not a multiple of E%d at q^%d" % (weight, n))
    else:
        try:
            verify.level1_exact_check(lift, weight)
        except verify.VerificationFailure as e:
            raise Failure("weight %d lift fails the exact level 1 check: %s" % (weight, e)) from None


class Workload:
    name = ""
    kinds: list[str] = []

    def __init__(self, seed: int, scale: float, workdir: str):
        self.seed = seed
        self.scale = scale
        self.workdir = workdir
        self.rng = random.Random("%s:%d" % (self.name, seed))
        self.tracer = None  # set by a traced run

    def setup(self) -> None:
        """Build inputs and warm up; counted in setup_s."""

    def requests(self, n: int) -> list[dict]:
        """The first n requests of this seed's list (whole cycles of
        `kinds` keep every seed's mix the same)."""
        order = list(itertools.islice(itertools.cycle(self.kinds), n))
        return self._requests(order, collections.Counter(order))

    def _requests(self, order: list[str], counts) -> list[dict]:
        raise NotImplementedError

    def run(self, req):
        raise NotImplementedError

    def check(self, req, out) -> None:
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- lift_holomorphic ----------------------------------------------------

# name: (k, output weight, gate-passing square-free t, largest window)
_PLUS_FIXTURES = {
    "cohen52": (2, 4, (1, 5, 13), 40001),
    "cohen72": (3, 6, (3, 7, 11), 2500),
    "cohen92": (4, 8, (1, 5), 2500),
    "theta_e4": (4, 8, (1, 5, 13), 40001),
    "theta_e6": (6, 12, (1, 5), 40001),
}


class LiftHolomorphic(Workload):
    """In-process `shimlift lift --fixture ... --json` on the plus-space
    fixtures, input windows from about 10^2 terms to 40001."""

    name = "lift_holomorphic"
    kinds = ["cohen52", "cohen72", "theta_e4", "cohen92", "theta_e6"]

    def _request(self, fixture: str, window: int, stratum: int = 0) -> dict:
        k, weight, ts, _ = _PLUS_FIXTURES[fixture]
        fits = [t for t in ts if 4 * t + 1 <= window] or [ts[0]]
        t = fits[stratum % len(fits)]
        prec = max(2, math.isqrt((window - 1) // t))
        return {"kind": fixture, "t": t, "prec": prec, "weight": weight}

    def setup(self) -> None:
        for fixture in self.kinds:
            req = self._request(fixture, 100)
            self.check(req, self.run(req))

    def _requests(self, order, counts):
        sizes = {f: iter(stratified(self.rng, 100, _PLUS_FIXTURES[f][3], counts[f], self.scale))
                 for f in counts}
        return [self._request(f, *next(sizes[f])) for f in order]

    def run(self, req):
        argv = ["lift", "--fixture", req["kind"], "--t", str(req["t"]),
                "--prec", str(req["prec"]), "--json"]
        return run_cli_inprocess(argv)

    def check(self, req, out) -> None:
        code, stdout, _ = out
        if code != 0:
            raise Failure("exit %d" % code)
        payload = one_json_object(stdout)
        verdict = payload["verdict"]
        if (verdict["case"], verdict["level"]) != ("i", 1):
            raise Failure("verdict %r, expected case (i) level 1" % verdict)
        check_level1_lift(qseries.qexp_from_json(payload["lift"]), req["weight"], req["prec"])


# -- lift_weakly_holomorphic ---------------------------------------------

_HJ4_CONSTANT = Fraction(-337, 1440)


class LiftWeaklyHolomorphic(Workload):
    """hj4 lifts, j-invariant builds, and the index-refactoring (criterion
    6) and level-change (criterion 7) identities at reduced precision."""

    name = "lift_weakly_holomorphic"
    kinds = ["hj4_lift", "crit6_cohen52", "j_build", "crit7_cohen52", "crit6_hj4",
             "hj4_lift", "crit7_cohen52", "crit7_hj4", "crit6_cohen52"]
    # kind: window range in terms (j_build: its own prec)
    _RANGES = {
        "hj4_lift": (101, 2601),
        "crit6_hj4": (401, 2001),
        "j_build": (700, 2000),
        "crit7_hj4": (101, 1201),
        "crit6_cohen52": (2001, 12001),
        "crit7_cohen52": (2026, 8101),
    }

    def _request(self, kind: str, size: int, stratum: int = 0) -> dict:
        req = {"kind": kind, "fixture": "cohen52" if kind.endswith("cohen52") else "hj4"}
        if kind == "j_build":
            req["prec"] = size
        elif kind == "hj4_lift":
            req["prec"] = math.isqrt(size - 1)
        elif kind.startswith("crit6"):
            t, s = [(1, 2), (5, 2), (1, 3), (5, 3)][stratum % 4]
            req.update(t=t, s=s, prec=max(2, math.isqrt((size - 1) // (t * s * s))))
        else:
            req.update(M=(5, 7)[stratum % 2], prec=math.isqrt(size - 1))
        return req

    def setup(self) -> None:
        tiny = {"hj4_lift": 101, "crit6_hj4": 401, "j_build": 50, "crit7_hj4": 101,
                "crit6_cohen52": 401, "crit7_cohen52": 101}
        for kind, size in tiny.items():
            req = self._request(kind, size)
            self.check(req, self.run(req))

    def _requests(self, order, counts):
        sizes = {k: iter(stratified(self.rng, *self._RANGES[k], counts[k], self.scale)) for k in counts}
        return [self._request(k, *next(sizes[k])) for k in order]

    def run(self, req):
        kind, P = req["kind"], req["prec"]
        if kind == "j_build":
            return fixtures.j_invariant(P)
        if kind == "hj4_lift":
            f = fixtures.fixture("hj4", P * P + 1)
            return shimura.shimura_St(f, 1, 2, 1, 1, P), f
        if kind.startswith("crit6"):
            t, s = req["t"], req["s"]
            f = fixtures.fixture(req["fixture"], t * s * s * P * P + 1)
            direct = shimura.shimura_general(f, 1, 2, t, s, 1, P)
            via_u = qseries.u_op(shimura.shimura_St(f, s, 2, t, 1, P * s), s)
            return direct, via_u
        M = req["M"]
        f = fixtures.fixture(req["fixture"], P * P + 1)
        lhs = shimura.shimura_St(f, M, 2, 1, 1, P)
        rhs = shimura.level_change_rhs(f, 1, M, 2, 1, 1, P).truncate(P + 1)
        return lhs, rhs

    def check(self, req, out) -> None:
        kind, P = req["kind"], req["prec"]
        if kind == "j_build":
            self._check_j(out, P)
        elif kind == "hj4_lift":
            self._check_hj4_spots(out[0], out[1], P)
        else:
            lhs, rhs = out
            if (lhs.lo, lhs.hi) != (0, P + 1) or lhs != rhs:
                raise Failure("%s identity fails for %r" % (kind, req))

    @staticmethod
    def _check_j(j, n: int) -> None:
        """j * Delta = E4^3, with Delta from the Eisenstein side (the build
        goes through the eta product)."""
        if (j.lo, j.hi) != (-1, n) or j.coeff(-1) != 1 or j.coeff(0) != 744:
            raise Failure("j window or leading coefficients wrong")
        prod = qseries.mul(j, fixtures.delta(n + 1))
        e4 = fixtures.eisenstein(4, n)
        cube = qseries.mul(qseries.mul(e4, e4), e4)
        if prod.hi != n or any(prod.coeff(a) != cube.coeff(a) for a in range(n)):
            raise Failure("j * Delta != E4^3 below q^%d" % n)

    @staticmethod
    def _check_hj4_spots(lift, f, P: int) -> None:
        """Criterion 10: weight, window, constant term, and divisor-sum spot
        values against the raw input coefficients."""
        if lift.weight != 4 or (lift.lo, lift.hi) != (0, P + 1):
            raise Failure("hj4 lift weight or window wrong")
        if lift.coeff(0) != _HJ4_CONSTANT:
            raise Failure("hj4 lift constant %s" % lift.coeff(0))
        c = f.coeff
        spots = {1: c(1), 2: c(4) + 2 * c(1), 3: c(9) + 3 * c(1),
                 5: c(25) + 5 * c(1), 7: c(49) + 7 * c(1)}
        for l, want in spots.items():
            if l <= P and lift.coeff(l) != want:
                raise Failure("hj4 lift spot value at q^%d" % l)


# -- cli_json ------------------------------------------------------------

# input files written during set-up: name -> (k, window)
_CLI_INPUTS = {"theta_e4": (4, 40001), "theta_e6": (6, 20001), "cohen52": (2, 10001)}


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


class CliJson(Workload):
    """`shimlift` subprocess calls as a shell script makes them, each
    answer compared with the same call made in-process."""

    name = "cli_json"
    kinds = ["lift_file", "refuse_even_t", "reemit", "verify_numeric", "lift_file",
             "project", "level_predict", "short_window", "verify_exact", "lift_file",
             "refuse_sign", "weil_selftest", "refuse_project"]

    def __init__(self, seed, scale, workdir):
        super().__init__(seed, scale, workdir)
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        self.env = dict(os.environ, PYTHONPATH=src)
        self.peak_child_rss_kb = 0
        self.inputs: dict[str, tuple[str, int, int]] = {}  # name -> (path, k, window)
        self.lifted: list[tuple[str, int]] = []  # (path, weight)
        self.expected: dict[tuple, tuple[int, str]] = {}
        self.n_spawned = 0

    def setup(self) -> None:
        os.makedirs(self.workdir, exist_ok=True)
        for name, (k, window) in _CLI_INPUTS.items():
            window = round(101 * (window / 101) ** self.scale)
            f = fixtures.fixture(name, window)
            path = os.path.join(self.workdir, "%s.json" % name)
            with open(path, "w") as fh:
                fh.write(_dump(qseries.qexp_to_json(f)))
            self.inputs[name] = (path, k, window)
            if name != "theta_e4":
                prec = max(3, math.isqrt(window - 1) // (2 + self.rng.randrange(3)))
                lift = shimura.shimura_St(f, 1, k, 1, 1, prec)
                lpath = os.path.join(self.workdir, "%s_lift.json" % name)
                with open(lpath, "w") as fh:
                    fh.write(_dump({"lift": qseries.qexp_to_json(lift)}))
                self.lifted.append((lpath, 2 * k))
        code, _, _ = self._spawn(["level-predict", "--N", "1", "--json"])
        if code != 0:
            raise Failure("warm-up call exited %d" % code)

    def _requests(self, order, counts):
        rng = self.rng
        files = itertools.cycle(sorted(self.inputs))
        lifted = itertools.cycle(self.lifted)
        reemit = itertools.cycle(sorted(self.inputs))
        project_sizes = iter(stratified(rng, 500, 4000, counts["project"], self.scale))
        numeric_sizes = iter(stratified(rng, 400, 1200, counts["verify_numeric"], self.scale))
        reqs = []
        for kind in order:
            req = {"kind": kind}
            if kind in ("lift_file", "short_window"):
                name = next(files)
                path, k, window = self.inputs[name]
                t = rng.choice((1, 5, 13))
                top = math.isqrt((window - 1) // t)
                if kind == "lift_file":
                    prec = max(2, top - rng.randrange(top // 2 + 1))
                else:
                    prec = top + 1 + rng.randrange(20)
                req.update(weight=2 * k, prec=prec, t=t,
                           argv=["lift", "--input", path, "--N", "1", "--k", str(k),
                                 "--epsilon", "1", "--t", str(t), "--prec", str(prec), "--json"])
                if kind == "short_window":
                    req.update(expect=3, window=[0, t * prec * prec + 1])
            elif kind == "refuse_even_t":
                t, prec = rng.choice((2, 6, 10)), 2 + rng.randrange(5)
                req.update(expect=2, obstruction="eta-conductor-8",
                           argv=["lift", "--fixture", rng.choice(("cohen52", "theta_e4")),
                                 "--t", str(t), "--prec", str(prec), "--json"])
            elif kind == "refuse_sign":
                fixture, ts = rng.choice((("cohen72", (1, 5)), ("cohen52", (3, 7)), ("theta_e4", (3, 7))))
                req.update(expect=2, obstruction="sign-vs-index",
                           argv=["lift", "--fixture", fixture, "--t", str(rng.choice(ts)),
                                 "--prec", str(2 + rng.randrange(5)), "--json"])
            elif kind == "refuse_project":
                req.update(expect=2, obstruction="projection-needs-4|N",
                           argv=["project", "--fixture", "theta_e4", "--N", str(rng.choice((1, 2, 3, 5, 6))),
                                 "--k", "4", "--prec", str(100 + rng.randrange(400)), "--json"])
            elif kind == "reemit":
                path = self.inputs[next(reemit)][0]
                req.update(path=path, argv=["fixtures", "--reemit", path])
            elif kind == "verify_numeric":
                req["argv"] = ["verify", "--fixture", "theta", "--weight", "1/2", "--level", "4",
                               "--prec", str(next(numeric_sizes)[0]), "--json"]
            elif kind == "verify_exact":
                path, weight = next(lifted)
                req["argv"] = ["verify", "--input", path, "--weight", str(weight), "--mode", "exact", "--json"]
            elif kind == "project":
                fixture = rng.choice(sorted(_CLI_INPUTS))
                argv = ["project", "--fixture", fixture, "--N", "4", "--k", str(_CLI_INPUTS[fixture][0]),
                        "--prec", str(next(project_sizes)[0]), "--json"]
                if rng.random() < 0.5:
                    argv.insert(-1, "--two")
                req["argv"] = argv
            elif kind == "level_predict":
                argv = ["level-predict", "--N", str(1 + rng.randrange(12)), "--t", str(1 + rng.randrange(15)),
                        "--s", str(1 + rng.randrange(4)), "--M", str(1 + rng.randrange(8)), "--json"]
                if rng.random() < 0.5:
                    argv.insert(-1, "--plus")
                req["argv"] = argv
            else:  # weil_selftest
                req["argv"] = ["weil-selftest", "--max-n", str(2 + rng.randrange(5)),
                               "--words", str(10 + rng.randrange(31)), "--json"]
            reqs.append(req)
        return reqs

    def _spawn(self, argv: list[str], traced: bool = False):
        """Run one CLI call as a child process and return (exit code, stdout,
        stderr).  Records the child's peak RSS; a traced call runs under the
        tracer and its spans join this workload's tracer."""
        self.n_spawned += 1
        tag = os.path.join(self.workdir, "call%d" % self.n_spawned)
        if traced:
            here = os.path.dirname(os.path.abspath(__file__))
            cmd = [sys.executable, os.path.join(here, "traced_cli.py"), tag + ".spans",
                   str(self.tracer.request), "--"] + argv
        else:
            cmd = [sys.executable, "-m", "shimlift.cli"] + argv
        with open(tag + ".out", "w+b") as out, open(tag + ".err", "w+b") as err:
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, stdin=subprocess.DEVNULL, env=self.env)
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            self.peak_child_rss_kb = max(self.peak_child_rss_kb, usage.ru_maxrss)
            out.seek(0)
            err.seek(0)
            result = proc.returncode, out.read().decode(), err.read().decode()
        os.remove(tag + ".out")
        os.remove(tag + ".err")
        if traced:
            with open(tag + ".spans") as fh:
                self.tracer.extend(json.load(fh))
            os.remove(tag + ".spans")
        return result

    def run(self, req):
        return self._spawn(req["argv"], traced=self.tracer is not None)

    def _inprocess(self, argv: list[str]) -> tuple[int, str]:
        key = tuple(argv)
        if key not in self.expected:
            code, stdout, _ = run_cli_inprocess(argv)
            self.expected[key] = (code, stdout)
        return self.expected[key]

    def check(self, req, out) -> None:
        code, stdout, stderr = out
        want = req.get("expect", 0)
        if code != want:
            raise Failure("exit %d, expected %d: %s" % (code, want, (stdout + stderr)[-300:]))
        payload = one_json_object(stdout)
        ref_code, ref_stdout = self._inprocess(req["argv"])
        if ref_code != code or json.loads(ref_stdout) != payload:
            raise Failure("payload differs from the in-process result")
        kind = req["kind"]
        if "obstruction" in req and payload.get("obstruction") != req["obstruction"]:
            raise Failure("refusal %r, expected obstruction %s" % (payload, req["obstruction"]))
        if kind == "short_window" and payload.get("required_window") != req["window"]:
            raise Failure("required window %r, expected %r" % (payload.get("required_window"), req["window"]))
        if kind == "lift_file":
            check_level1_lift(qseries.qexp_from_json(payload["lift"]), req["weight"], req["prec"])
        elif kind == "reemit":
            with open(req["path"]) as fh:
                if stdout != fh.read() + "\n":
                    raise Failure("re-emitted JSON differs from the canonical input")
        elif kind.startswith("verify") and payload.get("passed") is not True:
            raise Failure("verification did not pass: %r" % payload)

    def peak_rss_mb(self) -> float:
        return self.peak_child_rss_kb / 1024.0


WORKLOADS = {w.name: w for w in (LiftHolomorphic, LiftWeaklyHolomorphic, CliJson)}
