"""shimlift benchmark: one closed-loop client, three seeded workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
`src/`.  A run is a fixed list of requests, sized so that it takes about S
seconds of request time at the seed commit on a 2-CPU machine without
gmpy2.  With `--trace 0` the list runs untraced and the end-to-end metrics
are reported.  With `--trace 1` each request of the same list runs once
untraced and then once under the tracer, and the per-layer metrics are
reported with the tracing overhead.  Every request is checked exactly between requests, outside the
timed intervals.  The last line of stdout is the result object; the line before
it is a fuller report with machine facts and the tail percentile used.
"""

from __future__ import annotations

import argparse
import bisect
import importlib.util
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# requests per second of request time, measured at the seed commit; a run
# of S seconds is rate * S requests, rounded up to whole cycles of kinds.
# Fixing the work, not the time, keeps the mix and the tail percentile the
# same from run to run and across commits.
RATE = {"lift_holomorphic": 5.5, "lift_weakly_holomorphic": 2.5, "cli_json": 3.6}
# a run stops early once its request time passes this multiple of S
TIME_CAP = 3.0

# layers whose calls a traced run must see, else it fails
PREDICTED = {
    "lift_holomorphic": ["cli.main", "cli.json_io", "qseries.json", "fixtures.build",
                         "scalars.quadratic_L_neg", "qseries.mul", "intpoly.convolve",
                         "shimura.lift", "plusspace"],
    "lift_weakly_holomorphic": ["fixtures.build", "qseries.mul", "qseries.invert_unit",
                                "intpoly.convolve", "scalars.quadratic_L_neg",
                                "shimura.lift", "shimura.level_change_rhs"],
    "cli_json": ["cli.main", "cli.json_io", "qseries.json", "fixtures.build", "shimura.lift",
                 "plusspace", "verify.level1_exact_check", "verify.modularity_residual",
                 "weilrep.weil_selftest"],
}

# layers expected to take most of each workload's traced request time
DOMINANT = {
    "lift_holomorphic": ["fixtures.build", "scalars.quadratic_L_neg"],
    "lift_weakly_holomorphic": ["qseries.mul", "qseries.invert_unit", "intpoly.convolve"],
    "cli_json": ["qseries.json", "cli.json_io"],  # plus the time outside cli.main
}

# (metric, unit): layer fields reported by the traced run
PER_LAYER = [
    ("intpoly.convolve.calls", "count"),
    ("intpoly.convolve.self_s", "s"),
    ("intpoly.convolve.terms", "count"),
    ("intpoly.convolve.max_bits", "bits"),
    ("intpoly.convolve.sign_products", "count"),
    ("qseries.mul.calls", "count"),
    ("qseries.mul.self_s", "s"),
    ("qseries.mul.packed_ratio", "ratio"),
    ("qseries.invert_unit.calls", "count"),
    ("qseries.invert_unit.self_s", "s"),
    ("fixtures.build.calls", "count"),
    ("fixtures.build.self_s", "s"),
    ("fixtures.build.terms", "count"),
    ("scalars.quadratic_L_neg.calls", "count"),
    ("scalars.quadratic_L_neg.self_s", "s"),
    ("scalars.quadratic_L_neg.kronecker_evals", "count"),
    ("shimura.lift.calls", "count"),
    ("shimura.lift.self_s", "s"),
    ("shimura.lift.coeffs_out", "count"),
    ("shimura.lift.refused", "count"),
    ("shimura.level_change_rhs.self_s", "s"),
    ("qseries.json.self_s", "s"),
    ("qseries.json.coeffs", "count"),
    ("cli.json_io.self_s", "s"),
    ("cli.main.self_s", "s"),
    ("verify.level1_exact_check.self_s", "s"),
    ("verify.modularity_residual.self_s", "s"),
    ("weilrep.weil_selftest.self_s", "s"),
    ("plusspace.self_s", "s"),
]

SETUP_REPEATS = 3
STARTUP_REPEATS = 5

# The machine's speed drifts by a quarter within a minute (CPU time tracks
# wall time, so this is not stolen time).  Every time metric is therefore
# scaled by REF_NOMINAL_S / (median time of a fixed pure-Python loop timed
# between requests, around the measurement), i.e. reported in seconds of a
# machine on which that loop takes REF_NOMINAL_S.  Request times use the
# loops within REF_WINDOW_S of the request.  The raw figures are in the
# report line.
REF_LOOPS = 100_000
REF_NOMINAL_S = 0.0085
REF_AROUND_SETUP = 3
REF_WINDOW_S = 3.0


def machine_facts() -> dict:
    import numpy

    from shimlift import _intpoly

    fallback = getattr(_intpoly._mpz, "__module__", None) == _intpoly.__name__
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "gmpy2_importable": importlib.util.find_spec("gmpy2") is not None,
        "intpoly_multiplier": "int" if fallback else "gmpy2.mpz",
        "machine": platform.machine(),
    }


def reference_s() -> float:
    """One timing of a fixed pure-Python loop that does not touch the program."""
    start = time.perf_counter()
    acc = 0
    for i in range(REF_LOOPS):
        acc += i * i % 7
    return time.perf_counter() - start


def speed_factor(refs: list) -> float:
    """Scale from this machine's current speed to the reference speed."""
    return REF_NOMINAL_S / statistics.median(refs)


def setup_workload(name: str, seed: int, scale: float, workdir: str):
    """Import, input generation and warm-up, timed together; returns the
    workload, the raw set-up seconds and the speed factor around them."""
    refs = [reference_s() for _ in range(REF_AROUND_SETUP)]
    start = time.perf_counter()
    import workloads

    wl = workloads.WORKLOADS[name](seed, scale, workdir)
    wl.setup()
    raw = time.perf_counter() - start
    refs += [reference_s() for _ in range(REF_AROUND_SETUP)]
    return wl, raw, speed_factor(refs)


def setup_in_child(args) -> tuple[float, float]:
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
           "--scale", str(args.scale), "--setup-only"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError("set-up child failed: %s" % proc.stderr[-2000:])
    out = json.loads(proc.stdout.splitlines()[-1])
    return out["setup_raw_s"], out["speed_factor"]


def request_list(args, wl) -> list[dict]:
    cycles = math.ceil(RATE[args.workload] * args.seconds / len(wl.kinds))
    return wl.requests(cycles * len(wl.kinds))


class Pass:
    """Requests run one at a time: raw request times, failures, per-kind
    counts and times, and the reference timings taken between requests."""

    def __init__(self):
        self.durations, self.failures, self.kinds = [], [], {}
        self.refs, self.ref_at, self.midpoints = [], [], []

    def run(self, wl, i: int, req: dict, rec=None) -> None:
        """Time one request and check it outside its timed interval.  A
        tracer `rec` records spans during the request only."""
        self._reference()
        error = None
        if rec is not None:
            rec.request, rec.active = i, True
        start = time.perf_counter()
        try:
            out = wl.run(req)
        except Exception as e:  # an untyped exception is a failed request
            out, error = None, "%s: %s" % (type(e).__name__, e)
        elapsed = time.perf_counter() - start
        if rec is not None:
            rec.active = False
        self.durations.append(elapsed)
        self.midpoints.append(start + elapsed / 2)
        row = self.kinds.setdefault(req["kind"], [0, 0.0])
        row[0] += 1
        row[1] += elapsed
        if error is None:
            try:
                wl.check(req, out)
            except Exception as e:
                error = "%s: %s" % (type(e).__name__, e)
        del out
        if error is not None:
            self.failures.append({"request": i, "kind": req["kind"], "error": error[:500]})

    def finish(self) -> None:
        self._reference()

    def _reference(self) -> None:
        self.refs.append(reference_s())
        self.ref_at.append(time.perf_counter())

    @property
    def busy(self) -> float:
        return math.fsum(self.durations)

    @property
    def speed(self) -> float:
        return speed_factor(self.refs)

    def scaled(self) -> list[float]:
        """Each request time scaled by the speed factor of the references
        taken within REF_WINDOW_S of its midpoint (at least the two around
        it)."""
        out = []
        for i, (d, mid) in enumerate(zip(self.durations, self.midpoints)):
            lo = bisect.bisect_left(self.ref_at, mid - REF_WINDOW_S - d / 2)
            hi = bisect.bisect_right(self.ref_at, mid + REF_WINDOW_S + d / 2)
            near = self.refs[min(lo, i):max(hi, i + 2)]
            out.append(d * speed_factor(near))
        return out


def tail(durations: list) -> dict:
    """The highest percentile with at least ten samples beyond it: the
    eleventh largest duration."""
    n = len(durations)
    ordered = sorted(durations)
    if n <= 10:
        return {"value": ordered[-1], "percentile": 100.0, "samples": n, "beyond": 0}
    return {"value": ordered[n - 11], "percentile": 100.0 * (n - 10) / n, "samples": n, "beyond": 10}


def end_to_end(args, wl, setup_s: float) -> tuple[dict, dict, int, int]:
    reqs = request_list(args, wl)
    run = Pass()
    for i, req in enumerate(reqs):
        if run.busy >= TIME_CAP * args.seconds:
            break
        run.run(wl, i, req)
    run.finish()
    attempted = len(run.durations)
    ok = attempted - len(run.failures)
    scaled = run.scaled()
    t = tail(scaled)
    metrics = {
        "requests_per_s": {"value": ok / math.fsum(scaled), "unit": "1/s"},
        "request_p50_s": {"value": statistics.median(scaled), "unit": "s"},
        "request_tail_s": {"value": t["value"], "unit": "s"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": wl.peak_rss_mb(), "unit": "MB"},
    }
    report = {
        "metrics": dict(metrics, failed_ratio={"value": len(run.failures) / attempted, "unit": "ratio"}),
        "raw": {"requests_per_s": ok / run.busy, "request_p50_s": statistics.median(run.durations),
                "request_tail_s": tail(run.durations)["value"], "speed_factor": run.speed},
        "tail": t,
        "busy_s": run.busy,
        "requests": len(reqs),
        "kinds": run.kinds,
        "failures": run.failures[:10],
    }
    return metrics, report, attempted, len(run.failures)


def startup_seconds() -> tuple[float, float]:
    """Median wall time of a fresh `import shimlift.cli`, raw, and the speed
    factor around the measurements."""
    env = dict(os.environ, PYTHONPATH=SRC)
    times, refs = [], []
    for _ in range(STARTUP_REPEATS):
        refs.append(reference_s())
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import shimlift.cli"], env=env, check=True,
                       stdin=subprocess.DEVNULL, timeout=60)
        times.append(time.perf_counter() - start)
    refs.append(reference_s())
    return statistics.median(times), speed_factor(refs)


def traced(args, wl) -> tuple[dict, dict, int, int]:
    import tracer
    import workloads

    # each request runs untraced, then traced, so that both passes see the
    # same machine speed and warm state; their ratio is the tracing overhead
    reqs = request_list(args, wl)
    plain, run = Pass(), Pass()
    rec = tracer.Tracer()
    for i, req in enumerate(reqs):
        if plain.busy + run.busy >= 2 * TIME_CAP * args.seconds:
            break
        plain.run(wl, i, req)
        if args.workload == "cli_json":
            wl.tracer = rec  # the child traces itself; its spans land in rec
        else:
            rec.install(extra_modules=[workloads])
        try:
            run.run(wl, i, req, rec=rec)
        finally:
            rec.uninstall()
            wl.tracer = None
    plain.finish()
    run.finish()

    summary = tracer.summarize(rec.spans)
    startup_raw, startup_speed = startup_seconds()
    speed = run.speed
    metrics = {}
    for name, unit in PER_LAYER:
        layer, field = name.rsplit(".", 1)
        value = summary.get(layer, {}).get(field, 0)
        metrics[name] = {"value": value * speed if unit == "s" else value, "unit": unit}
    metrics["cli.startup_s"] = {"value": startup_raw * startup_speed, "unit": "s"}
    dominant = sum(summary.get(layer, {}).get("self_s", 0.0) for layer in DOMINANT[args.workload])
    if args.workload == "cli_json":
        # interpreter start, imports and exit: the child's time outside cli.main
        dominant += run.busy - math.fsum(
            s[tracer.END] - s[tracer.START] for s in rec.spans
            if s[tracer.NAME] == "cli.main" and s[tracer.PARENT] < 0)
    metrics["trace.overhead_ratio"] = {"value": run.busy / plain.busy, "unit": "ratio"}
    metrics["trace.dominant_share"] = {"value": dominant / run.busy, "unit": "ratio"}

    silent = [layer for layer in PREDICTED[args.workload]
              if summary.get(layer, {}).get("calls", 0) == 0]
    report = {
        "metrics": metrics,
        "requests": len(reqs),
        "untraced_busy_s": plain.busy,
        "traced_busy_s": run.busy,
        "speed_factor": {"untraced": plain.speed, "traced": speed, "startup": startup_speed},
        "kinds": run.kinds,
        "dominant_layers": DOMINANT[args.workload],
        "silent_predicted_layers": silent,
        "layers": summary,
        "failures": (plain.failures + run.failures)[:10],
    }
    if silent and args.scale >= 1:
        print(json.dumps({"report": report}, sort_keys=True, default=str), file=sys.stderr)
        raise SystemExit(
            "traced run: predicted layer(s) recorded no calls on %s: %s"
            % (args.workload, ", ".join(silent)))
    attempted = len(plain.durations) + len(run.durations)
    return metrics, report, attempted, len(plain.failures) + len(run.failures)


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(RATE))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", type=float, default=1.0,
                   help="shrink request sizes (below 1: smoke runs, predictions not enforced)")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args()

    if not os.path.isfile(os.path.join(SRC, "shimlift", "__init__.py")):
        print("bench: no shimlift sources under %s; run from a source checkout" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    workdir = os.path.join(ROOT, ".bench_work", "%s-%d" % (args.workload, os.getpid()))
    try:
        wl, setup_raw, setup_speed = setup_workload(args.workload, args.seed, args.scale, workdir)
        if args.setup_only:
            print(json.dumps({"setup_raw_s": setup_raw, "speed_factor": setup_speed}))
            return 0
        if args.trace:
            metrics, report, attempted, failed = traced(args, wl)
        else:
            setups = [(setup_raw, setup_speed)] + [setup_in_child(args) for _ in range(SETUP_REPEATS - 1)]
            setup_s = statistics.median(raw * speed for raw, speed in setups)
            metrics, report, attempted, failed = end_to_end(args, wl, setup_s)
            report["setup_runs"] = [{"raw_s": raw, "speed_factor": speed} for raw, speed in setups]
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for f in report["failures"]:
        print("bench: failed request %(request)d (%(kind)s): %(error)s" % f, file=sys.stderr)
    report.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, scale=args.scale, machine=machine_facts(),
                  attempted=attempted, failed=failed)
    print(json.dumps({"report": report}, sort_keys=True, default=str))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
