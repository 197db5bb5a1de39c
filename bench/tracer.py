"""Span recorder for the traced benchmark run.

The tracer lives entirely outside the program: it replaces layer entry
points of `shimlift` with wrappers that record a span per call (name,
start, end, parent span, request id) plus a few counts computed from the
arguments and the result.  Because modules bind names at import time
(`from .qseries import mul`), a wrapper is installed at every module that
holds the original function object, and `install` fails if any reference
is left behind.

Spans stay in memory; `summarize` turns them into per-layer metrics.  A
layer's self time is its span's duration minus the time covered by its
child spans and by the tracer's own bookkeeping for those children.
"""

from __future__ import annotations

import importlib
import sys
import time

# span fields
NAME, START, END, PARENT, REQUEST, EXTRA, OVERHEAD = range(7)


def _window(result) -> int:
    return result.hi - result.lo if result is not None else 0


def _convolve_counts(args, kwargs, result, exc) -> dict:
    a, b = args[0], args[1]
    if not a or not b:
        return {"terms": len(a) + len(b), "max_bits": 0, "sign_products": 0}
    mina, maxa, minb, maxb = min(a), max(a), min(b), max(b)
    bits = max(maxa, -mina, maxb, -minb).bit_length()
    if mina >= 0 and minb >= 0:
        products = 1
    else:
        pa, na, pb, nb = maxa > 0, mina < 0, maxb > 0, minb < 0
        products = pa * pb + pa * nb + na * pb + na * nb
    return {"terms": len(a) + len(b), "max_bits": bits, "sign_products": products}


def _json_counts(args, kwargs, result, exc) -> dict:
    if exc is not None:
        return {"coeffs": 0}
    if isinstance(result, dict):  # qexp_to_json
        return {"coeffs": len(result["coefficients"])}
    return {"coeffs": len(result.coeffs)}  # qexp_from_json


def _build_counts(args, kwargs, result, exc) -> dict:
    return {"terms": _window(result)}


def _l_value_counts(args, kwargs, result, exc) -> dict:
    return {"kronecker_evals": abs(args[0]) - 1}


def _lift_counts(args, kwargs, result, exc) -> dict:
    from shimlift.errors import HypothesisError, PrecisionError

    refused = isinstance(exc, (HypothesisError, PrecisionError))
    return {"coeffs_out": _window(result), "refused": int(refused)}


_BUILDERS = [
    "theta", "theta_component", "eisenstein", "euler_function", "delta",
    "j_invariant", "cohen_eisenstein", "plus_product",
    "weakly_holomorphic_product", "zero_form",
]

# (layer, module, functions, counts).  `characters` and `errors` are not
# wrapped: no profile shows them as more than noise.
TARGETS = [
    ("intpoly.convolve", "shimlift._intpoly", ["convolve"], _convolve_counts),
    ("qseries.mul", "shimlift.qseries", ["mul"], None),
    ("qseries.invert_unit", "shimlift.qseries", ["invert_unit"], None),
    ("qseries.json", "shimlift.qseries", ["qexp_to_json", "qexp_from_json"], _json_counts),
    ("fixtures.build", "shimlift.fixtures", _BUILDERS, _build_counts),
    ("scalars.quadratic_L_neg", "shimlift.scalars", ["quadratic_L_neg"], _l_value_counts),
    ("shimura.lift", "shimlift.shimura",
     ["shimura_S1", "shimura_St", "shimura_general", "_ungated_squarefree"], _lift_counts),
    ("shimura.level_change_rhs", "shimlift.shimura", ["level_change_rhs"], None),
    ("verify.level1_exact_check", "shimlift.verify", ["level1_exact_check"], None),
    ("verify.modularity_residual", "shimlift.verify", ["modularity_residual"], None),
    ("weilrep.weil_selftest", "shimlift.weilrep", ["weil_selftest"], None),
    ("plusspace", "shimlift.plusspace",
     ["is_plus_space", "project_plus", "project_two", "lift_L", "lift_L_inverse"], None),
    ("cli.json_io", "shimlift.cli", ["_read_json_source", "_dump"], None),
    ("cli.main", "shimlift.cli", ["main"], None),
]

# every per-layer counter, with how spans combine into it
SUMMED = {
    "intpoly.convolve": ["terms", "sign_products"],
    "qseries.json": ["coeffs"],
    "fixtures.build": ["terms"],
    "scalars.quadratic_L_neg": ["kronecker_evals"],
    "shimura.lift": ["coeffs_out", "refused"],
}
MAXED = {"intpoly.convolve": ["max_bits"]}


class Tracer:
    """Records spans while `active`; wrappers pass straight through
    otherwise, so checks run between requests leave no spans."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.request = -1
        self.active = False
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name, fn, counts=None):
        tracer = self
        spans = self.spans
        stack = self.stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else -1
            span = [name, 0.0, 0.0, parent, tracer.request, None, 0.0]
            stack.append(len(spans))
            spans.append(span)
            result = exc = None
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                span[END] = clock()
                stack.pop()
                if counts is not None:
                    span[EXTRA] = counts(args, kwargs, result, exc)
                    if parent >= 0:
                        spans[parent][OVERHEAD] += clock() - span[END]

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def install(self, extra_modules=()) -> None:
        """Wrap every target at every module that holds it; raise if any
        reference to an original survives."""
        originals = {}
        for layer, modname, names, counts in TARGETS:
            mod = importlib.import_module(modname)
            for fname in names:
                fn = getattr(mod, fname)
                originals[id(fn)] = (fn, self.wrap(layer, fn, counts))
        holders = [m for n, m in list(sys.modules.items())
                   if n == "shimlift" or n.startswith("shimlift.")]
        holders += list(extra_modules)
        for mod in holders:
            for attr, value in list(vars(mod).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, hit[1])
        # the fixture registry holds some builders directly
        fixtures = sys.modules["shimlift.fixtures"]
        for key, (builder, meta) in list(fixtures.FIXTURES.items()):
            hit = originals.get(id(builder))
            if hit is not None and hit[0] is builder:
                fixtures.FIXTURES[key] = (hit[1], meta)
                self._patched.append((fixtures.FIXTURES, key, (builder, meta)))
        left = self._unwrapped_references(originals, holders)
        if left:
            self.uninstall()
            raise RuntimeError("tracer left original functions reachable: %s" % ", ".join(left))

    @staticmethod
    def _unwrapped_references(originals, holders) -> list[str]:
        left = []
        for mod in holders:
            for attr, value in vars(mod).items():
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    left.append("%s.%s" % (mod.__name__, attr))
        fixtures = sys.modules["shimlift.fixtures"]
        for key, (builder, _) in fixtures.FIXTURES.items():
            hit = originals.get(id(builder))
            if hit is not None and hit[0] is builder:
                left.append("FIXTURES[%r]" % key)
        return left

    def extend(self, spans: list) -> None:
        """Append spans recorded by another process, renumbering parents."""
        base = len(self.spans)
        for s in spans:
            if s[PARENT] >= 0:
                s[PARENT] += base
            self.spans.append(s)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patched):
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)
        self._patched.clear()


def summarize(spans: list) -> dict:
    """Per-layer totals: `calls` counts outermost spans of a name (a build
    that calls another build is one call), `self_s` sums the self time of
    every span, and counters add up over outermost spans."""
    n = len(spans)
    child_time = [0.0] * n
    convolve_child = [False] * n
    for s in spans:
        p = s[PARENT]
        if p >= 0:
            child_time[p] += s[END] - s[START]
            if s[NAME] == "intpoly.convolve":
                convolve_child[p] = True
    layers: dict[str, dict] = {}
    mul_packed = 0
    for i, s in enumerate(spans):
        name = s[NAME]
        row = layers.setdefault(name, {"calls": 0, "self_s": 0.0})
        row["self_s"] += (s[END] - s[START]) - child_time[i] - s[OVERHEAD]
        p = s[PARENT]
        while p >= 0 and spans[p][NAME] != name:
            p = spans[p][PARENT]
        if p >= 0:
            continue
        row["calls"] += 1
        extra = s[EXTRA] or {}
        for key in SUMMED.get(name, ()):
            row[key] = row.get(key, 0) + extra.get(key, 0)
        for key in MAXED.get(name, ()):
            row[key] = max(row.get(key, 0), extra.get(key, 0))
        if name == "qseries.mul" and convolve_child[i]:
            mul_packed += 1
    mul = layers.get("qseries.mul")
    if mul:
        mul["packed_ratio"] = mul_packed / mul["calls"]
    return layers


