"""Smoke test of the benchmark itself.

    python3 -m pytest bench/test_smoke.py -q

Runs every workload at a tiny size, untraced and traced, and checks that
the result line names every metric of BENCHMARK.json with its unit.  Also
checks the tracer's bookkeeping and that the benchmark refuses to run
without the program's sources.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import tracer  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def _run(*args, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "bench", "run.py")] + [str(a) for a in args]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_present_with_its_unit(workload, trace):
    proc = _run("--workload", workload, "--seed", 7, "--seconds", 1, "--trace", trace, "--scale", 0.5)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in wanted}
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in wanted)
    report = json.loads(proc.stdout.splitlines()[-2])["report"]
    assert set(report["machine"]) >= {"nproc", "python", "numpy", "gmpy2_importable", "intpoly_multiplier"}


def test_refuses_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "cli_json", "--seed", 1, "--seconds", 1, "--trace", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_tracer_patches_every_importer_and_restores():
    from shimlift import cli, fixtures, qseries, shimura, verify

    originals = (fixtures.mul, verify.mul, fixtures.quadratic_L_neg, cli.main, shimura.shimura_St)
    rec = tracer.Tracer()
    rec.install()
    try:
        assert fixtures.mul is qseries.mul is verify.mul
        assert fixtures.mul.__wrapped__ is originals[0]
        assert fixtures.quadratic_L_neg.__wrapped__ is originals[2]
        assert fixtures.FIXTURES["hj4"][0].__wrapped__ is fixtures.weakly_holomorphic_product.__wrapped__
        rec.active = True
        rec.request = 0
        fixtures.fixture("cohen52", 50)
        rec.active = False
        fixtures.fixture("cohen52", 50)  # inactive: no spans
    finally:
        rec.uninstall()
    assert (fixtures.mul, verify.mul, fixtures.quadratic_L_neg, cli.main, shimura.shimura_St) == originals
    layers = tracer.summarize(rec.spans)
    assert layers["fixtures.build"]["calls"] == 1
    assert layers["fixtures.build"]["terms"] == 50
    assert layers["scalars.quadratic_L_neg"]["calls"] > 0


def test_summarize_self_time_and_outermost_counts():
    # mul [0, 10] -> convolve [1, 4]; build [20, 30] -> build [21, 25]
    spans = [
        ["qseries.mul", 0.0, 10.0, -1, 0, None, 0.5],
        ["intpoly.convolve", 1.0, 4.0, 0, 0, {"terms": 6, "max_bits": 9, "sign_products": 4}, 0.0],
        ["fixtures.build", 20.0, 30.0, -1, 1, {"terms": 100}, 0.0],
        ["fixtures.build", 21.0, 25.0, 2, 1, {"terms": 40}, 0.0],
        ["qseries.mul", 40.0, 41.0, -1, 2, None, 0.0],
    ]
    layers = tracer.summarize(spans)
    assert layers["qseries.mul"]["self_s"] == pytest.approx(10 - 3 - 0.5 + 1)
    assert layers["qseries.mul"]["packed_ratio"] == 0.5
    assert layers["fixtures.build"] == {"calls": 1, "self_s": pytest.approx(10.0), "terms": 100}
    assert layers["intpoly.convolve"]["sign_products"] == 4
