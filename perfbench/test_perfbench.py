"""Tests of the benchmark harness itself, at tiny problem sizes."""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import roast
import roast.basis
import roast.cli
import roast.recovery
from roast.diagnostics import BoundLedger

from perfbench.layers import LAYERS, PER_LAYER
from perfbench.spans import SpanRecorder, traced_layers
from perfbench.workloads import TINY, WORKLOADS, run_workload

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(name, trace=False):
    return run_workload(name, seed=5, seconds=0.0, trace=trace, root=ROOT,
                        scale=TINY)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_emits_every_metric(name, trace):
    result, detail = _run(name, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, detail["failures"]
    assert result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        value = result["metrics"][m["name"]]
        assert value["unit"] == m["unit"]
        assert math.isfinite(value["value"])
        if not trace:
            assert value["value"] > 0
    assert set(detail["named"]) >= {"setup_s", "peak_rss_mb", "failed_frac"}


def test_benchmark_file_matches_layer_table():
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]} == PER_LAYER
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def _scaled_synthesis(original):
    return lambda basis, coeffs: 1.001 * original(basis, coeffs)


def _short_verify(original):
    return lambda *args, **kwargs: BoundLedger()


def _one_step_cg(original):
    return lambda op, rhs, tol=1e-8, max_iter=None, callback=None: original(
        op, rhs, tol=tol, max_iter=1)


@pytest.mark.parametrize("name, module, attr, corrupt", [
    ("apply", roast.basis, "apply_synthesis", _scaled_synthesis),
    ("verify", roast.cli, "capture_suite", _short_verify),
    ("recover", roast.recovery, "cgd_solve", _one_step_cg),
])
def test_checks_catch_wrong_output(monkeypatch, name, module, attr, corrupt):
    monkeypatch.setattr(module, attr, corrupt(getattr(module, attr)))
    result, detail = _run(name)
    assert not result["correct"]
    assert result["failed"] >= 1 and detail["failures"]


def _references() -> dict:
    refs = {}
    for mod_name, mod in list(sys.modules.items()):
        if isinstance(mod, types.ModuleType) and mod_name.split(".")[0] == "roast":
            for key, value in vars(mod).items():
                refs[(mod_name, key)] = value
                if isinstance(value, dict) and not key.startswith("__"):
                    refs.update({(mod_name, key, k): v for k, v in value.items()})
    refs.update({("RoastBasis", k): v for k, v in vars(roast.RoastBasis).items()})
    return refs


def test_traced_run_leaves_nothing_patched():
    before = _references()
    result, _ = _run("recover", trace=True)
    assert result["metrics"]["recovery.cgd_solve.self_s"]["value"] > 0
    after = _references()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_patching_is_undone_when_the_body_raises():
    before = _references()
    recorder = SpanRecorder()
    with pytest.raises(RuntimeError):
        with traced_layers(recorder, LAYERS):
            assert roast.recovery.cgd_solve is not before[("roast.recovery", "cgd_solve")]
            raise RuntimeError("boom")
    after = _references()
    assert all(after[k] is before[k] for k in before)


def test_self_time_excludes_children():
    recorder = SpanRecorder()
    with recorder.span("outer"):
        with recorder.span("inner"):
            pass
    agg = recorder.aggregate()
    outer, inner = recorder.spans
    assert agg["outer"]["self_s"] == pytest.approx(outer.duration - inner.duration)
    assert agg["inner"]["self_s"] == pytest.approx(inner.duration)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "apply",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert out.stdout == ""
