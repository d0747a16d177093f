"""The traced layers of ``roast`` and the per-layer metrics drawn from them.

Each layer is a public function of one module of ``src/roast``; its span is
named ``<module>.<function>``.  Counter hooks attach sizes at the same
boundary, so flop and byte counts are computed where the work happens.
Flop and byte counts follow the paper's cost model and are labelled as
computed, not measured: an FFT of length N costs about 5 N log2 N flops, the
skinny product with V about 8 n_high R flops, and one apply moves about
16 (N + n_high R) bytes.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

from .spans import Layer


def _apply_counts(args, kwargs, result):
    basis, arr = args[0], args[1]
    n, n_high, r = basis.n, basis.split.n_high, basis.r
    cols = 1 if np.ndim(arr) == 1 else int(np.shape(arr)[1])
    return {"vectors": cols, "single": int(np.ndim(arr) == 1), "n": n,
            "fft_flops": 5.0 * n * math.log2(n) * cols,
            "skinny_flops": 8.0 * n_high * r * cols,
            "model_bytes": 16.0 * (n + n_high * r) * cols}


def _sketch_counts(args, kwargs, result):
    p = args[2] if len(args) > 2 else kwargs["p"]
    return {"kept": result.r, "requested": p, "dense_bytes": 16 * result.n * p}


LAYERS = (
    Layer("prolate.prolate_apply", "roast.prolate:prolate_apply"),
    Layer("prolate.build_dpss", "roast.prolate:build_dpss",
          lambda a, k, res: {"dense_bytes": 8 * res.n * res.k}),
    Layer("prolate.random_bandlimited", "roast.prolate:random_bandlimited"),
    Layer("basis.apply_analysis", "roast.basis:apply_analysis", _apply_counts),
    Layer("basis.apply_synthesis", "roast.basis:apply_synthesis", _apply_counts),
    Layer("basis.cross_operator_dense", "roast.basis:cross_operator_dense",
          lambda a, k, res: {"bytes_computed": res.nbytes}),
    Layer("basis.build_roast", "roast.basis:build_roast",
          lambda a, k, res: {"dense_bytes": 16 * res.split.n_high * res.n}),
    Layer("basis.build_roast_randomized", "roast.basis:build_roast_randomized",
          _sketch_counts),
    Layer("basis.dense_basis", "roast.basis:RoastBasis.dense_basis"),
    Layer("basis.dft_columns", "roast.basis:dft_columns"),
    *(Layer(f"diagnostics.{fn}", f"roast.diagnostics:{fn}") for fn in (
        "singular_decay_report", "integrated_residual",
        "integrated_residual_quadrature", "sinusoid_derivative_check",
        "dpss_capture_report", "subspace_angle")),
    *(Layer(f"verify.{fn}", f"roast.verify:{fn}") for fn in (
        "core_grid_checks", "capture_suite", "average_suite",
        "pointwise_suite", "randomized_suite", "small_instance_checks")),
    Layer("recovery.build_recovery_problem", "roast.recovery:build_recovery_problem"),
    Layer("recovery.cgd_solve", "roast.recovery:cgd_solve",
          lambda a, k, res: {"iterations": res.iterations}),
    Layer("recovery.condition_estimate", "roast.recovery:condition_estimate"),
    Layer("recovery.recovery_experiment", "roast.recovery:recovery_experiment"),
    Layer("cli.run_verify", "roast.cli:run_verify"),
)

_WITH_CALLS = ("prolate.prolate_apply", "prolate.build_dpss",
               "prolate.random_bandlimited", "basis.apply_analysis",
               "basis.apply_synthesis", "basis.cross_operator_dense",
               "basis.build_roast", "basis.build_roast_randomized",
               "basis.dense_basis", "basis.dft_columns")
_APPLY = ("basis.apply_analysis", "basis.apply_synthesis")


def _per_layer_table() -> dict[str, tuple[str, str]]:
    """Metric name -> (unit, better), in the order of BENCHMARK.json."""
    table = {}
    for layer in LAYERS:
        table[f"{layer.name}.self_s"] = ("s", "lower")
        if layer.name in _WITH_CALLS:
            table[f"{layer.name}.calls"] = ("count", "lower")
        if layer.name in _APPLY:
            table[f"{layer.name}.us_per_call"] = ("us", "lower")
            if layer.name == "basis.apply_analysis":
                table[f"{layer.name}.fft_ratio"] = ("ratio", "lower")
            table[f"{layer.name}.fft_flops"] = ("flop", "lower")
            table[f"{layer.name}.skinny_flops"] = ("flop", "lower")
            table[f"{layer.name}.model_bytes"] = ("B", "lower")
            table[f"{layer.name}.gflop_per_s"] = ("GFLOP/s", "higher")
    table.update({
        "basis.cross_operator_dense.bytes_computed": ("B", "lower"),
        "basis.build_roast_randomized.kept_ratio": ("ratio", "higher"),
        "basis.largest_dense_bytes": ("B", "lower"),
        "recovery.cgd_solve.iterations": ("count", "lower"),
        "trace.calls_s": ("s", "lower"),
        "trace.traced_calls_s": ("s", "lower"),
        "trace.overhead_s": ("s", "lower"),
        "trace.layers_self_s": ("s", "lower"),
        "trace.harness_self_s": ("s", "lower"),
    })
    return table


PER_LAYER = _per_layer_table()


def _fft_seconds(n: int, repeats: int = 21) -> float:
    x = np.random.default_rng(0).standard_normal(n) + 0j
    np.fft.fft(x)
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        np.fft.fft(x)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def layer_metrics(recorder, traced_rounds: int, calls_s: float,
                  traced_calls_s: float) -> dict:
    """Every PER_LAYER value.  Self times and call counts are per traced
    round; ``us_per_call`` and ``fft_ratio`` cover single-vector calls;
    flop and byte counts are per vector; layers a workload never reaches
    read 0."""
    agg = recorder.aggregate()
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "sum": {}, "max": {}}
    out = {}
    for name in PER_LAYER:
        layer, _, field = name.rpartition(".")
        a = agg.get(layer, empty)
        if field == "self_s":
            out[name] = a["self_s"] / traced_rounds
        elif field == "calls":
            out[name] = a["calls"] / traced_rounds
    singles = {layer: [s for s in recorder.spans
                       if s.name == layer and s.attrs.get("single")]
               for layer in _APPLY}
    for layer in _APPLY:
        a = agg.get(layer, empty)
        vectors = a["sum"].get("vectors", 0)
        flops = a["sum"].get("fft_flops", 0.0) + a["sum"].get("skinny_flops", 0.0)
        out[f"{layer}.us_per_call"] = (
            1e6 * statistics.fmean(s.duration for s in singles[layer])
            if singles[layer] else 0.0)
        for key in ("fft_flops", "skinny_flops", "model_bytes"):
            out[f"{layer}.{key}"] = a["sum"].get(key, 0.0) / max(vectors, 1)
        out[f"{layer}.gflop_per_s"] = flops / a["total_s"] / 1e9 if a["total_s"] else 0.0

    ratio = 0.0
    if singles["basis.apply_analysis"]:
        spans = singles["basis.apply_analysis"]
        n = statistics.mode(s.attrs["n"] for s in spans)
        per_call = statistics.median(s.duration for s in spans if s.attrs["n"] == n)
        ratio = per_call / _fft_seconds(n)
    out["basis.apply_analysis.fft_ratio"] = ratio

    cross = agg.get("basis.cross_operator_dense", empty)
    out["basis.cross_operator_dense.bytes_computed"] = (
        cross["sum"].get("bytes_computed", 0) / traced_rounds)
    sketch = agg.get("basis.build_roast_randomized", empty)
    requested = sketch["sum"].get("requested", 0)
    out["basis.build_roast_randomized.kept_ratio"] = (
        sketch["sum"].get("kept", 0) / requested if requested else 0.0)
    out["basis.largest_dense_bytes"] = max(
        (a["max"].get("dense_bytes", 0) for a in agg.values()), default=0)
    cg = agg.get("recovery.cgd_solve", empty)
    out["recovery.cgd_solve.iterations"] = (
        cg["sum"].get("iterations", 0) / cg["calls"] if cg["calls"] else 0.0)

    harness = sum(a["self_s"] for name, a in agg.items() if name.startswith("harness."))
    layers = sum(a["self_s"] for name, a in agg.items() if not name.startswith("harness."))
    out["trace.calls_s"] = calls_s
    out["trace.traced_calls_s"] = traced_calls_s
    out["trace.overhead_s"] = traced_calls_s - calls_s
    out["trace.layers_self_s"] = layers / traced_rounds
    out["trace.harness_self_s"] = harness / traced_rounds
    return {name: out[name] for name in PER_LAYER}
