"""The benchmark's four workloads and the loop that times them.

Every workload is a closed loop in one process: each call into ``roast``
starts when the previous one has returned.  Inputs come from the workload
seed; ``roast`` sees only the generated inputs.  W = 0.25 and
R = floor(3 ln N) throughout.

- ``apply``: analysis and synthesis of single vectors and projection of
  32-column blocks through one randomized basis at N = 65536.  The FFT,
  gather and V^H product at a size where memory bandwidth dominates; no
  builder or diagnostic runs inside the timed calls.
- ``build``: ``build_roast`` (svd_fb at N = 1024 and 4096, either side of the
  dense-SVD limit; svd_fbf at 2048), ``build_roast_randomized`` at 65536 and
  ``build_dpss`` at 2048 with k = N/2.  The prolate matvec, the tridiagonal
  eigensolve and the basis builders.
- ``verify``: ``roast verify`` end to end through the CLI entry point.  The
  reproducibility path, dominated by diagnostics and the verify suites.
- ``recover``: ``recovery_experiment`` at N = 1024 with a randomized basis.
  Small-N analysis and synthesis in a latency-bound CG loop.

Set-up is what a user pays before the first call: a fresh interpreter
importing ``roast`` plus the workload's inputs.  It runs several times per
run and its median is reported.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import roast
import roast.cli
import roast.diagnostics

from .layers import LAYERS, PER_LAYER, layer_metrics
from .spans import SpanRecorder, traced_layers

W = 0.25

# roast.diagnostics refuses a basis whose Gram matrix deviates from the
# identity by more than 1e-8 before computing any residual.  analyze after
# synthesize is (Q^* Q) c, so the same tolerance bounds the round trip.
ORTHO_TOL = 1e-8
# recovery_experiment's CG tolerance on the normal-equation residual.  The
# iterate then lies within cond * tol of the least-squares solution, so the
# recovery error may exceed that of a dense least-squares solve by at most
# cond * tol, cond being the experiment's own condition estimate.
CG_TOL = 1e-8


def rank(n: int) -> int:
    return int(math.floor(3.0 * math.log(n)))


@dataclass(frozen=True)
class Scale:
    """Problem sizes; FULL is the benchmark, TINY keeps the tests fast."""

    apply_n: int = 65536
    apply_signals: int = 4
    apply_tones: int = 32
    project_cols: int = 32
    fb_small_n: int = 1024
    fb_large_n: int = 4096
    fbf_n: int = 2048
    randomized_n: int = 65536
    dpss_n: int = 2048
    probe_tones: int = 64
    verify_args: tuple = ()
    verify_checks: int = 107
    recover_n: int = 1024
    recover_m: int = 768
    recover_seeds: int = 3
    setup_repeats: int = 3


FULL = Scale()
TINY = replace(FULL, apply_n=1024, apply_signals=2, project_cols=4,
               fb_small_n=128, fb_large_n=256, fbf_n=128, randomized_n=1024,
               dpss_n=128, verify_args=("--single-point", "--n", "64",
                                        "--seeds", "2"),
               verify_checks=16, recover_n=128, recover_m=96,
               recover_seeds=2, setup_repeats=1)


@dataclass
class Session:
    """Timed calls and output checks of one run."""

    recorder: SpanRecorder | None = None
    calls: list = field(default_factory=list)   # (kind, seconds) this round
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)

    def call(self, kind: str, fn, *args, **kwargs):
        if self.recorder is None:
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            self.calls.append((kind, time.perf_counter() - t0))
        else:
            with self.recorder.span(f"harness.{kind}") as span:
                out = fn(*args, **kwargs)
            self.calls.append((kind, span.duration))
        return out

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)


def _seeds(seed: int, count: int) -> list[int]:
    return [int(s) for s in np.random.default_rng(seed).integers(0, 2**31, count)]


def _gram_deviation(v: np.ndarray) -> float:
    return float(np.max(np.abs(v.conj().T @ v - np.eye(v.shape[1]))))


def _rel(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


class Workload:
    """``prepare`` makes the inputs (timed as set-up), ``after_setup`` runs
    untimed checks and warm-up, ``round`` makes the timed calls, ``named``
    derives the workload's own metrics from the per-kind median seconds."""

    kinds: tuple = ()

    def after_setup(self, session: Session, state: dict) -> None:
        pass


class Apply(Workload):
    kinds = ("analyze", "synthesize", "project")

    def prepare(self, scale: Scale, seed: int, root: Path):
        n = scale.apply_n
        basis = roast.build_roast_randomized(n, W, rank(n), seed)
        sig_seeds = _seeds(seed, scale.apply_signals + 1)
        signals = [roast.random_bandlimited(n, W, scale.apply_tones, s).samples
                   for s in sig_seeds[:-1]]
        block = np.column_stack([signals[j % len(signals)]
                                 for j in range(scale.project_cols)])
        probe = roast.random_bandlimited(n, W, scale.probe_tones, sig_seeds[-1]).samples
        return {"basis": basis, "signals": signals, "block": block, "probe": probe}

    def after_setup(self, session: Session, state: dict) -> None:
        basis = state["basis"]
        session.check(_gram_deviation(basis.v) <= ORTHO_TOL, "apply: V not orthonormal")
        basis.synthesize(basis.analyze(state["signals"][0]))  # warm FFT caches
        basis.project(state["block"])
        state["snr"] = roast.residual_snr(basis, state["probe"])

    def round(self, session: Session, state: dict) -> None:
        basis = state["basis"]
        outputs = []
        for x in state["signals"]:
            c = session.call("analyze", basis.analyze, x)
            outputs.append((c, session.call("synthesize", basis.synthesize, c)))
        projected = session.call("project", basis.project, state["block"])
        c, y = outputs[0]
        session.check(_rel(basis.analyze(y), c) <= ORTHO_TOL,
                      "apply: analyze(synthesize(c)) != c")
        session.check(_rel(projected[:, 0], y) <= ORTHO_TOL,
                      "apply: block projection differs from the vector path")

    def named(self, medians: dict, scale: Scale, state: dict) -> dict:
        return {"analyze_per_s": 1.0 / medians["analyze"],
                "synthesize_per_s": 1.0 / medians["synthesize"],
                "project_cols_per_s": scale.project_cols / medians["project"],
                "min_snr_db": state["snr"]}


class Build(Workload):
    kinds = ("build_fb_small", "build_fb_large", "build_fbf",
             "build_randomized", "build_dpss")

    def prepare(self, scale: Scale, seed: int, root: Path):
        sizes = {scale.fb_small_n, scale.fb_large_n, scale.fbf_n,
                 scale.randomized_n, scale.dpss_n}
        probes = {n: roast.random_bandlimited(n, W, scale.probe_tones, s).samples
                  for n, s in zip(sorted(sizes), _seeds(seed, len(sizes)))}
        return {"scale": scale, "seed": seed, "probes": probes, "snr": {}}

    def round(self, session: Session, state: dict) -> None:
        s = state["scale"]
        built = {
            "svd_fb": session.call("build_fb_small", roast.build_roast,
                                   s.fb_small_n, W, rank(s.fb_small_n), "svd_fb"),
            "svd_fb_large": session.call("build_fb_large", roast.build_roast,
                                         s.fb_large_n, W, rank(s.fb_large_n), "svd_fb"),
            "svd_fbf": session.call("build_fbf", roast.build_roast,
                                    s.fbf_n, W, rank(s.fbf_n), "svd_fbf"),
            "randomized": session.call("build_randomized", roast.build_roast_randomized,
                                       s.randomized_n, W, rank(s.randomized_n),
                                       state["seed"]),
        }
        dpss = session.call("build_dpss", roast.build_dpss, s.dpss_n, W, s.dpss_n // 2)
        for label, basis in built.items():
            session.check(_gram_deviation(basis.v) <= ORTHO_TOL,
                          f"build: {label} V not orthonormal")
        session.check(_gram_deviation(dpss.vectors) <= ORTHO_TOL,
                      "build: DPSS vectors not orthonormal")
        if not state["snr"]:
            for label, basis in built.items():
                state["snr"][label] = roast.residual_snr(basis, state["probes"][basis.n])
            state["snr"]["dpss"] = roast.residual_snr(dpss, state["probes"][dpss.n])

    def named(self, medians: dict, scale: Scale, state: dict) -> dict:
        # DPSS at k = N/2 keeps fewer vectors than the band has DFT columns,
        # so its SNR measures that choice of k and is reported on its own
        roast_snr = min(v for k, v in state["snr"].items() if k != "dpss")
        return {**{f"{kind}_s": medians[kind] for kind in self.kinds},
                "min_snr_db": roast_snr, "dpss_snr_db": state["snr"]["dpss"]}


class Verify(Workload):
    kinds = ("verify",)

    def prepare(self, scale: Scale, seed: int, root: Path):
        out = root / ".perfbench" / "verify-ledger.json"
        out.parent.mkdir(exist_ok=True)
        return {"argv": ["verify", *scale.verify_args, "--out", str(out)],
                "out": out, "expected": scale.verify_checks, "checks": 0}

    def round(self, session: Session, state: dict) -> None:
        with contextlib.redirect_stdout(io.StringIO()):
            code = session.call("verify", roast.cli.main, state["argv"])
        ledger = roast.diagnostics.BoundLedger.from_json(state["out"].read_text())
        state["checks"] = len(ledger.entries)
        session.check(code == 0, f"verify: exit code {code}")
        session.check(ledger.all_satisfied, "verify: ledger not all satisfied")
        session.check(len(ledger.entries) == state["expected"],
                      f"verify: {len(ledger.entries)} ledger entries, "
                      f"expected {state['expected']}")

    def named(self, medians: dict, scale: Scale, state: dict) -> dict:
        return {"verify_s": medians["verify"], "verify_checks": state["checks"]}


class Recover(Workload):
    kinds = ("recover",)

    def prepare(self, scale: Scale, seed: int, root: Path):
        return {"scale": scale, "seeds": _seeds(seed, scale.recover_seeds),
                "errors": []}

    def after_setup(self, session: Session, state: dict) -> None:
        """Dense least-squares recovery through the same basis: the oracle."""
        s = state["scale"]
        state["oracle"] = {}
        for seed in state["seeds"]:
            problem = roast.build_recovery_problem(s.recover_n, W, s.recover_m, seed)
            q = roast.build_roast_randomized(s.recover_n, W, rank(s.recover_n),
                                             seed).dense_basis()
            coeffs = np.linalg.lstsq(problem.phi @ q, problem.y, rcond=None)[0]
            state["oracle"][seed] = _rel(q @ coeffs, problem.truth)

    def round(self, session: Session, state: dict) -> None:
        s = state["scale"]
        for seed in state["seeds"]:
            report = session.call("recover", roast.recovery_experiment, s.recover_n,
                                  W, s.recover_m, "roast_randomized", seed,
                                  tol=CG_TOL)
            state["errors"].append(report.relative_error)
            limit = state["oracle"][seed] + report.condition_estimate * CG_TOL
            session.check(report.converged, f"recover: CG did not converge (seed {seed})")
            session.check(report.relative_error <= limit,
                          f"recover: relative error {report.relative_error:.3e} "
                          f"above {limit:.3e} (seed {seed})")

    def named(self, medians: dict, scale: Scale, state: dict) -> dict:
        return {"recover_s": medians["recover"],
                "min_snr_db": -20.0 * math.log10(max(state["errors"]))}


WORKLOADS = {"apply": Apply, "build": Build, "verify": Verify, "recover": Recover}


def _fresh_import(src: Path) -> None:
    env = dict(os.environ, PYTHONPATH=str(src))
    subprocess.run([sys.executable, "-c", "import roast"], env=env, check=True,
                   timeout=120)


def _summary(seconds: list) -> dict:
    """Median, and the highest percentile with ten samples beyond it."""
    ordered = sorted(seconds)
    out = {"n": len(ordered), "median_s": statistics.median(ordered),
           "min_s": ordered[0], "max_s": ordered[-1]}
    if len(ordered) > 10:
        out["tail_pct"] = 100.0 * (len(ordered) - 10) / len(ordered)
        out["tail_s"] = ordered[-11]
    return out


def _rounds(step, seconds: float) -> None:
    """Call ``step`` until starting another would overrun ``seconds``."""
    start = time.perf_counter()
    durations = []
    while True:
        t0 = time.perf_counter()
        step()
        durations.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.median(durations) > seconds:
            return


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 root: Path, scale: Scale = FULL) -> tuple[dict, dict]:
    """Run one workload; return (result line, detail record)."""
    workload = WORKLOADS[name]()
    session = Session()
    setups = []
    for _ in range(scale.setup_repeats):
        t0 = time.perf_counter()
        _fresh_import(root / "src")
        state = workload.prepare(scale, seed, root)
        setups.append(time.perf_counter() - t0)
    workload.after_setup(session, state)

    samples = defaultdict(list)
    round_calls = {False: [], True: []}
    recorder = SpanRecorder()

    def one_round(traced: bool) -> None:
        session.calls = []
        session.recorder = recorder if traced else None
        if traced:
            with traced_layers(recorder, LAYERS):
                workload.round(session, state)
        else:
            workload.round(session, state)
        session.recorder = None
        round_calls[traced].append(sum(dt for _, dt in session.calls))
        if not traced:
            for kind, dt in session.calls:
                samples[kind].append(dt)

    if trace:
        # an untimed first round, so that both sides of the tracing overhead
        # compare warm rounds
        workload.round(session, state)
        _rounds(lambda: (one_round(False), one_round(True)), seconds)
    else:
        _rounds(lambda: one_round(False), seconds)

    medians = {kind: statistics.median(samples[kind]) for kind in workload.kinds}
    setup_s = statistics.median(setups)
    call_ms = 1e3 * math.exp(statistics.fmean(math.log(medians[k]) for k in workload.kinds))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    detail = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "rounds": len(round_calls[False]),
        "calls": {k: _summary(v) for k, v in samples.items()},
        "named": {"setup_s": setup_s, "peak_rss_mb": peak_rss_mb,
                  "failed_frac": session.failed / max(session.attempted, 1),
                  **workload.named(medians, scale, state)},
        "failures": session.failures[:10],
    }
    if trace:
        metrics = layer_metrics(recorder, len(round_calls[True]),
                                statistics.fmean(round_calls[False]),
                                statistics.fmean(round_calls[True]))
        units = {k: unit for k, (unit, _) in PER_LAYER.items()}
        detail["spans"] = recorder.to_list()
    else:
        metrics = {"setup_s": setup_s, "call_ms": call_ms, "peak_rss_mb": peak_rss_mb}
        units = {"setup_s": "s", "call_ms": "ms", "peak_rss_mb": "MB"}
    result = {"correct": session.failed == 0, "attempted": session.attempted,
              "failed": session.failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    return result, detail
