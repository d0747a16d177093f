"""Acceptance gate: every stated numerical guarantee at its stated tolerance.

One test per criterion; each prints a single PASS/FAIL line (visible with
``pytest -s`` or in captured output) and fails the suite if any sub-condition
is off.
"""

import math
import time

import numpy as np
import pytest

import roast
from dense_oracles import build_fst_analog
from roast import (
    apply_analysis,
    apply_synthesis,
    build_dpss,
    build_roast_randomized,
    build_subdft,
    cgd_solve,
    integrated_residual,
    integrated_residual_quadrature,
)
from roast.cli import _median_seconds, main
from roast.verify import (
    DEFAULT_GRID,
    average_suite,
    capture_suite,
    core_grid_checks,
    pointwise_suite,
    randomized_suite,
    residual_path_bound,
    small_instance_checks,
)

# Criterion 9 also counts an in-band frequency as agreeing when both the
# ROAST and the DPSS curve reach this SNR (relative residual about 3e-8):
# both projections are then far better than the figure resolves.  It is a
# chosen threshold, not the float64 floor, which residual_snr puts near
# 300 dB (residuals below 1e-15 of the signal norm).
SNR_SATURATION_DB = 150.0


def report(criterion: str, conditions):
    ok = all(flag for flag, _ in conditions)
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'}")
    for flag, message in conditions:
        if not flag:
            print(f"  unsatisfied: {message}")
    assert ok, f"criterion {criterion} failed"


def read_csv(path):
    columns, rows = None, []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            continue
        if columns is None:
            columns = line.split(",")
        else:
            rows.append([float(v) if i > 0 or columns[0] != "method" else v
                         for i, v in enumerate(line.split(","))])
    return columns, rows


def col(rows, columns, name):
    idx = columns.index(name)
    return np.array([row[idx] for row in rows])


def test_criterion_01_trace_identity_and_bisection(caches):
    conditions = []
    start = time.perf_counter()
    for n, w in DEFAULT_GRID:
        lam = caches.dpss(n, w).eigenvalues
        gap = abs(float(lam.sum()) - 2 * n * w)
        conditions.append((gap <= 1e-8, f"trace gap {gap:.2e} at ({n},{w})"))
        lo = int(math.floor(2 * n * w)) - 1
        hi = int(math.ceil(2 * n * w))
        conditions.append((lam[lo] >= 0.5 >= lam[hi],
                           f"bisection at ({n},{w}): {lam[lo]:.3f}, {lam[hi]:.3f}"))
    conditions.append((time.perf_counter() - start <= 30.0, "runtime over 30 s"))
    report("1 (trace identity, eigenvalue bisection)", conditions)


def test_criterion_02_eigenvalue_concentration(caches):
    conditions = []
    for n, w in DEFAULT_GRID:
        lam = caches.dpss(n, w).eigenvalues
        for eps in (1e-2, 1e-4):
            count = int(np.sum((lam >= eps) & (lam <= 1 - eps)))
            bound = 2 * roast.log_width_constant(n) * math.log(15 / eps)
            conditions.append((count <= bound,
                               f"({n},{w},{eps}): {count} > {bound:.1f}"))
    report("2 (eigenvalue concentration)", conditions)


def test_criterion_03_singular_decay(caches):
    conditions = []
    for n, w in DEFAULT_GRID:
        ledger = core_grid_checks(caches.dpss(n, w))
        [decay] = [e for e in ledger.entries
                   if e.check_id == "singular_decay_violations"]
        conditions.append((decay.satisfied,
                           f"{decay.lhs_value:.0f} decay violations at ({n},{w})"))
        tails = [e for e in ledger.entries if e.check_id == "singular_tail_geometric"]
        ranks = [r for r in (5, 10, 20) if r < roast.build_band_split(n, w).n_high]
        conditions.append(([e.params["r"] for e in tails] == ranks,
                           f"tail ranks at ({n},{w}): {[e.params['r'] for e in tails]}"))
        conditions += [(e.satisfied, f"tail bound at ({n},{w},R={e.params['r']}): "
                                     f"{e.lhs_value:.3e} > {e.rhs_bound:.3e}")
                       for e in tails]
    report("3 (singular decay and tail sums)", conditions)


def test_criterion_04_dpss_capture(caches):
    ledger = capture_suite(caches.dpss(512, 0.25), 1e-3)
    wanted = ("dpss_capture_spectral_sq_vs_eps", "dpss_capture_per_vector_vs_eps",
              "dpss_capture_angle_vs_eps")
    conditions = [(e.satisfied, f"{e.check_id}: {e.lhs_value:.3e} vs {e.rhs_bound:.3e}")
                  for e in ledger.entries if e.check_id in wanted]
    assert len(conditions) == 3
    report("4 (leading-subspace capture at eps=1e-3)", conditions)


def test_criterion_05_average_residual(caches):
    ledger = average_suite(512, 0.25, 1e-3)
    conditions = [(e.satisfied, f"{e.check_id}: {e.lhs_value:.3e} vs {e.rhs_bound:.3e}")
                  for e in ledger.entries]
    # the cross-check must also bite at strict relative tolerance where the
    # residual is well above round-off
    op = caches.op(512, 0.25)
    for q_like, label in ((caches.roast(512, 0.25, 5), "R=5"),
                          (build_subdft(512, 0.25, 27), "widened DFT")):
        tr = integrated_residual(op, q_like)
        qd = integrated_residual_quadrature(op, q_like)
        conditions.append((abs(tr - qd) <= 1e-4 * max(tr, qd),
                           f"strict path agreement at {label}"))
        conditions.append((abs(tr - qd) <= residual_path_bound(tr, qd, 1e-9),
                           f"floored path agreement at {label}"))
    report("5 (band-averaged residual, trace vs quadrature)", conditions)


def test_criterion_06_pointwise_residual():
    ledger = pointwise_suite(512, 0.25, 1e-1)
    conditions = [(e.satisfied, f"{e.check_id}: {e.lhs_value:.3e} vs {e.rhs_bound:.3e}")
                  for e in ledger.entries]
    report("6 (pointwise in-band residual, derivative bound)", conditions)


def test_criterion_07_randomized_means(caches):
    ledger = randomized_suite(caches.dpss(512, 0.25), 1e-2, num_seeds=20)
    conditions = [(e.satisfied, f"{e.check_id}: {e.lhs_value:.3e} vs {e.rhs_bound:.3e}")
                  for e in ledger.entries]
    assert len(conditions) == 5
    report("7 (sketched construction, 20-seed means)", conditions)


def test_criterion_08_fast_path_equivalence(caches, rng):
    basis = caches.roast(512, 0.25, 19)
    q = basis.dense_basis()
    worst_analysis = worst_synthesis = worst_project = worst_round = 0.0
    for _ in range(20):
        x = rng.standard_normal(512) + 1j * rng.standard_normal(512)
        c = rng.standard_normal(basis.dimension) + 1j * rng.standard_normal(basis.dimension)
        worst_analysis = max(worst_analysis,
                             np.max(np.abs(apply_analysis(basis, x) - q.conj().T @ x)))
        worst_synthesis = max(worst_synthesis,
                              np.max(np.abs(apply_synthesis(basis, c) - q @ c)))
        worst_project = max(worst_project,
                            np.max(np.abs(basis.project(x) - q @ (q.conj().T @ x))))
        worst_round = max(worst_round,
                          np.max(np.abs(apply_analysis(basis, apply_synthesis(basis, c)) - c)))
    conditions = [
        (worst_analysis <= 1e-10, f"analysis gap {worst_analysis:.2e}"),
        (worst_synthesis <= 1e-10, f"synthesis gap {worst_synthesis:.2e}"),
        (worst_project <= 1e-10, f"projection gap {worst_project:.2e}"),
        (worst_round <= 1e-10, f"round-trip gap {worst_round:.2e}"),
    ]
    report("8 (fast paths match dense oracles)", conditions)


def test_criterion_09_figure_shapes(caches, tmp_path):
    n, w, r = 1024, 0.25, 27
    conditions = []

    sweep_path = tmp_path / "sweep.csv"
    assert main(["sweep-sinusoid", "--n", str(n), "--w", str(w), "--r", str(r),
                 "--seed", "1234", "--grid", "2048", "--out", str(sweep_path)]) == 0
    columns, rows = read_csv(sweep_path)
    freqs = col(rows, columns, "f")
    inband = np.abs(freqs) <= w
    snr_roast = col(rows, columns, "snr_roast")[inband]
    snr_dpss = col(rows, columns, "snr_dpss")[inband]
    close = np.abs(snr_roast - snr_dpss) <= 3.0
    saturated = np.minimum(snr_roast, snr_dpss) >= SNR_SATURATION_DB
    fraction = float(np.mean(close | saturated))
    conditions.append((fraction >= 0.95,
                       f"in-band agreement fraction {fraction:.3f} < 0.95"))

    bl_path = tmp_path / "bandlimited.csv"
    assert main(["bandlimited-snr", "--n", str(n), "--w", str(w), "--seed", "1234",
                 "--tones", "10000", "--r-max", "30", "--out", str(bl_path)]) == 0
    columns, rows = read_csv(bl_path)
    curve = col(rows, columns, "snr_roast")
    sub_curve = col(rows, columns, "snr_subdft")
    conditions.append((bool(np.all(np.diff(curve) >= 0)),
                       "SNR not non-decreasing in R"))
    conditions.append((curve[30] >= sub_curve[30],
                       f"at R=30: {curve[30]:.1f} dB < widened-DFT {sub_curve[30]:.1f} dB"))

    op = caches.op(n, w)
    resid_fbf = integrated_residual(op, roast.build_roast(n, w, r, "svd_fbf"))
    resid_sub = integrated_residual(op, build_subdft(n, w, r))
    conditions.append((resid_fbf < resid_sub,
                       f"integrated residual {resid_fbf:.3e} not below {resid_sub:.3e}"))
    report("9 (figure-shaped properties at N=1024)", conditions)


def test_criterion_10_scaling():
    conditions = []
    rng = np.random.default_rng(0)

    def analysis(n):
        r = int(math.floor(3 * math.log(n)))
        basis = build_roast_randomized(n, 0.25, r, seed=7)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        return lambda: apply_analysis(basis, x)

    # both bases first, then the sizes alternate over three rounds, so a
    # load that comes and goes on a shared host falls on both sides; each
    # side reads its median round
    calls = [analysis(1024), analysis(8192)]
    t_small, t_big = np.median([[_median_seconds(c) for c in calls]
                                for _ in range(3)], axis=0)
    ratio = t_big / t_small
    conditions.append((ratio <= 16.0,
                       f"apply-time ratio {ratio:.1f} (t8192={t_big*1e6:.0f}us, "
                       f"t1024={t_small*1e6:.0f}us)"))

    def dpss_time(n):
        k = 2 * int(n * 0.25) + 1 + int(math.floor(3 * math.log(n)))
        t0 = time.perf_counter()
        build_dpss(n, 0.25, k)
        return time.perf_counter() - t0

    p_small, p_big = dpss_time(1024), dpss_time(4096)
    p_ratio = p_big / p_small
    conditions.append((p_ratio >= 8.0,
                       f"precompute ratio {p_ratio:.1f} "
                       f"(t4096={p_big:.2f}s, t1024={p_small:.2f}s)"))
    report("10 (apply-time and precompute scaling)", conditions)


def test_criterion_11_cg_conditioning(caches):
    n, w, m, r = 512, 0.25, 384, 19
    basis = caches.roast(n, w, r)
    t1, t2 = build_fst_analog(n, w, r)
    assert t2.shape[1] == basis.dimension
    t2_h = t2.conj().T  # one conjugated copy, not one per CG step
    wins = 0
    details = []
    for seed in range(10):
        rng = np.random.default_rng(seed)
        phi = (rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n)))
        phi /= np.sqrt(2.0 * m)
        truth = roast.random_bandlimited(n, w, 500, seed).samples
        y = phi @ truth
        phi_h = phi.conj().T  # one conjugated copy per seed, not per step

        def iterations(synth, analyze, dim):
            def normal_op(a):
                return analyze(phi_h @ (phi @ synth(a)))
            return cgd_solve(normal_op, analyze(phi_h @ y), tol=1e-8,
                             max_iter=4 * dim).iterations

        it_q = iterations(basis.synthesize, basis.analyze, basis.dimension)
        it_t = iterations(lambda a: t2 @ a, lambda x: t2_h @ x, t2.shape[1])
        wins += int(it_q < it_t)
        details.append((it_q, it_t))
    conditions = [(wins >= 9, f"orthonormal basis faster on {wins}/10 seeds: {details}")]
    report("11 (CG conditioning advantage)", conditions)


def test_criterion_12_small_instance_oracles(rng):
    ledger = small_instance_checks()
    conditions = [(e.satisfied, f"{e.check_id}: {e.lhs_value:.3e} vs {e.rhs_bound:.3e}")
                  for e in ledger.entries]
    report("12 (trace inequality, angle definitions)", conditions)
