"""Full numerical verification suite for the approximation guarantees.

Runs every inequality the library is built to satisfy, across a fixed
(N, W) grid, and collects the results in a ledger.  The CLI ``verify``
command is a thin wrapper around :func:`full_verification`; the acceptance
tests call the granular suites directly.
"""

from __future__ import annotations

import math

import numpy as np

from .basis import (
    build_roast,
    build_roast_randomized,
    rank_for_average,
    rank_for_capture,
    rank_for_capture_angle,
    rank_for_pointwise,
    sketch_for_average,
    sketch_for_capture,
    sketch_for_capture_angle,
    sketch_for_pointwise,
)
from .diagnostics import (
    BoundLedger,
    dpss_capture_report,
    eigenvalue_concentration_report,
    integrated_residual,
    integrated_residual_quadrature,
    largest_angle_cos_direct,
    residual_path_bound,
    singular_decay_report,
    sinusoid_derivative_check,
    sinusoid_residual_sq,
    subspace_angle,
)
from .prolate import build_band_split, build_dpss, build_prolate

__all__ = [
    "DEFAULT_GRID",
    "core_grid_checks",
    "capture_suite",
    "average_suite",
    "pointwise_suite",
    "randomized_suite",
    "small_instance_checks",
    "full_verification",
]

DEFAULT_GRID = tuple((n, w) for n in (64, 256, 1024) for w in (0.1, 0.25, 0.4))
_CONCENTRATION_EPS = (1e-2, 1e-4)
_TAIL_RANKS = (5, 10, 20)


def core_grid_checks(n: int, w: float, dpss=None) -> BoundLedger:
    """Trace identity, eigenvalue bisection/concentration, singular decay."""
    ledger = BoundLedger()
    if dpss is None:
        dpss = build_dpss(n, w, n)
    lam = dpss.eigenvalues
    params = {"n": n, "w": w}

    ledger.add("trace_identity", abs(float(lam.sum()) - 2.0 * n * w), 1e-8, **params)
    lo = int(math.floor(2 * n * w)) - 1
    hi = int(math.ceil(2 * n * w))
    ledger.add("eigenvalue_bisection_lower", 0.5, float(lam[lo]),
               index=lo, **params)
    ledger.add("eigenvalue_bisection_upper", float(lam[hi]), 0.5,
               index=hi, **params)
    for eps in _CONCENTRATION_EPS:
        ledger.entries.append(
            eigenvalue_concentration_report(n, w, eps, eigenvalues=lam))

    report = singular_decay_report(n, w)
    ledger.add("singular_decay_violations", float(len(report.violations)), 0.0,
               **params)
    ledger.add("cross_operator_norm_below_one",
               float(report.singular_values[0]), 1.0 - 1e-12, **params)
    for r in _TAIL_RANKS:
        if r < len(report.singular_values):
            ledger.entries.append(report.tail_bound_entry(r))
    return ledger


def capture_suite(n: int, w: float, eps: float, r: int | None = None,
                  dpss=None, cross=None) -> BoundLedger:
    """Leading-DPSS capture at accuracy eps, with the angle bound at
    enlarged R.  Passing ``r`` overrides the sized rank (used to exercise
    the unsatisfied path)."""
    ledger = BoundLedger()
    if dpss is None:
        dpss = build_dpss(n, w, n)
    k = int(np.sum(dpss.eigenvalues >= eps))
    split = build_band_split(n, w)

    r_used = rank_for_capture(n, eps) if r is None else r
    r_used = min(r_used, split.n_high)
    basis = build_roast(n, w, r_used)
    report = dpss_capture_report(n, w, eps, basis, dpss=dpss, cross=cross)
    by_id = {e.check_id: e for e in report.entries}
    params = {"n": n, "w": w, "eps": eps, "k": k, "r": r_used}
    ledger.add("dpss_capture_spectral_sq_vs_eps",
               by_id["dpss_capture_spectral_sq"].lhs_value, eps, **params)
    ledger.add("dpss_capture_per_vector_vs_eps",
               by_id["dpss_capture_per_vector"].lhs_value, eps, **params)
    ledger.extend(report)

    r_angle = min(rank_for_capture_angle(n, eps) if r is None else r,
                  split.n_high)
    basis_angle = build_roast(n, w, r_angle) if r_angle != r_used else basis
    cos_theta = subspace_angle(dpss.vectors[:, :k], basis_angle).largest_angle_cos
    ledger.add("dpss_capture_angle_vs_eps", math.sqrt(1.0 - eps), cos_theta,
               n=n, w=w, eps=eps, k=k, r=r_angle)
    return ledger


def average_suite(n: int, w: float, eps: float, quad_nodes: int = 4096) -> BoundLedger:
    """Band-averaged normalized residual at the rank sized for eps, plus the
    trace/quadrature cross-check.

    The two paths may differ by the round-off of the trace path,
    dimension * eps * trace(B), on top of the relative tolerance.
    """
    ledger = BoundLedger()
    op = build_prolate(n, w)
    r = min(rank_for_average(n, eps), build_band_split(n, w).n_high)
    basis = build_roast(n, w, r)
    trace_val = integrated_residual(op, basis)
    quad_val = integrated_residual_quadrature(op, basis, nodes=quad_nodes)
    params = {"n": n, "w": w, "eps": eps, "r": r}
    ledger.add("average_residual_normalized", trace_val / n, eps, **params)
    floor = basis.dimension * np.finfo(float).eps * op.trace()
    ledger.add("residual_path_agreement", abs(trace_val - quad_val),
               residual_path_bound(trace_val, quad_val, abs_floor=floor),
               trace_value=trace_val, quad_value=quad_val, **params)
    return ledger


def pointwise_suite(n: int, w: float, eps: float, grid_size: int = 4096) -> BoundLedger:
    """Pointwise in-band residual relative to eps, and the derivative bound."""
    ledger = BoundLedger()
    op = build_prolate(n, w)
    r = min(rank_for_pointwise(n, w, eps), build_band_split(n, w).n_high)
    basis = build_roast(n, w, r)
    deriv_ledger = sinusoid_derivative_check(op, basis, grid_size=grid_size)
    by_id = {e.check_id: e for e in deriv_ledger.entries}
    ledger.add("pointwise_residual_vs_eps",
               by_id["pointwise_residual_from_average"].lhs_value, eps,
               n=n, w=w, eps=eps, r=r)
    ledger.extend(deriv_ledger)
    return ledger


def randomized_suite(n: int, w: float, eps: float, num_seeds: int = 20,
                     grid_size: int = 4096, dpss=None) -> BoundLedger:
    """Expectation-level guarantees for the sketched construction.

    For each of ``num_seeds`` seeds, builds one basis per sketch-width rule
    and checks the seed means: capture error and per-vector residual, the
    subspace-angle floor sqrt(1 - N*eps), the band-averaged residual, and
    the pointwise in-band residual.  Sketch widths are clamped to the
    out-of-band width when the sizing rule exceeds it; rules whose widths
    coincide share one build per seed.  Every diagnostic runs through the
    basis object, never its dense columns.  The average-width and pointwise
    bases of all seeds are kept and go through one ``sinusoid_residual_sq``
    call on the ``grid_size``-point in-band grid after the seed loop, so the
    Dirichlet ratio over the grid is formed once, not once per seed.  Each
    seed's band-averaged residual is the trapezoid of its residual curve
    over that grid, divided by N: the quadrature path, which resolves
    residuals that the trace path loses to the round-off of trace(B).
    Pivoted QR may keep fewer than P columns, so each entry records
    the kept R over the seeds as ``r_min`` and ``r_max``.  ``dpss`` may pass
    in the full Slepian solve at (n, w).
    """
    ledger = BoundLedger()
    split = build_band_split(n, w)
    if dpss is None:
        dpss = build_dpss(n, w, n)
    k = int(np.sum(dpss.eigenvalues >= eps))
    s_k = dpss.vectors[:, :k]
    p_cap = min(sketch_for_capture(n, eps), split.n_high)
    p_angle = min(sketch_for_capture_angle(n, eps), split.n_high)
    p_avg = min(sketch_for_average(n, eps), split.n_high)
    p_point = min(sketch_for_pointwise(n, w, eps), split.n_high)
    grid = np.linspace(-w, w, grid_size)

    widths = sorted({p_cap, p_angle, p_avg, p_point})
    spectral_sq, per_vec, cosines, avg_bases, point_bases = [], [], [], [], []
    kept = {p: [] for p in widths}
    for seed in range(num_seeds):
        for p in widths:
            basis = build_roast_randomized(n, w, p, seed)
            kept[p].append(basis.r)
            if p == p_cap:
                resid = s_k - basis.project(s_k)
                spectral_sq.append(np.linalg.svd(resid, compute_uv=False)[0] ** 2)
                per_vec.append(float(np.max(np.einsum("ij,ij->j", resid.conj(),
                                                      resid).real)))
            if p == p_angle:
                cosines.append(subspace_angle(s_k, basis).largest_angle_cos)
            if p == p_avg:
                avg_bases.append(basis)
            if p == p_point:
                point_bases.append(basis)
    curves = sinusoid_residual_sq(avg_bases + point_bases, n, grid)
    averages = np.trapezoid(curves[:num_seeds], grid, axis=1) / n
    point_curves = curves[num_seeds:]

    def common(p):
        return {"n": n, "w": w, "eps": eps, "p": p, "num_seeds": num_seeds,
                "r_min": min(kept[p]), "r_max": max(kept[p])}

    ledger.add("randomized_capture_spectral_sq_mean",
               float(np.mean(spectral_sq)), eps, k=k, **common(p_cap))
    ledger.add("randomized_capture_per_vector_mean",
               float(np.mean(per_vec)), eps, k=k, **common(p_cap))
    # the guaranteed floor involves the dimension; the stricter
    # dimension-free floor is recorded alongside for reference
    ledger.add("randomized_angle_mean", math.sqrt(max(1.0 - n * eps, 0.0)),
               float(np.mean(cosines)), k=k, strict_floor=math.sqrt(1.0 - eps),
               **common(p_angle))
    ledger.add("randomized_average_residual_mean",
               float(np.mean(averages)), eps, **common(p_avg))
    # pointwise residual: mean over seeds, then max over the in-band grid
    ledger.add("randomized_pointwise_residual_mean",
               float(np.max(point_curves.mean(axis=0)) / n), eps,
               grid_size=grid_size, **common(p_point))
    return ledger


def small_instance_checks(num_pairs: int = 100, dim: int = 16,
                          seed: int = 0) -> BoundLedger:
    """Direct small-matrix verification of the trace inequality and the
    equivalence of the two subspace-angle formulations."""
    ledger = BoundLedger()
    rng = np.random.default_rng(seed)

    worst = -np.inf
    for _ in range(num_pairs):
        a = rng.standard_normal((8, 12)) + 1j * rng.standard_normal((8, 12))
        b = rng.standard_normal((8, 12)) + 1j * rng.standard_normal((8, 12))
        lhs = abs(np.trace(a @ b.conj().T))
        rhs = float(np.sum(np.linalg.svd(a, compute_uv=False)
                           * np.linalg.svd(b, compute_uv=False)))
        worst = max(worst, lhs - rhs)
    ledger.add("trace_inequality_margin", worst, 0.0, num_pairs=num_pairs,
               shape=[8, 12])

    worst_gap = 0.0
    for _ in range(20):
        p = int(rng.integers(1, dim))
        q = int(rng.integers(1, dim))
        a = np.linalg.qr(rng.standard_normal((dim, p))
                         + 1j * rng.standard_normal((dim, p)))[0]
        b = np.linalg.qr(rng.standard_normal((dim, q))
                         + 1j * rng.standard_normal((dim, q)))[0]
        via_svd = subspace_angle(a, b).largest_angle_cos
        via_proj = largest_angle_cos_direct(a, b)
        worst_gap = max(worst_gap, abs(via_svd - via_proj))
    ledger.add("angle_definition_agreement", worst_gap, 1e-10, dim=dim)
    return ledger


def full_verification(grid=DEFAULT_GRID, detail_n: int = 512,
                      detail_w: float = 0.25, capture_eps: float = 1e-3,
                      average_eps: float = 1e-3, pointwise_eps: float = 1e-1,
                      randomized_eps: float = 1e-2, num_seeds: int = 20,
                      capture_r: int | None = None) -> BoundLedger:
    """Run the whole suite; the single entry point behind ``roast verify``."""
    ledger = BoundLedger()
    for n, w in grid:
        ledger.extend(core_grid_checks(n, w))
    # one full Slepian solve at the detail point serves both suites
    dpss = build_dpss(detail_n, detail_w, detail_n)
    ledger.extend(capture_suite(detail_n, detail_w, capture_eps, r=capture_r,
                                dpss=dpss))
    ledger.extend(average_suite(detail_n, detail_w, average_eps))
    ledger.extend(pointwise_suite(detail_n, detail_w, pointwise_eps))
    ledger.extend(randomized_suite(detail_n, detail_w, randomized_eps,
                                   num_seeds=num_seeds, dpss=dpss))
    ledger.extend(small_instance_checks())
    return ledger
