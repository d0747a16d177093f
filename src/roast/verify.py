"""Full numerical verification suite for the approximation guarantees.

Runs every inequality the library is built to satisfy, across a fixed
(N, W) grid; ``roast verify`` wraps ``full_verification``.  The numbers come
from ``roast.diagnostics``; this module states each bound and writes every
ledger entry.  Suites that read Slepian vectors take the full solve and read
N and W from it.
"""

from __future__ import annotations

import math

import numpy as np

from .basis import (
    _sketch,
    _sketch_basis,
    build_roast,
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
    _BAND_NODES,
    _FD_STEP,
    _LEDGER_SLACK,
    BoundLedger,
    _band_grid,
    _capture_errors,
    _checked_basis,
    _full_solve,
    _leading_slepian_rows,
    dpss_capture_report,
    integrated_residual,
    integrated_residual_quadrature,
    largest_angle_cos_direct,
    singular_decay_report,
    sinusoid_derivative_check,
    sinusoid_residual_sq,
    subspace_angle,
)
from .prolate import build_band_split, build_dpss, build_prolate, log_width_constant

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
_NUM_PAIRS = 100


def core_grid_checks(dpss) -> BoundLedger:
    """Trace identity, eigenvalue bisection and concentration, and the cross
    operator's singular values against 15 exp(-i / C_N) and its tail sums;
    an entry whose index leaves the spectrum is not written."""
    ledger = BoundLedger()
    n, w = _full_solve(dpss)
    lam = dpss.eigenvalues
    params = {"n": n, "w": w}
    c_n = log_width_constant(n)

    ledger.add("trace_identity", abs(float(lam.sum()) - 2.0 * n * w), 1e-8, **params)
    lo = int(math.floor(2 * n * w)) - 1
    hi = int(math.ceil(2 * n * w))
    if lo >= 0:
        ledger.add("eigenvalue_bisection_lower", 0.5, float(lam[lo]),
                   index=lo, **params)
    if hi < n:
        ledger.add("eigenvalue_bisection_upper", float(lam[hi]), 0.5,
                   index=hi, **params)
    for eps in _CONCENTRATION_EPS:
        ledger.add("eigenvalue_concentration",
                   np.count_nonzero((lam >= eps) & (lam <= 1.0 - eps)),
                   2.0 * c_n * math.log(15.0 / eps), eps=eps, **params)

    sigma = singular_decay_report(n, w)
    envelope = 15.0 * np.exp(-np.arange(len(sigma)) / c_n)
    ledger.add("singular_decay_violations",
               np.count_nonzero(sigma > envelope + _LEDGER_SLACK), 0.0, **params)
    if sigma.size:
        ledger.add("cross_operator_norm_below_one", sigma[0], 1.0 - 1e-12, **params)
    for r in _TAIL_RANKS:
        if r < len(sigma):
            ledger.add("singular_tail_geometric", np.sum(sigma[r:]),
                       15.0 * math.exp(-(r - 1) / c_n) * c_n, r=r, **params)
    return ledger


def capture_suite(dpss, eps: float) -> BoundLedger:
    """Leading-DPSS capture at accuracy eps against eps and against the
    deflation residual eta, the angle cosine above sqrt(1 - N eta), then the
    angle bound at enlarged R."""
    ledger = BoundLedger()
    n, w = _full_solve(dpss)
    split = build_band_split(n, w)
    k, x = _leading_slepian_rows(dpss, eps, split)

    r_used = min(rank_for_capture(n, eps), split.n_high)
    basis = build_roast(n, w, r_used)
    eta, capture_sq, per_vector, cos_theta = dpss_capture_report(dpss, eps, basis)
    params = {"n": n, "w": w, "eps": eps, "k": k, "r": r_used}
    ledger.add("dpss_capture_spectral_sq_vs_eps", capture_sq, eps, **params)
    ledger.add("dpss_capture_per_vector_vs_eps", per_vector, eps, **params)
    params.update(method=basis.method, eta=eta)
    ledger.add("dpss_capture_spectral_sq", capture_sq, eta, **params)
    ledger.add("dpss_capture_per_vector", per_vector, eta, **params)
    ledger.add("dpss_capture_angle", math.sqrt(max(1.0 - n * eta, 0.0)),
               cos_theta, **params)

    r_angle = min(rank_for_capture_angle(n, eps), split.n_high)
    basis_angle = build_roast(n, w, r_angle) if r_angle != r_used else basis
    cos_theta = _capture_errors(x, _checked_basis(basis_angle).q)[2]
    ledger.add("dpss_capture_angle_vs_eps", math.sqrt(1.0 - eps), cos_theta,
               n=n, w=w, eps=eps, k=k, r=r_angle)
    return ledger


def average_suite(n: int, w: float, eps: float) -> BoundLedger:
    """Band-averaged normalized residual at the rank sized for eps, and the
    trace/quadrature cross-check, which allows the trace path's round-off,
    dimension * eps * trace(B), on top of the relative tolerance."""
    ledger = BoundLedger()
    op = build_prolate(n, w)
    r = min(rank_for_average(n, eps), build_band_split(n, w).n_high)
    basis = build_roast(n, w, r)
    trace_val = integrated_residual(op, basis)
    quad_val = integrated_residual_quadrature(op, basis)
    params = {"n": n, "w": w, "eps": eps, "r": r}
    ledger.add("average_residual_normalized", quad_val / n, eps, **params)
    floor = basis.dimension * np.finfo(float).eps * op.trace()
    ledger.add("residual_path_agreement", abs(trace_val - quad_val),
               residual_path_bound(trace_val, quad_val, abs_floor=floor),
               trace_value=trace_val, quad_value=quad_val, **params)
    return ledger


def residual_path_bound(trace_value: float, quad_value: float,
                        abs_floor: float) -> float:
    """Largest gap the two residual paths may show and still agree: 1e-4 of
    the larger value plus ``abs_floor`` for residuals at round-off."""
    return 1e-4 * max(abs(trace_value), abs(quad_value)) + abs_floor


def pointwise_suite(n: int, w: float, eps: float) -> BoundLedger:
    """Pointwise in-band residual against eps and against the bound its
    integral implies, and its derivative against 2 pi N^2."""
    ledger = BoundLedger()
    op = build_prolate(n, w)
    r = min(rank_for_pointwise(n, w, eps), build_band_split(n, w).n_high)
    basis = build_roast(n, w, r)
    deriv, pointwise, integral = sinusoid_derivative_check(op, basis)
    ledger.add("pointwise_residual_vs_eps", pointwise, eps, n=n, w=w, eps=eps, r=r)
    ledger.add("residual_derivative_bound", deriv, 2.0 * np.pi * n**2, n=n, w=w,
               grid_size=_BAND_NODES, fd_step=_FD_STEP)
    ledger.add("pointwise_residual_from_average", pointwise,
               max(2.0 * math.sqrt(np.pi) * math.sqrt(integral), integral / (n * w)),
               n=n, w=w, integral=integral)
    return ledger


def randomized_suite(dpss, eps: float, num_seeds: int) -> BoundLedger:
    """Expectation-level guarantees for the sketched construction.

    Over ``num_seeds`` seeds, checks the seed means of the capture error and
    per-vector residual, the subspace-angle floor sqrt(1 - N*eps), the
    band-averaged residual and the pointwise in-band residual, each at the
    width its sizing rule gives, clamped to n_high.  Each seed draws one
    sketch at the widest width, ``build_roast_randomized``'s; a narrower
    width takes a column prefix, still an N x p Gaussian sketch.  Each entry
    records the kept R over the seeds as ``r_min`` and ``r_max``.  The
    residual curves of every seed come from one ``sinusoid_residual_sq``
    call on the ``_band_grid``.
    """
    ledger = BoundLedger()
    n, w = _full_solve(dpss)
    split = build_band_split(n, w)
    op = build_prolate(n, w)
    k, x = _leading_slepian_rows(dpss, eps, split)
    p_cap = min(sketch_for_capture(n, eps), split.n_high)
    p_angle = min(sketch_for_capture_angle(n, eps), split.n_high)
    p_avg = min(sketch_for_average(n, eps), split.n_high)
    p_point = min(sketch_for_pointwise(n, w, eps), split.n_high)
    grid = _band_grid(w, _BAND_NODES)

    widths = sorted({p_cap, p_angle, p_avg, p_point})
    by_seed, caps, cosines = [], [], []
    for seed in range(num_seeds):
        sketch = _sketch(op, split, widths[-1], seed)
        bases = {p: _sketch_basis(split, sketch[:, :p], seed) for p in widths}
        errors = {p: _capture_errors(
                      x, _checked_basis(bases[p], what="sketch factor").q)
                  for p in {p_cap, p_angle}}
        caps.append(errors[p_cap])
        cosines.append(errors[p_angle][2])
        by_seed.append(bases)
    spectral_sq, per_vec, _ = zip(*caps)
    curves = sinusoid_residual_sq(
        [b[p] for p in (p_avg, p_point) for b in by_seed], n, grid)
    averages = np.trapezoid(curves[:num_seeds], grid, axis=1) / n
    point_curves = curves[num_seeds:]

    def common(p):
        kept = [bases[p].r for bases in by_seed]
        return {"n": n, "w": w, "eps": eps, "p": p, "num_seeds": num_seeds,
                "r_min": min(kept), "r_max": max(kept)}

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
               grid_size=len(grid), **common(p_point))
    return ledger


def small_instance_checks() -> BoundLedger:
    """Direct small-matrix verification of the trace inequality over
    ``_NUM_PAIRS`` random pairs and of the two subspace-angle formulations."""
    ledger = BoundLedger()
    rng = np.random.default_rng(0)
    dim = 16

    worst = -np.inf
    for _ in range(_NUM_PAIRS):
        a = rng.standard_normal((8, 12)) + 1j * rng.standard_normal((8, 12))
        b = rng.standard_normal((8, 12)) + 1j * rng.standard_normal((8, 12))
        lhs = abs(np.trace(a @ b.conj().T))
        rhs = float(np.sum(np.linalg.svd(a, compute_uv=False)
                           * np.linalg.svd(b, compute_uv=False)))
        worst = max(worst, lhs - rhs)
    ledger.add("trace_inequality_margin", worst, 0.0, num_pairs=_NUM_PAIRS,
               shape=[8, 12])

    worst_gap = 0.0
    for _ in range(20):
        p = int(rng.integers(1, dim))
        q = int(rng.integers(1, dim))
        a = np.linalg.qr(rng.standard_normal((dim, p))
                         + 1j * rng.standard_normal((dim, p)))[0]
        b = np.linalg.qr(rng.standard_normal((dim, q))
                         + 1j * rng.standard_normal((dim, q)))[0]
        via_svd = subspace_angle(a, b)[-1]
        via_proj = largest_angle_cos_direct(a, b)
        worst_gap = max(worst_gap, abs(via_svd - via_proj))
    ledger.add("angle_definition_agreement", worst_gap, 1e-10, dim=dim)
    return ledger


def full_verification(num_seeds: int = 20) -> BoundLedger:
    """Run the whole suite; the single entry point behind ``roast verify``."""
    ledger = BoundLedger()
    for n, w in DEFAULT_GRID:
        ledger.extend(core_grid_checks(build_dpss(n, w, n)))
    # the detail point, where one full Slepian solve serves two suites
    n, w = 512, 0.25
    dpss = build_dpss(n, w, n)
    ledger.extend(capture_suite(dpss, 1e-3))
    ledger.extend(average_suite(n, w, 1e-3))
    ledger.extend(pointwise_suite(n, w, 1e-1))
    ledger.extend(randomized_suite(dpss, 1e-2, num_seeds=num_seeds))
    ledger.extend(small_instance_checks())
    return ledger
