"""Least-squares signal recovery through a subspace via conjugate gradient.

Demonstrates the conditioning payoff of an orthonormal transform: solving
min ||y - Phi Q a|| by CG on the normal equations converges quickly when Q
is orthonormal and crawls when Q is an ill-conditioned fast factorization
of the same dimension.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal

from .basis import BASES
from .prolate import _check_dense_bytes, random_bandlimited

__all__ = [
    "CgResult",
    "RecoveryProblem",
    "RecoveryReport",
    "cgd_solve",
    "build_recovery_problem",
    "recovery_experiment",
    "condition_estimate",
]

# Bytes of one block of complex sensing rows (``_sensing_rows``): the
# conjugated rows that recovery_experiment passes to ``analyze`` while it
# forms (Phi Q)^*, and the rows build_recovery_problem draws at a time.
_SENSING_BLOCK_BYTES = 2 ** 21

# In-band tones summed into the bandlimited truth of a recovery problem.
_NUM_TONES = 1000


@dataclass
class CgResult:
    """One CG run, with each step's alpha_k and beta_k = rs_{k+1} / rs_k."""

    solution: np.ndarray
    residual_history: list
    converged: bool
    alphas: list = field(default_factory=list)
    betas: list = field(default_factory=list)

    @property
    def iterations(self) -> int:
        return len(self.alphas)


def cgd_solve(apply_normal_op, rhs: np.ndarray, tol: float = 1e-8,
              max_iter: int | None = None) -> CgResult:
    """Conjugate gradient on a Hermitian positive semidefinite action.

    Stops when the residual 2-norm falls below ``tol`` relative to the
    right-hand side, or after ``max_iter`` steps (default 4x the dimension),
    whose iterate is that of the unbounded run; ``converged`` says which.
    """
    if tol <= 0.0:
        raise ValueError(f"tolerance must be positive, got {tol!r}")
    rhs = np.asarray(rhs)
    if max_iter is None:
        max_iter = 4 * len(rhs)
    x = np.zeros_like(rhs)
    r = rhs - apply_normal_op(x)
    p = r.copy()
    rs = float(np.vdot(r, r).real)
    rhs_norm = float(np.linalg.norm(rhs))
    if rhs_norm == 0.0:
        return CgResult(solution=x, residual_history=[0.0], converged=True)
    history = [float(np.sqrt(rs))]
    alphas, betas = [], []
    while np.sqrt(rs) > tol * rhs_norm and len(alphas) < max_iter:
        ap = apply_normal_op(p)
        denom = float(np.vdot(p, ap).real)
        if denom <= 0.0:
            break  # lost positive definiteness to round-off; stop honestly
        alpha = rs / denom
        x = x + alpha * p
        r = r - alpha * ap
        rs_next = float(np.vdot(r, r).real)
        alphas.append(alpha)
        betas.append(rs_next / rs)
        p = r + betas[-1] * p
        rs = rs_next
        history.append(float(np.sqrt(rs)))
    return CgResult(solution=x, residual_history=history,
                    converged=bool(np.sqrt(rs) <= tol * rhs_norm),
                    alphas=alphas, betas=betas)


@dataclass(frozen=True)
class RecoveryProblem:
    """Observed y = Phi @ truth with a seeded dense Gaussian sensing matrix."""

    phi: np.ndarray = field(repr=False)
    y: np.ndarray = field(repr=False)
    truth: np.ndarray = field(repr=False)


def build_recovery_problem(n: int, w: float, m: int, seed: int) -> RecoveryProblem:
    """Random bandlimited truth of ``_NUM_TONES`` tones observed through an
    M x N sensing matrix Phi = (G_re + 1j G_im) / sqrt(2M), for standard
    normal draws G_re then G_im from one generator.  Each part is drawn
    ``_sensing_rows`` rows at a time, the same values as one whole draw.
    Refused first when 16 M N bytes, plus 8 N bytes per row of the draw
    buffer, exceed the dense-byte limit.
    """
    if not 2 * int(np.floor(n * w)) <= m <= n:
        raise ValueError(
            f"measurement count must satisfy 2*floor(NW) <= m <= n, got m={m}")
    rows = min(_sensing_rows(n), m)
    _check_dense_bytes(f"build_recovery_problem(n={n}, m={m})",
                       16 * m * n + 8 * rows * n)
    truth = random_bandlimited(n, w, _NUM_TONES, seed).samples
    rng = np.random.default_rng(seed + 0x5EED)
    scale = 1.0 / np.sqrt(2.0 * m)
    phi = np.empty((m, n), dtype=complex)
    draw = np.empty((rows, n))
    for part in (phi.real, phi.imag):
        for i0 in range(0, m, rows):
            block = draw[:m - i0]
            rng.standard_normal(out=block)
            np.multiply(block, scale, out=part[i0:i0 + rows])
    return RecoveryProblem(phi=phi, y=phi @ truth, truth=truth)


def condition_estimate(result: CgResult) -> float:
    """Condition number of the operator CG ran on, from its Ritz values.

    CG's steps define the Lanczos tridiagonal T of its Krylov space:
    diagonal 1/alpha_k + beta_{k-1}/alpha_{k-1}, off-diagonal
    sqrt(beta_k)/alpha_k.  The Ritz values lie inside the operator's
    spectrum and converge to its ends first, so their ratio is at most the
    true condition number.  ``nan`` when CG took no step.
    """
    if not result.alphas:
        return float("nan")
    alphas, betas = np.array(result.alphas), np.array(result.betas[:-1])
    diag = 1.0 / alphas
    diag[1:] += betas / alphas[:-1]
    ritz = eigvalsh_tridiagonal(diag, np.sqrt(betas) / alphas[:-1])
    return float(ritz[-1] / ritz[0])


def _sensing_rows(n: int) -> int:
    """Rows of a length-``n`` complex sensing block: ``_SENSING_BLOCK_BYTES``
    worth, at least one."""
    return max(1, _SENSING_BLOCK_BYTES // (16 * n))


def _compressed_adjoint(phi: np.ndarray, basis) -> np.ndarray:
    """(Phi Q)^* = Q^* Phi^*, dim x m, by ``basis.analyze`` of the conjugated
    transpose of ``_sensing_rows`` of Phi's rows at a time."""
    m, n = phi.shape
    rows = _sensing_rows(n)
    a_h = np.empty((basis.dimension, m), dtype=complex)
    for i0 in range(0, m, rows):
        a_h[:, i0:i0 + rows] = basis.analyze(phi[i0:i0 + rows].conj().T)
    return a_h


@dataclass
class RecoveryReport:
    relative_error: float
    iterations: int
    condition_estimate: float
    converged: bool


def recovery_experiment(n: int, w: float, m: int, basis_choice: str, seed: int,
                        r: int | None = None, tol: float = 1e-8) -> RecoveryReport:
    """Recover the signal of ``build_recovery_problem`` through the basis
    ``BASES[basis_choice](n, w, r, seed)``, R defaulting to floor(3 ln N):
    CG on the normal equations Q^* Phi^* Phi Q a = Q^* Phi^* y, then
    xhat = Q a.

    A^* = (Phi Q)^*, dim x m, is formed once by ``_compressed_adjoint``, so
    each CG step is two dense products with no FFT: A a = conj((A^*)^T
    conj(a)) through a transposed view, and A^* (A a).
    """
    if basis_choice not in BASES:
        raise ValueError(
            f"basis_choice must be one of {sorted(BASES)}, got {basis_choice!r}")
    if r is None:
        r = int(np.floor(3.0 * np.log(n)))
    problem = build_recovery_problem(n, w, m, seed)
    basis = BASES[basis_choice](n, w, r, seed)
    a_h = _compressed_adjoint(problem.phi, basis)

    def normal_op(a):
        return a_h @ (a_h.T @ a.conj()).conj()

    result = cgd_solve(normal_op, a_h @ problem.y, tol=tol)
    xhat = basis.synthesize(result.solution)
    rel_err = float(np.linalg.norm(xhat - problem.truth)
                    / np.linalg.norm(problem.truth))
    return RecoveryReport(relative_error=rel_err,
                          iterations=result.iterations,
                          condition_estimate=condition_estimate(result),
                          converged=result.converged)
