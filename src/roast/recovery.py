"""Least-squares signal recovery through a subspace via conjugate gradient.

Demonstrates the conditioning payoff of an orthonormal transform: solving
min ||y - Phi Q a|| by CG on the normal equations converges quickly when Q
is orthonormal and crawls when Q is replaced by an ill-conditioned fast
factorization of the same dimension.  The reported condition number is the
ratio of that CG run's extreme Ritz values: at most the true value, and
``nan`` when CG takes no step.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal

from .basis import BASES
from .prolate import random_bandlimited

__all__ = [
    "CgResult",
    "RecoveryProblem",
    "RecoveryReport",
    "cgd_solve",
    "build_recovery_problem",
    "recovery_experiment",
    "condition_estimate",
]


@dataclass
class CgResult:
    """One CG run, with each step's alpha_k and beta_k = rs_{k+1} / rs_k."""

    solution: np.ndarray
    iterations: int
    residual_history: list
    converged: bool
    alphas: list = field(default_factory=list)
    betas: list = field(default_factory=list)


def cgd_solve(apply_normal_op, rhs: np.ndarray, tol: float = 1e-8,
              max_iter: int | None = None, callback=None) -> CgResult:
    """Conjugate gradient on a Hermitian positive semidefinite action.

    Terminates when the residual 2-norm falls below ``tol`` relative to the
    right-hand side, or after ``max_iter`` steps (default 4x the dimension).
    Non-convergence is reported through ``converged`` and the recorded
    residual history, never silently.  ``callback`` receives each iterate.
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
        return CgResult(solution=x, iterations=0, residual_history=[0.0],
                        converged=True)
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
        if callback is not None:
            callback(x)
    return CgResult(solution=x, iterations=len(alphas), residual_history=history,
                    converged=bool(np.sqrt(rs) <= tol * rhs_norm),
                    alphas=alphas, betas=betas)


@dataclass(frozen=True)
class RecoveryProblem:
    """Observed y = Phi @ truth with a seeded dense Gaussian sensing matrix."""

    n: int
    m: int
    w: float
    phi: np.ndarray = field(repr=False)
    y: np.ndarray = field(repr=False)
    truth: np.ndarray = field(repr=False)


def build_recovery_problem(n: int, w: float, m: int, seed: int,
                           num_tones: int = 1000,
                           identity_sensing: bool = False) -> RecoveryProblem:
    """Random bandlimited truth observed through an M x N sensing matrix."""
    if not 2 * int(np.floor(n * w)) <= m <= n:
        raise ValueError(
            f"measurement count must satisfy 2*floor(NW) <= m <= n, got m={m}")
    truth = random_bandlimited(n, w, num_tones, seed).samples
    if identity_sensing:
        if m != n:
            raise ValueError("identity sensing requires m == n")
        phi = np.eye(n, dtype=complex)
    else:
        # (g_re + 1j g_im) / sqrt(2m), bit for bit: complex division by a
        # real scalar multiplies both parts by its reciprocal
        rng = np.random.default_rng(seed + 0x5EED)
        scale = 1.0 / np.sqrt(2.0 * m)
        phi = np.empty((m, n), dtype=complex)
        draw = rng.standard_normal((m, n))
        np.multiply(draw, scale, out=phi.real)
        rng.standard_normal(out=draw)
        np.multiply(draw, scale, out=phi.imag)
    return RecoveryProblem(n=int(n), m=int(m), w=float(w), phi=phi,
                           y=phi @ truth, truth=truth)


def condition_estimate(result: CgResult) -> float:
    """Condition number of the operator CG ran on, from its Ritz values.

    CG's step sizes define the Lanczos tridiagonal T of the Krylov space it
    explored: diagonal 1/alpha_k + beta_{k-1}/alpha_{k-1}, off-diagonal
    sqrt(beta_k)/alpha_k.  The eigenvalues of T (Ritz values) lie inside
    the operator's spectrum and converge to its ends first, so their ratio
    is at most the true condition number and close to it once CG has
    converged.  No operator product is spent.  Returns ``nan`` when CG took
    no step.
    """
    if not result.alphas:
        return float("nan")
    alphas, betas = np.array(result.alphas), np.array(result.betas[:-1])
    diag = 1.0 / alphas
    diag[1:] += betas / alphas[:-1]
    ritz = eigvalsh_tridiagonal(diag, np.sqrt(betas) / alphas[:-1])
    return float(ritz[-1] / ritz[0])


@dataclass
class RecoveryReport:
    basis_choice: str
    relative_error: float
    iterations: int
    condition_estimate: float
    converged: bool
    params: dict = field(default_factory=dict)


def recovery_experiment(n: int, w: float, m: int, basis_choice: str, seed: int,
                        r: int | None = None, tol: float = 1e-8,
                        num_tones: int = 1000,
                        identity_sensing: bool = False) -> RecoveryReport:
    """Recover a bandlimited signal from y = Phi x through the chosen subspace.

    ``basis_choice`` is a key of ``roast.basis.BASES``; the basis is built
    as ``BASES[basis_choice](n, w, r, seed)``, so every choice has dimension
    2*floor(NW)+1+R (``seed`` also seeds the randomized sketch).  R defaults
    to floor(3 ln N).  Solves the normal equations Q^* Phi^* Phi Q a =
    Q^* Phi^* y by CG through the basis's ``analyze`` and ``synthesize`` and
    reconstructs xhat = Q a, which lies in the subspace by construction.
    The adjoint is applied as Phi^* t = conj(Phi^T conj(t)): the transpose
    is a view, so no conjugated M x N copy of Phi is formed, and each CG step
    conjugates only two vectors.
    """
    if basis_choice not in BASES:
        raise ValueError(
            f"basis_choice must be one of {sorted(BASES)}, got {basis_choice!r}")
    if r is None:
        r = int(np.floor(3.0 * np.log(n)))
    problem = build_recovery_problem(n, w, m, seed, num_tones=num_tones,
                                     identity_sensing=identity_sensing)
    basis = BASES[basis_choice](n, w, r, seed)
    dim = basis.dimension
    phi = problem.phi

    def adjoint(t):
        return (phi.T @ t.conj()).conj()

    def normal_op(a):
        return basis.analyze(adjoint(phi @ basis.synthesize(a)))

    rhs = basis.analyze(adjoint(problem.y))
    result = cgd_solve(normal_op, rhs, tol=tol, max_iter=4 * dim)
    xhat = basis.synthesize(result.solution)
    rel_err = float(np.linalg.norm(xhat - problem.truth)
                    / np.linalg.norm(problem.truth))
    return RecoveryReport(basis_choice=basis_choice, relative_error=rel_err,
                          iterations=result.iterations,
                          condition_estimate=condition_estimate(result),
                          converged=result.converged,
                          params={"n": n, "w": w, "m": m, "r": r, "seed": seed,
                                  "tol": tol, "dimension": dim,
                                  "identity_sensing": identity_sensing})
