"""Computable diagnostics for the approximation guarantees.

The numbers the guarantees are about: the cross operator's singular values,
the integrated residual by two independent paths, the in-band residual and
its derivative, subspace angles and Slepian capture errors.  ``roast.verify``
states the bounds on them and writes every entry of the ledger typed here.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import eigvalsh

from .basis import (RoastBasis, SubDftBasis, _bin_pairs, _cross_rows, _fold,
                    _slepian_rows)
from .prolate import (
    ProlateOperator,
    _apply_bytes,
    _check_dense_bytes,
    build_band_split,
    build_prolate,
    prolate_apply,
)

__all__ = [
    "LedgerEntry",
    "BoundLedger",
    "residual_snr",
    "snr_from_energies",
    "SNR_CSV_CAP",
    "integrated_residual",
    "integrated_residual_quadrature",
    "sinusoid_residual_sq",
    "subspace_angle",
    "largest_angle_cos_direct",
    "singular_decay_report",
    "sinusoid_derivative_check",
    "dpss_capture_report",
]

# Ledger inequalities get this much additive slack against round-off.
_LEDGER_SLACK = 1e-12

# Residuals below this fraction of the signal norm count as exact capture.
_SNR_EXACT = 1e-15

# +inf sentinel value used when SNR is written to CSV.
SNR_CSV_CAP = 320.0

# Gram deviation from I an orthonormal basis may show; the nodes on [-W, W] of
# every in-band residual grid; the derivative scan's central-difference step.
_ORTHONORMAL_TOL = 1e-8
_BAND_NODES = 4096
_FD_STEP = 1e-5


@dataclass
class LedgerEntry:
    """One verified inequality: lhs <= rhs, allowing ``_LEDGER_SLACK`` of
    round-off."""

    check_id: str
    lhs_value: float
    rhs_bound: float
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        self.lhs_value = float(self.lhs_value)
        self.rhs_bound = float(self.rhs_bound)

    @property
    def satisfied(self) -> bool:
        return self.lhs_value <= self.rhs_bound + _LEDGER_SLACK

    def to_dict(self) -> dict:
        return {"check_id": self.check_id, "lhs_value": self.lhs_value,
                "rhs_bound": self.rhs_bound, "satisfied": self.satisfied,
                "params": self.params}

    @classmethod
    def from_dict(cls, d: dict) -> "LedgerEntry":
        return cls(check_id=d["check_id"], lhs_value=d["lhs_value"],
                   rhs_bound=d["rhs_bound"], params=dict(d.get("params", {})))


@dataclass
class BoundLedger:
    """Collection of inequality checks; satisfied iff every entry is."""

    entries: list = field(default_factory=list)

    def add(self, check_id: str, lhs: float, rhs: float, **params) -> LedgerEntry:
        entry = LedgerEntry(check_id, lhs, rhs, params)
        self.entries.append(entry)
        return entry

    def extend(self, other: "BoundLedger") -> None:
        self.entries.extend(other.entries)

    @property
    def all_satisfied(self) -> bool:
        return all(e.satisfied for e in self.entries)

    def to_json(self, **meta) -> str:
        doc = {"meta": meta, "all_satisfied": self.all_satisfied,
               "entries": [e.to_dict() for e in self.entries]}
        # a numpy scalar in params is written as its Python value
        return json.dumps(doc, indent=2, sort_keys=True,
                          default=lambda value: value.item())

    @classmethod
    def from_json(cls, text: str) -> "BoundLedger":
        doc = json.loads(text)
        return cls(entries=[LedgerEntry.from_dict(d) for d in doc["entries"]])


def _as_projector(projector):
    if hasattr(projector, "project"):
        return projector.project
    if isinstance(projector, np.ndarray):
        q = projector
        return lambda x: q @ (q.conj().T @ x)
    raise TypeError(f"cannot interpret {type(projector).__name__} as a projector")


def residual_snr(projector, x: np.ndarray) -> float:
    """SNR in dB (``snr_from_energies``) of the projection of x; a zero
    signal is rejected."""
    x = np.asarray(x)
    signal = float(np.vdot(x, x).real)
    if signal == 0.0:
        raise ValueError("SNR is undefined for the zero signal")
    resid = x - _as_projector(projector)(x)
    return float(snr_from_energies(signal, [np.vdot(resid, resid).real])[0])


def snr_from_energies(signal: float, residual) -> np.ndarray:
    """10 log10(signal / residual) dB, elementwise, from squared norms;
    residuals below ``_SNR_EXACT`` of the signal norm report +inf."""
    residual = np.asarray(residual, dtype=float)
    with np.errstate(divide="ignore"):
        snr = 10.0 * np.log10(signal / residual)
    snr[residual < _SNR_EXACT ** 2 * signal] = np.inf
    return snr


def _dense_columns(q_like) -> np.ndarray:
    if hasattr(q_like, "dense_basis"):
        return q_like.dense_basis()
    q = np.asarray(q_like)
    if q.ndim != 2:
        raise ValueError("expected a matrix of basis columns")
    return q


def _ensure_orthonormal(q: np.ndarray, what: str) -> None:
    gram = q.conj().T @ q
    err = np.max(np.abs(gram - np.eye(q.shape[1])), initial=0.0)
    if not err <= _ORTHONORMAL_TOL:  # refuses NaN too
        raise ValueError(f"{what} is not orthonormal: Gram deviation {err:.3e} "
                         f"> {_ORTHONORMAL_TOL:.0e}")


def _full_solve(dpss) -> tuple[int, float]:
    """(N, W) of ``dpss``, refused unless it holds all N Slepian vectors."""
    if dpss.k < dpss.n:
        raise ValueError(f"need the full Slepian solve, got {dpss.k} of {dpss.n} vectors")
    return dpss.n, dpss.w


def _leading_slepian_rows(dpss, eps: float, split) -> tuple[int, np.ndarray]:
    """(k, ``_slepian_rows`` of s_k) for the k Slepian vectors s_k of the
    full solve ``dpss`` whose eigenvalues reach ``eps``; s_k is checked
    orthonormal, and k = 0 is refused."""
    k = int(np.sum(dpss.eigenvalues >= eps))
    if k == 0:
        raise ValueError(f"no eigenvalues reach eps={eps}; nothing to capture")
    s_k = dpss.vectors[:, :k]
    _ensure_orthonormal(s_k, what="Slepian vectors")
    return k, _slepian_rows(s_k, split)


def _checked_basis(q_like, what: str = "basis"):
    """``q_like`` checked orthonormal: a ``RoastBasis`` on q alone, since
    Q^* Q = blockdiag(I, q^T q), and a ``SubDftBasis`` on its indices being
    distinct and in [0, N), both returned as they are; anything else as its
    dense columns."""
    if isinstance(q_like, RoastBasis):
        _ensure_orthonormal(q_like.q, what=what)
        return q_like
    if isinstance(q_like, SubDftBasis):
        idx = q_like.indices
        in_range = np.all((idx >= 0) & (idx < q_like.n))
        if len(np.unique(idx)) != len(idx) or not in_range:
            raise ValueError(f"{what} is not orthonormal: DFT indices repeat "
                             f"or leave [0, {q_like.n})")
        return q_like
    q = _dense_columns(q_like)
    _ensure_orthonormal(q, what=what)
    return q


def integrated_residual(op: ProlateOperator, q_like) -> float:
    """Band-integrated squared residual of in-band sinusoids under Q Q^*,
    as trace(B) - sum_i q_i^* B q_i through the fast prolate matvec, floored
    at zero against round-off.

    A ``RoastBasis`` or ``SubDftBasis`` supplies its d = ``dimension``
    columns by synthesis of the identity.  Refused first when the largest
    stage exceeds the dense-byte limit: the N x d columns beside their
    matvec's ``_apply_bytes``; 48 N d bytes for the columns, their matvec
    and their conjugate product, plus 384 KiB for the sum's 128 KiB buffer
    and a conjugate below numpy's 256 KiB threshold; or a ``RoastBasis``
    synthesis, 8 d^2 + 16 d (N + 2R + n_high) bytes for the identity, the
    spectrum, V's coefficients, their scaled copy and q times them, plus
    three 64 KiB ufunc buffers.
    """
    q = _checked_basis(q_like)
    if isinstance(q, (RoastBasis, SubDftBasis)):
        n, d = op.n, q.dimension
        stages = [16 * n * d + _apply_bytes(n, d, complex), 48 * n * d + 3 * 2**17]
        if isinstance(q, RoastBasis):
            stages.append(8 * d * d + 16 * d * (n + 2 * q.r + q.split.n_high)
                          + 3 * 2**16)
        _check_dense_bytes(f"integrated_residual(n={n}, dimension={d})", max(stages))
        q = q.synthesize(np.eye(d))
    if q.shape[0] != op.n:
        raise ValueError(f"basis rows {q.shape[0]} do not match operator size {op.n}")
    bq = prolate_apply(op, q)  # before the conjugate, which would sit beside it
    captured = np.sum((q.conj() * bq).real)
    return max(op.trace() - float(captured), 0.0)


def _dirichlet_ratio(n: int, rows: np.ndarray, freqs: np.ndarray) -> np.ndarray:
    """Real ratio sin(pi n x) / sin(pi x) / sqrt(n), x = f - k/n, rows k by
    f: |d_f[k]| for d_f = F^* e_f, the unitary DFT of the sampled sinusoid.
    """
    # x = j + t with |t| <= 1/2: sin(pi t) is accurate near every bin, and
    # the ratio picks up (-1)^((n-1) j).  The arithmetic runs in place on
    # four row-by-frequency arrays.
    t = freqs[None, :] - rows[:, None] / n
    j = np.rint(t)
    t -= j
    # n t = m + r with |r| <= 1/2: sin(pi n t) = (-1)^m sin(pi r) is exactly
    # zero wherever n t is an integer, as on the DFT grid off the row's bin
    s = n * t
    m = np.rint(s)
    s -= m
    s *= np.pi
    np.sin(s, out=s)
    if n % 2 == 0:
        m += j
    den = np.multiply(t, np.pi, out=j)
    np.sin(den, out=den)
    at_bin = t == 0.0
    np.divide(s, den, out=s, where=~at_bin)
    s[at_bin] = float(n)
    np.negative(s, out=s, where=np.fmod(m, 2.0, out=m) != 0.0)
    s /= math.sqrt(n)
    return s


def _dirichlet_blocks(n: int, rows: np.ndarray, freqs: np.ndarray):
    """(slice, ``_dirichlet_ratio`` over ``rows``) for each block of
    max(64, 2**16 // rows) ``freqs``."""
    block = max(64, 2 ** 16 // max(len(rows), 1))
    for i0 in range(0, len(freqs), block):
        yield slice(i0, i0 + block), _dirichlet_ratio(n, rows, freqs[i0:i0 + block])


def _dirichlet_residual_sq(split, qs: list, freqs: np.ndarray) -> np.ndarray:
    """||(I - V V^*) d_f||^2 over the out-of-band rows of d_f = F^* e_f, a
    row for each stored factor q in ``qs``, possibly of no columns, of a
    basis on ``split``.

    d_f[k] is a unit scalar in f times rho_k s_k for the ``_dirichlet_ratio``
    s and the row phase rho_k = exp(-i pi (n-1) k / n), its exponent reduced
    mod 2n.  With sqrt(1/2) on rho's pairs, Y = ``_fold``(rho s) is U rho s
    for the unitary U with U V = q, so each residual is ||Y - q (q^T Y)||^2.
    """
    n, m = split.n, split.n_neg
    rows = np.concatenate(_bin_pairs(split, np.arange(n)))
    rho = np.exp(-1j * np.pi * (((n - 1) * rows) % (2 * n)) / n)
    rho[:2 * m] *= math.sqrt(0.5)
    out = np.empty((len(qs), len(freqs)))
    for at, s in _dirichlet_blocks(n, rows, freqs):
        y = _fold(*np.split(rho[:, None] * s, [m, 2 * m]))
        res = np.empty_like(y)  # fresh or mixed-layout temporaries cost a product
        for b, q in enumerate(qs):
            np.subtract(y, np.matmul(q, q.T @ y, out=res), out=res)
            out[b, at] = np.einsum("ij,ij->j", res, res).reshape(2, -1).sum(axis=0)
    return out


def sinusoid_residual_sq(projector, n: int, freqs: np.ndarray) -> np.ndarray:
    """Squared residual ||e_f - P e_f||^2 of each sampled sinusoid
    e_f[m] = exp(2 pi i f m), m < n.

    ``projector`` may also be a non-empty list or tuple of ``RoastBasis``
    objects that share one (n, w): one row per basis, each bit for bit that
    basis's own call.  Any other list or tuple raises ``ValueError``.

    A ``RoastBasis`` takes ``_dirichlet_residual_sq`` once per distinct |f|,
    being closed under conjugation; a ``SubDftBasis`` sums the squared
    ``_dirichlet_ratio`` outside its indices.  Anything else is applied
    densely to blocks of max(1, 2**21 // n) sinusoids.  Each residual is
    formed before its norm: n - ||Q^* e_f||^2 would turn residuals of 1e-20
    into round-off of 1e-13.
    """
    sequence = isinstance(projector, (list, tuple))
    if sequence and (not projector
                     or not all(isinstance(b, RoastBasis) for b in projector)
                     or len({(b.n, b.w) for b in projector}) != 1):
        raise ValueError("a sequence of projectors must be a non-empty run of "
                         "RoastBasis objects that share one (n, w)")
    freqs = np.asarray(freqs, dtype=float)
    out = np.empty(len(freqs))
    if sequence or isinstance(projector, (RoastBasis, SubDftBasis)):
        bases = projector if sequence else [projector]
        if bases[0].n != n:
            raise ValueError(f"basis length {bases[0].n} does not match n={n}")
        if isinstance(projector, SubDftBasis):
            rows = np.setdiff1d(np.arange(n), projector.indices)
            for at, s in _dirichlet_blocks(n, rows, freqs):
                out[at] = np.einsum("ij,ij->j", s, s)
            return out
        mags, at = np.unique(np.abs(freqs), return_inverse=True)
        out = _dirichlet_residual_sq(bases[0].split, [b.q for b in bases], mags)
        return out[:, at] if sequence else out[0, at]
    project = _as_projector(projector)
    m = np.arange(n)[:, None]
    chunk = max(1, 2 * 1024 * 1024 // n)
    for i0 in range(0, len(freqs), chunk):
        block = np.exp(2j * np.pi * m * freqs[i0:i0 + chunk][None, :])
        resid = block - project(block)
        out[i0:i0 + chunk] = np.einsum("ij,ij->j", resid.conj(), resid).real
    return out


def _band_grid(w: float, count: int) -> np.ndarray:
    """The odd part of ``np.linspace(-w, w, count)``, within an ulp of 2w of
    it and mirrored bit for bit: f and -f are both nodes."""
    nodes = np.linspace(-w, w, count)
    return (nodes - nodes[::-1]) / 2.0


def integrated_residual_quadrature(op: ProlateOperator, q_like) -> float:
    """``integrated_residual`` by the trapezoid rule over the ``_band_grid``
    nodes: an independent check of the trace path."""
    q = _checked_basis(q_like)
    grid = _band_grid(op.w, _BAND_NODES)
    return float(np.trapezoid(sinusoid_residual_sq(q, op.n, grid), grid))


def subspace_angle(a_like, b_like) -> np.ndarray:
    """Cosines of the principal angles between two orthonormal column spans,
    descending: the singular values of A^* B.  A ``RoastBasis`` or
    ``SubDftBasis`` on one side enters through its analysis."""
    a = _checked_basis(a_like, what="first basis")
    b = _checked_basis(b_like, what="second basis")
    if isinstance(b, (RoastBasis, SubDftBasis)):
        cross = b.analyze(_dense_columns(a))
    elif isinstance(a, (RoastBasis, SubDftBasis)):
        cross = a.analyze(b)  # the transpose of B^* A has the same cosines
    else:
        if a.shape[1] > b.shape[1]:
            a, b = b, a
        cross = b.conj().T @ a
    cosines = np.linalg.svd(cross, compute_uv=False)
    return np.sort(cosines)[::-1]


def largest_angle_cos_direct(a_like, b_like) -> float:
    """Largest-angle cosine as the smallest singular value of P_wide A_narrow,
    the dense N x N projector of the wider basis on the narrower columns:
    an independent check of ``subspace_angle``.  Refused first when 16 N
    (N + k) bytes, for k wide columns, exceed the dense-byte limit."""
    a = _dense_columns(a_like)
    b = _dense_columns(b_like)
    if a.shape[1] > b.shape[1]:
        a, b = b, a
    n = b.shape[0]
    _check_dense_bytes(f"largest_angle_cos_direct(n={n})",
                       16 * n * (n + b.shape[1]))
    proj = b @ b.conj().T
    sigma = np.linalg.svd(proj @ a, compute_uv=False)
    return float(sigma[-1])


def singular_decay_report(n: int, w: float) -> np.ndarray:
    """Singular values of the cross operator, descending, from real SVDs of
    the parity blocks of its rows (``_cross_rows``).

    B commutes with the time reversal J, and the row c_k of bin k has
    c_k J = exp(-2i t_k) conj c_k, t_k = pi k (N-1)/N.  Turning each (cos,
    sin) row pair by t_k and the columns to (e_j +- e_{N-1-j}) / sqrt(2)
    leaves blockdiag(n_neg x ceil(N/2), (n_neg + Nyquist) x floor(N/2)):
    two SVDs at a quarter of the cost.  The SVDs decompose the factor, not
    its Gram matrix, whose eigenvalues would lose every singular value below
    about 1e-8 of the largest to round-off.
    """
    split = build_band_split(n, w)
    rows = _cross_rows(build_prolate(n, w), split)
    m, half = split.n_neg, n // 2
    turn = np.pi * (((split.h + 1 + np.arange(m)) * (n - 1)) % (2 * n)) / n
    cos, sin = np.cos(turn)[:, None], np.sin(turn)[:, None]
    # the even columns and both turns stay in place: 16 n_high N bytes peak
    mirror = rows[:, ::-1][:, :half]
    minus = (rows[:, :half] - mirror) * math.sqrt(0.5)
    rows[:, :half] += mirror
    rows[:, :half] *= math.sqrt(0.5)
    even, odd = rows[:m, :n - half], minus[m:]
    even *= cos
    even -= sin * rows[m:2 * m, :n - half]
    odd[:m] *= cos
    odd[:m] += sin * minus[:m]
    return -np.sort(-np.concatenate(
        [np.linalg.svd(b, compute_uv=False) for b in (even, odd)]))


def sinusoid_derivative_check(op: ProlateOperator,
                              q_like) -> tuple[float, float, float]:
    """(max |r'|, max r / N, the integral of r) for the in-band residual
    r(f) = ||e_f - Q Q^* e_f||^2 on the ``_band_grid`` nodes: r' by central
    differences of step ``_FD_STEP``, the integral by the trapezoid rule
    over the same grid, which resolves what the trace path rounds to zero.
    A half-bandwidth below 1/(4 pi N) is refused."""
    n, w = op.n, op.w
    if w < 1.0 / (4.0 * np.pi * n):
        raise ValueError(f"half-bandwidth {w} below 1/(4 pi N) for n={n}")
    q = _checked_basis(q_like)

    grid = _band_grid(w, _BAND_NODES)
    center, upper, lower = np.split(sinusoid_residual_sq(
        q, n, np.concatenate([grid, grid + _FD_STEP, grid - _FD_STEP])), 3)
    deriv = (upper - lower) / (2.0 * _FD_STEP)
    return (float(np.max(np.abs(deriv))), float(np.max(center)) / n,
            float(np.trapezoid(center, grid)))


def _capture_errors(x: np.ndarray, q: np.ndarray) -> tuple[float, float, float]:
    """||R||_2^2, the largest squared column norm of R, and sqrt(1 - ||R||_2^2)
    for R = X - q q^T X.  For ``x`` the ``_slepian_rows`` of orthonormal
    s_k, R is s_k - Q Q^* s_k up to an isometry and the third value is the
    largest-angle cosine of s_k against Q.  ||R||_2^2 is the top eigenvalue
    of the smaller Gram of R, formed after deflation, so it carries only
    relative round-off."""
    resid = x - q @ (q.T @ x)
    # R^T R when R has no rows (no out-of-band space): its zeros give (0, 0, 1)
    gram = resid @ resid.T if 0 < resid.shape[0] <= resid.shape[1] else resid.T @ resid
    top = gram.shape[0] - 1
    spectral_sq = float(eigvalsh(gram, subset_by_index=[top, top])[0])
    return (spectral_sq, float(np.max(np.einsum("ij,ij->j", resid, resid))),
            math.sqrt(max(1.0 - spectral_sq, 0.0)))


def dpss_capture_report(dpss, eps: float,
                        basis) -> tuple[float, float, float, float]:
    """(eta, ||R||_2^2, the largest squared column norm of R, cos theta)
    for the K Slepian vectors whose eigenvalues reach eps, their capture
    residual R and largest angle theta against the basis, and the deflation
    residual eta = ||(I - V V^*) Fbar^* B|| / eps.  ``dpss`` is the full
    solve at the (N, W) of ``basis`` and eps lies in (0, 1/2), else
    ``ValueError``.  All come from ``_capture_errors`` on the basis's q: eta
    on ``_cross_rows``, the rest on ``_leading_slepian_rows``."""
    if not 0.0 < eps < 0.5:
        raise ValueError(f"eps must lie in (0, 1/2), got {eps!r}")
    n, w = _full_solve(dpss)
    if (basis.n, basis.w) != (n, w):
        raise ValueError(f"basis at (n={basis.n}, w={basis.w}) does not match "
                         f"the solve at (n={n}, w={w})")
    _, x = _leading_slepian_rows(dpss, eps, basis.split)
    q = _checked_basis(basis).q
    rows = _cross_rows(build_prolate(n, w), basis.split)
    eta = math.sqrt(max(_capture_errors(rows, q)[0], 0.0)) / eps
    return (eta, *_capture_errors(x, q))
