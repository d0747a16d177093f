"""Orthonormal fast Slepian-like bases and baselines.

The central object is the orthonormal basis Q = [F, Fbar @ V]: the in-band
DFT columns F augmented with R extra directions inside the out-of-band DFT
span.  Analysis and synthesis cost one FFT plus a skinny real product,
O(N log N + N R).  Every V is closed under conjugation, V[-k] = conj V[k],
so Q Q^* is real and V is fixed by a real orthonormal n_high x R factor q
in the coordinates of ``_slepian_rows``; a ``RoastBasis`` stores q.

Also here: the widened-DFT baseline (Sub-DFT), the sizing rules, and a
binary serialization.  ``RoastBasis``, ``SubDftBasis`` and ``DpssBasis``
share one protocol: ``n``, ``dimension``, ``analyze`` (Q^* x),
``synthesize`` (Q c), ``project`` (Q Q^* x) and ``dense_basis`` (Q).
"""

from __future__ import annotations

import json
import math
import struct
import zlib
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
import scipy.sparse.linalg as spla

from .prolate import (
    DftBandSplit,
    ProlateOperator,
    _COPY_BYTES,
    _apply_bytes,
    _check_dense_bytes,
    _column_major,
    _fix_signs,
    _group_width,
    _leading,
    build_band_split,
    build_dpss,
    build_prolate,
    log_width_constant,
    prolate_apply,
)

__all__ = [
    "RoastBasis",
    "SubDftBasis",
    "BASES",
    "build_roast",
    "build_roast_randomized",
    "apply_analysis",
    "apply_synthesis",
    "build_subdft",
    "serialize_basis",
    "deserialize_basis",
    "BasisFormatError",
    "dft_columns",
    "cross_operator_dense",
    "rank_for_capture",
    "rank_for_capture_angle",
    "rank_for_average",
    "rank_for_pointwise",
    "sketch_for_capture",
    "sketch_for_capture_angle",
    "sketch_for_average",
    "sketch_for_pointwise",
    "fst_rank_bound",
]

# build_roast's methods; a serialized basis may also come from the sketch
_ROAST_METHODS = ("svd_fb", "svd_fbf")
_METHODS = (*_ROAST_METHODS, "randomized")

# Columns of a rank-deficient sketch whose triangular-factor diagonal falls
# below this fraction of the leading diagonal are dropped.
_RANK_TOL = 1e-12

# Rows of the stored factor q per real product in analysis and synthesis:
# OpenBLAS runs tall skinny products faster in pieces.
_ROW_CHUNK = 4096

# Lanczos vectors beyond R in the Krylov space of the matrix-free builds.
_KRYLOV_OVERSAMPLE = 8

# Bytes of the two complex temporaries of one row block of DFT entries in
# dft_columns and RoastBasis.dense_basis.
_DFT_BLOCK_BYTES = 2 ** 20


def dft_columns(n: int, wrapped_indices: np.ndarray) -> np.ndarray:
    """N x K normalized DFT columns exp(j*2*pi*k*m/N)/sqrt(N) for wrapped
    indices k, written by ``_write_dft``.  Refused first when 16 N K bytes
    plus ``_DFT_BLOCK_BYTES`` exceed the dense-byte limit."""
    k = np.asarray(wrapped_indices)
    _check_dense_bytes(f"dft_columns(n={n}, k={k.size})",
                       16 * n * k.size + _DFT_BLOCK_BYTES)
    out = np.empty((n, k.size), dtype=complex)
    _write_dft(n, k, out, None)
    return out


def _write_dft(n: int, k: np.ndarray, out: np.ndarray,
               v: np.ndarray | None) -> None:
    """Write into the N-row ``out`` the normalized DFT columns of the wrapped
    indices ``k``, or their product with ``v`` unless it is None, in row
    blocks whose two complex temporaries hold about ``_DFT_BLOCK_BYTES``.

    Each block has at least two rows: numpy takes a one-row product as a
    matrix-vector product, whose last bits differ from the matrix product's.
    """
    rows = max(2, _DFT_BLOCK_BYTES // (32 * max(k.size, 1)))
    i0 = 0
    for i1 in [*range(rows, n - 1, rows), n]:
        m = np.arange(i0, i1)[:, None]
        entries = np.exp(2j * np.pi * m * k[None, :] / n)
        if v is None:
            np.divide(entries, np.sqrt(n), out=out[i0:i1])
        else:
            entries /= np.sqrt(n)
            out[i0:i1] = entries @ v
        del entries  # before the next block's are formed
        i0 = i1


def cross_operator_dense(op: ProlateOperator, split: DftBandSplit) -> np.ndarray:
    """Dense out-of-band cross operator Fbar^* B, complex n_high x N in
    ``high_indices`` row order: ``_dft_rows`` of ``_cross_rows``.  Refused
    first when its peak, 24 n_high N bytes for the real rows and the
    output, exceeds the dense-byte limit."""
    _check_dense_bytes(f"cross_operator_dense(n={op.n}, w={op.w})",
                       24 * split.n_high * op.n)
    return _dft_rows(_cross_rows(op, split))


def _slepian_rows(x: np.ndarray, split: DftBandSplit) -> np.ndarray:
    """U Fbar^* x for real columns ``x``, from one orthonormal ``rfft``: the
    layout of the stored factor q.

    Of the ascending positive out-of-band bins, the first m = ``n_neg`` give
    rows of sqrt(2) Re, then the same bins give sqrt(2) Im, and the Nyquist
    bin, if any, gives its real part.  Row -k of Fbar^* x is the conjugate
    of row k, so U is unitary: these are the coordinates in the real
    orthonormal basis sqrt(2) Re f_k, -sqrt(2) Im f_k of the span.
    """
    pos = np.fft.rfft(x, axis=0, norm="ortho")[split.h + 1:]
    m = split.n_neg
    out = np.empty((split.n_high,) + pos.shape[1:])
    np.multiply(pos[:m].real, math.sqrt(2.0), out=out[:m])
    np.multiply(pos[:m].imag, math.sqrt(2.0), out=out[m:2 * m])
    out[2 * m:] = pos[m:].real
    return out


def _cross_rows(op: ProlateOperator, split: DftBandSplit) -> np.ndarray:
    """U Fbar^* B (``_slepian_rows`` of B's columns), real n_high x N, with
    the singular values of Fbar^* B.

    Refused first when 16 n_high N bytes exceed the dense-byte limit: the
    rows and the one working copy each caller makes.  Blocks of at most
    n_high / 4 columns, 32 N bytes a column, fit in that copy's bytes.
    """
    n = op.n
    _check_dense_bytes(f"_cross_rows(n={n}, w={op.w})", 16 * split.n_high * n)
    # column j of B is sym[n-1-j:2n-1-j]: one strided view serves every block
    sym = np.concatenate([op.first_row[:0:-1], op.first_row])
    cols = np.lib.stride_tricks.sliding_window_view(sym, n)[::-1]
    out = np.empty((split.n_high, n))
    step = min(512, max(1, split.n_high // 4))
    for j0 in range(0, n, step):
        out[:, j0:j0 + step] = _slepian_rows(cols[j0:j0 + step].T, split)
    return out


def _write_positive_rows(cos_sin: np.ndarray, out: np.ndarray) -> None:
    """Write into ``out`` the positive-bin rows, then the Nyquist row, of
    rows in the ``_slepian_rows`` layout."""
    m = cos_sin.shape[0] // 2
    np.multiply(cos_sin[:m], math.sqrt(0.5), out=out[:m].real)
    np.multiply(cos_sin[m:2 * m], math.sqrt(0.5), out=out[:m].imag)
    out[m:] = cos_sin[2 * m:]


def _dft_rows(cos_sin: np.ndarray) -> np.ndarray:
    """Complex column-major out-of-band rows, in ``high_indices`` order, of
    rows in the ``_slepian_rows`` layout.  The negative bins take the
    positive bins' products with the sine sign flipped, so row -k is the
    conjugate of row k bit for bit."""
    m = cos_sin.shape[0] // 2
    out = np.empty(cos_sin.shape, dtype=complex, order="F")
    _write_positive_rows(cos_sin, out[m:])
    np.multiply(cos_sin[:m][::-1], math.sqrt(0.5), out=out[:m].real)
    np.multiply(cos_sin[m:2 * m][::-1], -math.sqrt(0.5), out=out[:m].imag)
    return out


@dataclass(frozen=True)
class RoastBasis:
    """Orthonormal basis [F, Fbar @ V] with FFT-fast analysis and synthesis.

    V (n_high x R) is stored as its real factor ``q``, the builder's array,
    float64 and column-major; R = ``r`` and the basis has 2*floor(NW)+1+R
    columns.  ``method`` records the builder ("svd_fb", "svd_fbf" or
    "randomized"), ``seed`` the sketch seed when randomized.
    """

    split: DftBandSplit
    q: np.ndarray = field(repr=False)
    method: str
    seed: int | None = None

    @property
    def n(self) -> int:
        return self.split.n

    @property
    def r(self) -> int:
        return self.q.shape[1]

    @property
    def w(self) -> float:
        return self.split.w

    @property
    def dimension(self) -> int:
        return self.split.n_low + self.r

    @property
    def v(self) -> np.ndarray:
        """V: ``_dft_rows`` of q."""
        return _dft_rows(self.q)

    def analyze(self, x: np.ndarray) -> np.ndarray:
        return apply_analysis(self, x)

    def synthesize(self, coeffs: np.ndarray) -> np.ndarray:
        return apply_synthesis(self, coeffs)

    def project(self, x: np.ndarray) -> np.ndarray:
        """Q Q^* x: the out-of-band bins are replaced in place by V V^* of
        them."""
        n = self.n
        x = _leading(x, n, "samples")
        block = _column_fft(x.reshape(n, -1))
        _write_high_bins(self, _high_coefficients(self, block), block)
        return np.fft.ifft(block, axis=0, norm="ortho", out=block).reshape(x.shape)

    def dense_basis(self) -> np.ndarray:
        """Explicit N x (n_low + R) matrix [F, Fbar V], written by
        ``_write_dft``; the oracle for the fast paths.  Refused first when
        16 N (n_low + R) bytes, plus V's 16 n_high R and
        ``_DFT_BLOCK_BYTES``, exceed the dense-byte limit."""
        n, split = self.n, self.split
        _check_dense_bytes(f"dense_basis(n={n}, r={self.r})",
                           16 * (n * self.dimension + split.n_high * self.r)
                           + _DFT_BLOCK_BYTES)
        out = np.empty((n, self.dimension), dtype=complex)
        _write_dft(n, split.low_indices, out[:, :split.n_low], None)
        _write_dft(n, split.high_indices, out[:, split.n_low:], self.v)
        return out


def _out_of_band_eigenvectors(op: ProlateOperator, split: DftBandSplit,
                               r: int, power: int) -> np.ndarray:
    """Leading ``r`` eigenvectors of G = Fbar^* B^power Fbar, real n_high x r
    in the ``_slepian_rows`` layout, largest first, signed by ``_fix_signs``.

    One product with G is an inverse real FFT, ``power`` prolate matvecs
    and a real FFT, O(N log N).  Symmetric Lanczos (ARPACK) runs on G + s I:
    its residual test is relative to the Ritz value, so without the shift it
    stalls once r passes the numerical rank.  Its tolerance sits a few
    hundred eps above one product's round-off.  The Krylov space holds
    min(n_high, r + ``_KRYLOV_OVERSAMPLE``) vectors, since ARPACK fills it
    before its first convergence test and G's eigenvalues fall off
    geometrically (Halko, Martinsson and Tropp, arXiv:0909.4061, sec. 4.2).

    ARPACK cannot take r = n_high, so there ``eigh`` decomposes G applied to
    the identity, refused first when its largest stage exceeds the
    dense-byte limit: the identity and the N x n_high block beside
    ``_apply_bytes``; 8 n_high (2 n_high + 2N + 2) for the identity, the
    block, its rfft and the rows; or ``eigh``'s 40 n_high^2 for G, LAPACK's
    copy, the vectors and dsyevd's 2 n_high^2 work.  Both routes return
    orthonormal vectors.
    """
    n, n_high, h = op.n, split.n_high, split.h
    shift = 1.0 if power == 1 else math.sqrt(np.finfo(float).eps)

    def matvec(a):
        a = a.reshape(n_high, -1)
        half = np.zeros((n // 2 + 1, a.shape[1]), dtype=complex)
        _write_positive_rows(a, half[h + 1:])
        y = np.fft.irfft(half, n=n, axis=0, norm="ortho")
        del half  # before the prolate matvecs form their temporaries
        for _ in range(power):
            y = prolate_apply(op, y)
        y = _slepian_rows(y, split)
        y += shift * a
        return y

    if r == n_high:
        stages = (8 * n_high * (n_high + n) + _apply_bytes(n, n_high, float),
                  8 * n_high * (2 * n_high + 2 * n + 2), 40 * n_high**2)
        _check_dense_bytes(f"build_roast(n={n}, w={split.w}, r={r})", max(stages))
        vals, ritz = np.linalg.eigh(matvec(np.eye(n_high)))
    else:
        g = spla.LinearOperator((n_high, n_high), matvec=matvec, matmat=matvec,
                                dtype=float)
        try:
            vals, ritz = spla.eigsh(g, k=r, which="LA", v0=np.ones(n_high),
                                    ncv=min(n_high, r + _KRYLOV_OVERSAMPLE),
                                    tol=1e-13)
        except spla.ArpackError as exc:
            raise RuntimeError(
                f"Lanczos failed for n={n}, w={split.w}, r={r}: {exc}") from exc
    ritz = ritz[:, np.argsort(-vals, kind="stable")]
    _fix_signs(ritz)
    return ritz


def build_roast(n: int, w: float, r: int, method: str = "svd_fb") -> RoastBasis:
    """Build the deterministic basis with R extra out-of-band directions.

    "svd_fb" takes the dominant left singular vectors of the cross operator
    Fbar^* B, the leading eigenvectors of Fbar^* B^2 Fbar; "svd_fbf" takes
    those of Fbar^* B Fbar, which minimize the integrated in-band error
    among subspaces that contain F, at fixed R.  DPSS with as many vectors
    is optimal over all subspaces (Ky Fan).  Neither forms Fbar^* B:
    ``_out_of_band_eigenvectors`` runs in O(N R) memory.  RuntimeError if
    Lanczos fails; R = n_high is refused above its charge there.
    """
    if method not in _ROAST_METHODS:
        raise ValueError(f"method must be 'svd_fb' or 'svd_fbf', got {method!r}")
    split = build_band_split(n, w)
    if not 0 <= r <= split.n_high:
        raise ValueError(
            f"r must satisfy 0 <= r <= {split.n_high} for n={n}, w={w}, got {r}")
    if r == 0:
        q = np.zeros((split.n_high, 0))
    else:
        q = _out_of_band_eigenvectors(build_prolate(n, w), split, r,
                                      2 if method == "svd_fb" else 1)
    return RoastBasis(split=split, q=q, method=method)


def build_roast_randomized(n: int, w: float, p: int, seed: int) -> RoastBasis:
    """Build the basis from a Gaussian range sketch of the cross operator
    (Halko, Martinsson and Tropp, arXiv:0909.4061, Alg. 4.1), in
    O(P N log N): ``_sketch``, then ``_sketch_basis``, whose kept R may be
    below P.  It peaks in ``_sketch`` at Omega's 8 N P bytes, the sketch's
    8 n_high P and one column group's ``_apply_bytes``."""
    split = build_band_split(n, w)
    if not 1 <= p <= split.n_high:
        raise ValueError(
            f"sketch width must satisfy 1 <= p <= {split.n_high}, got {p}")
    return _sketch_basis(split, _sketch(build_prolate(n, w), split, p, seed), seed)


def _sketch(op: ProlateOperator, split: DftBandSplit, p: int, seed: int) -> np.ndarray:
    """Real cosine/sine rows (``_slepian_rows``) of Fbar^* B Omega, Omega
    the N x ``p`` standard Gaussian from ``seed``, as a column-major
    n_high x ``p`` array.

    Omega is drawn column-major in ``_COPY_BYTES`` row blocks, the values of
    one N x ``p`` draw, and goes through B in ``_group_width`` column groups
    written into the sketch: Omega's 8 N P bytes, the sketch's 8 n_high P
    and one group's ``_apply_bytes`` are held at once.
    """
    n = op.n
    rng = np.random.default_rng(seed)
    omega = np.empty((n, p), order="F")
    rows = max(1, _COPY_BYTES // (8 * max(p, 1)))
    for i0 in range(0, n, rows):
        omega[i0:i0 + rows] = rng.standard_normal((min(rows, n - i0), p))
    sketch = np.empty((split.n_high, p), order="F")
    cols = _group_width(op, float)
    for j0 in range(0, p, cols):
        sketch[:, j0:j0 + cols] = _slepian_rows(
            prolate_apply(op, omega[:, j0:j0 + cols]), split)
    return sketch


def _sketch_basis(split: DftBandSplit, sketch: np.ndarray, seed: int) -> RoastBasis:
    """The randomized basis from the pivoted QR of a real ``sketch``.

    Columns whose triangular-factor diagonal falls below ``_RANK_TOL`` of
    the leading one are dropped.  ``dorgqr`` forms only the kept columns
    from the raw QR's reflectors, and the basis stores a compact
    column-major copy of them, signed by ``_fix_signs``.
    """
    (qr, tau), rmat, _ = sla.qr(sketch, mode="raw", pivoting=True)
    diag = np.abs(np.diag(rmat))
    keep = int(np.sum(diag > _RANK_TOL * diag[0])) if diag.size else 0
    if keep == 0:  # dorgqr refuses an empty factor
        return RoastBasis(split=split, q=np.zeros((split.n_high, 0)),
                          method="randomized", seed=int(seed))
    lwork = int(sla.lapack.dorgqr(qr[:, :keep], tau[:keep], lwork=-1)[1][0])
    real, _, info = sla.lapack.dorgqr(qr[:, :keep], tau[:keep], lwork=lwork,
                                      overwrite_a=True)
    if info != 0:
        raise RuntimeError(f"dorgqr failed with info={info}")
    _fix_signs(real)
    return RoastBasis(split=split, q=real.copy(order="F"), method="randomized",
                      seed=int(seed))


def _column_fft(x: np.ndarray) -> np.ndarray:
    """Orthonormal FFT down axis 0; a block whose columns are not
    contiguous, which numpy's FFT reads slowly, is transformed in a
    ``_column_major`` copy."""
    if x.ndim == 1 or x.flags.f_contiguous:
        return np.fft.fft(x, axis=0, norm="ortho")
    buf = _column_major(x, complex)
    return np.fft.fft(buf, axis=0, norm="ortho", out=buf)


def _bin_pairs(split: DftBandSplit, spectrum: np.ndarray) -> tuple:
    """Views of an N x c ``spectrum``: the m = ``n_neg`` positive
    out-of-band bins ascending, the negative bins -k in the same order, and
    the Nyquist bin (no row for odd N)."""
    n, h, m = split.n, split.h, split.n_neg
    return (spectrum[h + 1:h + 1 + m], spectrum[n - h - 1:n // 2:-1],
            spectrum[h + 1 + m:n // 2 + 1])


def _fold(pos: np.ndarray, neg: np.ndarray, nyquist: np.ndarray) -> np.ndarray:
    """The +-k fold of complex rows s, c columns each, at the positive bins k
    (``pos``), the bins -k in the same order (``neg``) and the Nyquist bin:
    the real column-major n_high x 2c array Y = [Re | Im] of s_k + s_{-k},
    i (s_{-k} - s_k) and s_Nyquist, in q's row order.

    With V[k] = (a + ib) / sqrt(2), a and b the cosine and sine rows of q,
    conj V[k] s_k + V[k] s_{-k} = (a (s_k + s_{-k}) + i b (s_{-k} - s_k)) /
    sqrt(2).  So Y, its pairs scaled by sqrt(1/2), is U s for the unitary U
    with U V = q, and V^* s = (U V)^* U s is q^T of it.
    """
    m, cols = pos.shape
    y = np.empty((2 * m + nyquist.shape[0], 2 * cols), order="F")
    re, im = y[:, :cols], y[:, cols:]
    np.add(pos.real, neg.real, out=re[:m])
    np.add(pos.imag, neg.imag, out=im[:m])
    np.subtract(pos.imag, neg.imag, out=re[m:2 * m])
    np.subtract(neg.real, pos.real, out=im[m:2 * m])
    re[2 * m:] = nyquist.real
    im[2 * m:] = nyquist.imag
    return y


def _high_coefficients(basis: RoastBasis, spectrum: np.ndarray) -> np.ndarray:
    """V^* s over the out-of-band bins s of an N x c ``spectrum``, as the real
    R x 2c array [Re | Im]: q^T of the bins' ``_fold``, the pairs' share
    summed over ``_ROW_CHUNK`` row blocks and scaled by sqrt(1/2)."""
    y = _fold(*_bin_pairs(basis.split, spectrum))
    q, pairs = basis.q, 2 * basis.split.n_neg
    qp, yp = q[:pairs], y[:pairs]
    z = qp[:_ROW_CHUNK].T @ yp[:_ROW_CHUNK]
    for i0 in range(_ROW_CHUNK, pairs, _ROW_CHUNK):
        z += qp[i0:i0 + _ROW_CHUNK].T @ yp[i0:i0 + _ROW_CHUNK]
    z *= math.sqrt(0.5)
    z += q[pairs:].T @ y[pairs:]
    return z


def _write_high_bins(basis: RoastBasis, z: np.ndarray,
                     spectrum: np.ndarray) -> None:
    """Write V c into the out-of-band bins of an N x c ``spectrum``, c given
    as the real R x 2c array ``z`` = [Re | Im].

    P = q z is formed with the cosine and sine rows of q on a copy of z
    scaled by sqrt(1/2), in row blocks of ``_ROW_CHUNK``, and with the
    Nyquist row on z itself, so no scaling touches that row.  P then holds
    a.c and b.c for V[k] = a + ib at each positive bin k.  Then V[k] c =
    (a.Re c - b.Im c) + i (a.Im c + b.Re c), and bin -k gets conj(V[k]) c =
    (a.Re c + b.Im c) + i (a.Im c - b.Re c).
    """
    m, cols, q = basis.split.n_neg, spectrum.shape[1], basis.q
    pairs, scaled = 2 * m, z * math.sqrt(0.5)
    p = np.empty((basis.split.n_high, 2 * cols), order="F")
    qp, pp = q[:pairs], p[:pairs]
    for i0 in range(0, pairs, _ROW_CHUNK):
        np.matmul(qp[i0:i0 + _ROW_CHUNK], scaled, out=pp[i0:i0 + _ROW_CHUNK])
    np.matmul(q[pairs:], z, out=p[pairs:])
    pr, pi = p[:, :cols], p[:, cols:]
    pos, neg, nyquist = _bin_pairs(basis.split, spectrum)
    np.subtract(pr[:m], pi[m:2 * m], out=pos.real)
    np.add(pi[:m], pr[m:2 * m], out=pos.imag)
    np.add(pr[:m], pi[m:2 * m], out=neg.real)
    np.subtract(pi[:m], pr[m:2 * m], out=neg.imag)
    nyquist.real = pr[2 * m:]
    nyquist.imag = pi[2 * m:]


def apply_analysis(basis: RoastBasis, x: np.ndarray) -> np.ndarray:
    """Coefficients Q^* x of a vector or columns, in O(N log N + N R): one
    ``_column_fft``, two in-band slices of the spectrum (``DftBandSplit``)
    and ``_high_coefficients``.  Block coefficients come back column-major.
    """
    n = basis.n
    x = _leading(x, n, "samples")
    h, n_low = basis.split.h, basis.split.n_low
    spectrum = _column_fft(x.reshape(n, -1))
    z = _high_coefficients(basis, spectrum)
    cols = spectrum.shape[1]
    out = np.empty((basis.dimension, cols), dtype=complex, order="F")
    out[:h] = spectrum[n - h:]
    out[h:n_low] = spectrum[:h + 1]
    out[n_low:].real = z[:, :cols]
    out[n_low:].imag = z[:, cols:]
    return out.reshape((basis.dimension,) + x.shape[1:])


def apply_synthesis(basis: RoastBasis, coeffs: np.ndarray) -> np.ndarray:
    """Q @ coeffs, the exact inverse of analysis on coefficient space: a
    column-major spectrum filled by two in-band slices and
    ``_write_high_bins``, then one orthonormal inverse FFT in place."""
    n, n_low, r = basis.n, basis.split.n_low, basis.r
    coeffs = _leading(coeffs, n_low + r, "coefficients")
    h, c = basis.split.h, coeffs.reshape(n_low + r, -1)
    cols = c.shape[1]
    block = np.empty((n, cols), dtype=complex, order="F")
    block[n - h:] = c[:h]
    block[:h + 1] = c[h:n_low]
    z = np.empty((r, 2 * cols), order="F")
    z[:, :cols] = c[n_low:].real
    z[:, cols:] = c[n_low:].imag
    _write_high_bins(basis, z, block)
    spectrum = np.fft.ifft(block, axis=0, norm="ortho", out=block)
    return spectrum.reshape((n,) + coeffs.shape[1:])


@dataclass(frozen=True)
class SubDftBasis:
    """Widened partial DFT: the band columns plus R nearest out-of-band ones,
    ceil(R/2) of them on the positive-frequency side."""

    n: int
    indices: np.ndarray

    @property
    def dimension(self) -> int:
        return len(self.indices)

    def dense_basis(self) -> np.ndarray:
        return dft_columns(self.n, self.indices)

    def analyze(self, x: np.ndarray) -> np.ndarray:
        x = _leading(x, self.n, "samples")
        return _column_fft(x)[self.indices]

    def synthesize(self, coeffs: np.ndarray) -> np.ndarray:
        coeffs = _leading(coeffs, self.dimension, "coefficients")
        spectrum = np.zeros((self.n,) + coeffs.shape[1:], dtype=complex, order="F")
        spectrum[self.indices] = coeffs
        return np.fft.ifft(spectrum, axis=0, norm="ortho", out=spectrum)

    def project(self, x: np.ndarray) -> np.ndarray:
        return self.synthesize(self.analyze(x))


def build_subdft(n: int, w: float, r: int) -> SubDftBasis:
    """Baseline projector onto the 2*floor(NW)+1+R lowest-frequency columns."""
    split = build_band_split(n, w)
    if split.n_low + r > n:
        raise ValueError(
            f"band overflow: {split.n_low}+{r} columns exceed n={n}")
    if r < 0:
        raise ValueError(f"r must be nonnegative, got {r}")
    signed = np.arange(-(split.h + r // 2), split.h + (r + 1) // 2 + 1)
    return SubDftBasis(n=int(n), indices=np.mod(signed, n))


# Each builder takes (n, w, r, seed) and returns a basis of dimension
# 2*floor(NW)+1+R (fewer only if a randomized sketch is rank-deficient).
# The builders look the constructors up at call time, so a wrapped
# module-level constructor sees these calls too.
BASES = {
    "dpss": lambda n, w, r, seed: build_dpss(n, w, 2 * math.floor(n * w) + 1 + r),
    "roast": lambda n, w, r, seed: build_roast(n, w, r),
    "roast_randomized": lambda n, w, r, seed: build_roast_randomized(n, w, r, seed),
    "subdft": lambda n, w, r, seed: build_subdft(n, w, r),
}


# ---------------------------------------------------------------------------
# subspace sizing rules
#
# All use the transition-width constant C_N and natural logarithms; they map
# a target accuracy to the number of extra directions (or sketch width).

def rank_for_capture(n: int, eps: float) -> int:
    """R so that the leading-DPSS capture error stays below eps."""
    return int(np.ceil(log_width_constant(n) * np.log(15.0 / eps)))


def rank_for_capture_angle(n: int, eps: float) -> int:
    """Enlarged R for the subspace-angle guarantee cos >= sqrt(1-eps)."""
    return int(np.ceil(log_width_constant(n) * np.log(15.0 * n / eps)))


def rank_for_average(n: int, eps: float) -> int:
    """R so the band-averaged normalized residual stays below eps."""
    c = log_width_constant(n)
    return max(int(np.ceil(c * np.log(15.0 * c / (n * eps)))) + 1, 0)


def rank_for_pointwise(n: int, w: float, eps: float) -> int:
    """R so every in-band sinusoid has normalized residual below eps."""
    c = log_width_constant(n)
    r1 = int(np.ceil(c * np.log(60.0 * np.pi * c / eps**2))) + 1
    r2 = int(np.ceil(c * np.log(15.0 * c / (n * w * eps)))) + 1
    return max(r1, r2)


def sketch_for_capture(n: int, eps: float) -> int:
    """Sketch width P for the randomized builder, capture-error target eps."""
    c = log_width_constant(n)
    return int(np.ceil(2.0 * c * np.log((30.0 + 15.0 * np.e) / eps))) + 3


def sketch_for_capture_angle(n: int, eps: float) -> int:
    c = log_width_constant(n)
    return int(np.ceil(2.0 * c * np.log((30.0 + 15.0 * np.e) * n / eps))) + 3


def sketch_for_average(n: int, eps: float) -> int:
    c = log_width_constant(n)
    return int(np.ceil(4.0 / 3.0 * c * np.log(15.0 * np.sqrt(2.0 * c) / eps)
                       + 7.0 / 3.0))


def sketch_for_pointwise(n: int, w: float, eps: float) -> int:
    c = log_width_constant(n)
    p1 = int(np.ceil(4.0 / 3.0 * c * np.log(60.0 * np.pi * n * np.sqrt(2.0 * c)
                                            / eps**2) + 7.0 / 3.0))
    p2 = int(np.ceil(4.0 / 3.0 * c * np.log(15.0 * np.pi * np.sqrt(2.0 * c)
                                            / (w * eps)) + 7.0 / 3.0))
    return max(p1, p2)


def fst_rank_bound(n: int, delta: float) -> int:
    """Skinny-factor width the non-orthogonal factorization needs at accuracy delta."""
    return int(np.ceil(3.0 * log_width_constant(n) * np.log(15.0 / delta)))


# ---------------------------------------------------------------------------
# serialization
#
# Layout: magic "ROAST\0", format version u16 LE, u32 LE header length, UTF-8
# JSON header {n, w, r, method, seed?} with sorted keys, the real factor q
# (n_high x R) as column-major little-endian float64, CRC32 (u32 LE) of every
# preceding byte.  The same basis always encodes to the same bytes; the
# reader refuses other versions and ignores unknown header keys.

_MAGIC = b"ROAST\x00"
_FORMAT_VERSION = 2
# A consistent header of a few bytes with r = 0 describes a basis of any
# length, and each analysis or synthesis of it allocates 16 N bytes or more;
# 2**24 samples cap one such vector at 256 MiB.
_MAX_READ_LENGTH = 2**24


class BasisFormatError(ValueError):
    """Raised for corrupt, truncated, or incompatible basis streams."""


def serialize_basis(basis: RoastBasis) -> bytes:
    """Encode a built basis; the round trip restores q bit for bit."""
    header = {
        "n": basis.n,
        "w": basis.w,
        "r": basis.r,
        "method": basis.method,
    }
    if basis.seed is not None:
        header["seed"] = basis.seed
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    q_bytes = basis.q.astype("<f8", copy=False).tobytes(order="F")
    payload = (_MAGIC + struct.pack("<H", _FORMAT_VERSION)
               + struct.pack("<I", len(header_bytes)) + header_bytes + q_bytes)
    return payload + struct.pack("<I", zlib.crc32(payload))


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def deserialize_basis(data: bytes) -> RoastBasis:
    """Decode a serialized basis, validating structure, checksum and shape;
    headers with a signal length above 2**24 are refused.  q is a read-only
    view of the payload bytes."""
    fixed = len(_MAGIC) + 2 + 4
    if len(data) < fixed + 4:
        raise BasisFormatError("truncated stream: shorter than the fixed header")
    if data[:len(_MAGIC)] != _MAGIC:
        raise BasisFormatError("bad magic bytes: not a basis stream")
    (version,) = struct.unpack_from("<H", data, len(_MAGIC))
    if version != _FORMAT_VERSION:
        raise BasisFormatError(
            f"unsupported format version {version}, expected {_FORMAT_VERSION}")
    (header_len,) = struct.unpack_from("<I", data, len(_MAGIC) + 2)
    header_end = fixed + header_len
    if len(data) < header_end + 4:
        raise BasisFormatError("truncated stream: header extends past the end")
    try:
        header = json.loads(data[fixed:header_end].decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise BasisFormatError(f"unreadable header: {exc}") from exc

    (stored_crc,) = struct.unpack_from("<I", data, len(data) - 4)
    if zlib.crc32(data[:-4]) != stored_crc:
        raise BasisFormatError("checksum failure: payload does not match CRC32")

    if not isinstance(header, dict):
        raise BasisFormatError(
            f"header must be a JSON object, got {type(header).__name__}")
    for key in ("n", "w", "r", "method"):
        if key not in header:
            raise BasisFormatError(f"header missing required field {key!r}")
    n, w, r, method = header["n"], header["w"], header["r"], header["method"]
    seed = header.get("seed")
    if not _is_int(n) or n < 2:
        raise BasisFormatError(f"invalid signal length in header: {n!r}")
    if n > _MAX_READ_LENGTH:
        raise BasisFormatError(
            f"signal length {n} in header exceeds the reader's limit "
            f"{_MAX_READ_LENGTH}")
    if not (isinstance(w, float) and 0.0 < w < 0.5):
        raise BasisFormatError(f"invalid half-bandwidth in header: {w!r}")
    if method not in _METHODS:
        raise BasisFormatError(f"unknown construction method {method!r}")
    if "seed" in header and not _is_int(seed):
        raise BasisFormatError(f"invalid sketch seed in header: {seed!r}")
    split = build_band_split(n, w)
    if not _is_int(r) or not 0 <= r <= split.n_high:
        raise BasisFormatError(f"inconsistent column count r={r!r} for n={n}, w={w}")

    q_bytes = data[header_end:-4]
    expected = split.n_high * r * 8
    if len(q_bytes) != expected:
        raise BasisFormatError(
            f"dimension inconsistency: payload holds {len(q_bytes)} bytes, "
            f"header implies {expected}")
    q = np.frombuffer(q_bytes, dtype="<f8").reshape((split.n_high, r), order="F")
    return RoastBasis(split=split, q=q, method=method, seed=seed)
