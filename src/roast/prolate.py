"""Prolate (sinc-kernel) operator, DPSS basis, DFT band split, and test signal.

The implicit Toeplitz operator with an FFT-fast matvec, the Slepian vectors
of the commuting tridiagonal, the in-band/out-of-band split of the DFT and
``random_bandlimited``, on which everything downstream builds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

__all__ = [
    "ProlateOperator",
    "DpssBasis",
    "DftBandSplit",
    "DenseSizeError",
    "SignalEnsemble",
    "build_prolate",
    "prolate_apply",
    "build_dpss",
    "build_band_split",
    "random_bandlimited",
    "log_width_constant",
]

# Eigenvalues of the prolate operator are mathematically in (0, 1); computed
# Rayleigh quotients can land epsilon outside and are clamped back in.
_EIG_CLAMP = 2.0 ** -53

# Every dense path (the DPSS solve, the cross operator, dense bases and
# projectors) refuses a call whose estimated bytes exceed this.
_MAX_DENSE_BYTES = 2 ** 31

# Most columns per real FFT when build_dpss takes its Rayleigh quotients.
_RAYLEIGH_BLOCK = 64

# Rows per block while _fix_signs looks for each column's first entry.
_SIGN_ROWS = 64

# Bytes of one column group's spectrum; prolate_apply takes in such groups a
# block wider than one group or whose columns are not contiguous.
_GROUP_BYTES = 2 ** 22

# Bytes of one row block of a copy into column-major order.
_COPY_BYTES = 2 ** 17

# Complex entries in one tone chunk's phasor tables in random_bandlimited.
_PHASOR_BUDGET = 2 ** 20


def log_width_constant(n: int) -> float:
    """Spectral transition-width constant (4/pi^2) * ln(8N) + 6."""
    return (4.0 / math.pi**2) * math.log(8.0 * n) + 6.0


class DenseSizeError(ValueError):
    """Raised when a dense path refuses a size above ``_MAX_DENSE_BYTES``."""


def _check_dense_bytes(what: str, estimate: int) -> None:
    """Refuse ``what`` when its estimated bytes exceed ``_MAX_DENSE_BYTES``."""
    if estimate > _MAX_DENSE_BYTES:
        raise DenseSizeError(
            f"{what} needs about {estimate / 2**20:.0f} MiB, "
            f"above the {_MAX_DENSE_BYTES / 2**20:.0f} MiB limit")


def _validate_nw(n: int, w: float) -> None:
    if not isinstance(n, (int, np.integer)) or n < 2:
        raise ValueError(f"signal length must be an integer >= 2, got {n!r}")
    if not (0.0 < w < 0.5):
        raise ValueError(f"half-bandwidth must lie in the open interval (0, 1/2), got {w!r}")


def _leading(a, length: int, what: str) -> np.ndarray:
    """``a`` as an array, checked to be a vector or block of ``length`` rows."""
    a = np.asarray(a)
    if a.ndim == 0 or a.shape[0] != length:
        raise ValueError(f"expected {length} {what}, got an array of shape {a.shape}")
    return a


def _column_major(x: np.ndarray, dtype) -> np.ndarray:
    """``x`` copied into a new column-major ``dtype`` array, in row blocks of
    about ``_COPY_BYTES`` so each block's transposition stays in cache."""
    out = np.empty(x.shape, dtype=dtype, order="F")
    rows = max(1, _COPY_BYTES // (out.itemsize * x.shape[1]))
    for i0 in range(0, x.shape[0], rows):
        out[i0:i0 + rows] = x[i0:i0 + rows]
    return out


def _real_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for a real matrix ``a``.  A complex ``b`` is taken by its real
    and imaginary parts, so no complex copy of ``a`` is formed: 32 MiB for
    N = 2048 Slepian vectors of which k = 1024 are kept."""
    if not np.iscomplexobj(b):
        return a @ b
    out = np.empty(a.shape[:1] + b.shape[1:], dtype=complex)
    out.real = a @ b.real
    out.imag = a @ b.imag
    return out


def _embed_size(n: int) -> int:
    """Next power of two >= 2N-1, the circulant embedding length."""
    m = 1
    while m < 2 * n - 1:
        m *= 2
    return m


@dataclass(frozen=True)
class ProlateOperator:
    """Implicit N x N symmetric Toeplitz matrix sin(2*pi*W*(m-n)) / (pi*(m-n)).

    The diagonal value is the sinc limit 2W.  Matrix-vector products run
    through a circulant embedding of power-of-two length, so a single apply
    costs O(N log N).  Immutable and safe to share across threads.
    """

    n: int
    w: float
    first_row: np.ndarray
    circulant_spectrum: np.ndarray = field(repr=False)

    @property
    def embed_size(self) -> int:
        return len(self.circulant_spectrum)

    def trace(self) -> float:
        return 2.0 * self.n * self.w


def build_prolate(n: int, w: float) -> ProlateOperator:
    """The prolate operator for length ``n`` >= 2 and half-bandwidth ``w``
    in (0, 1/2)."""
    _validate_nw(n, w)
    first_row = np.empty(n)
    first_row[0] = 2.0 * w
    m = np.arange(1, n)
    first_row[1:] = np.sin(2.0 * np.pi * w * m) / (np.pi * m)

    size = _embed_size(n)
    col = np.zeros(size)
    col[:n] = first_row
    col[size - n + 1:] = first_row[1:][::-1]
    spectrum = np.fft.fft(col)
    return ProlateOperator(n=int(n), w=float(w), first_row=first_row,
                           circulant_spectrum=spectrum)


def _circulant_apply(op: ProlateOperator, block: np.ndarray) -> np.ndarray:
    """B @ block for a vector or an N x b block with contiguous columns."""
    size = op.embed_size
    spec = op.circulant_spectrum
    spec = spec if block.ndim == 1 else spec[:, None]
    if np.isrealobj(block):
        half = np.fft.rfft(block, n=size, axis=0)
        np.multiply(spec[:size // 2 + 1], half, out=half)
        return np.fft.irfft(half, n=size, axis=0)[:op.n]
    full = np.fft.fft(block, n=size, axis=0)
    np.multiply(spec, full, out=full)
    return np.fft.ifft(full, axis=0, out=full)[:op.n]


def _group_width(op: ProlateOperator, dtype) -> int:
    """Columns of one ``prolate_apply`` group: the most whose spectrum holds
    at most ``_GROUP_BYTES``, and at least one."""
    return max(1, _GROUP_BYTES // (np.dtype(dtype).itemsize * op.embed_size))


def _apply_bytes(n: int, cols: int, dtype) -> int:
    """Bytes ``prolate_apply`` holds for an N x ``cols`` block: the result
    and 3 ``_GROUP_BYTES`` for one group's copy, spectrum and inverse."""
    return np.dtype(dtype).itemsize * n * cols + 3 * _GROUP_BYTES


def prolate_apply(op: ProlateOperator, x: np.ndarray) -> np.ndarray:
    """B @ x via the circulant embedding, for a length-N vector or an N x b
    block; each column is bit for bit the same whatever the layout, and
    real input gives a real result by the real FFT.

    A block wider than one group, or whose columns are not contiguous,
    which numpy's FFT reads slowly, goes in groups of ``_group_width``
    columns, each copied column-major if it is not; ``_apply_bytes`` bounds
    what it holds.
    """
    x = np.asarray(x)
    if x.shape[0] != op.n:
        raise ValueError(f"operator size {op.n} does not match input length {x.shape[0]}")
    dtype = np.dtype(float if np.isrealobj(x) else complex)
    cols = _group_width(op, dtype)
    if x.ndim == 1 or (x.flags.f_contiguous and x.shape[1] <= cols):
        return _circulant_apply(op, x)
    out = np.empty(x.shape, dtype=dtype, order="F")
    for j0 in range(0, x.shape[1], cols):
        group = x[:, j0:j0 + cols]
        if not group.flags.f_contiguous:
            group = _column_major(group, dtype)
        out[:, j0:j0 + cols] = _circulant_apply(op, group)
    return out


@dataclass(frozen=True)
class DpssBasis:
    """Leading ``k`` Slepian vectors with concentration eigenvalues; ``n``
    and ``k`` are the shape of ``vectors``.

    The columns are orthonormal, Fortran-ordered, signed by ``_fix_signs``
    and in the commuting tridiagonal's descending order, so column j has
    parity (-1)^j under time reversal.  ``eigenvalues`` holds their Rayleigh
    quotients sorted descending; a column's own quotient differs from its
    listed value only inside the clusters at 0 and 1.
    """

    w: float
    vectors: np.ndarray
    eigenvalues: np.ndarray

    @property
    def n(self) -> int:
        return self.vectors.shape[0]

    @property
    def k(self) -> int:
        return self.vectors.shape[1]

    @property
    def dimension(self) -> int:
        return self.k

    def dense_basis(self) -> np.ndarray:
        return self.vectors

    def analyze(self, x: np.ndarray) -> np.ndarray:
        x = _leading(x, self.n, "samples")
        c = _real_product(self.vectors.T, x.reshape(self.n, -1))
        return c.reshape((self.k,) + x.shape[1:])

    def synthesize(self, coeffs: np.ndarray) -> np.ndarray:
        coeffs = _leading(coeffs, self.k, "coefficients")
        x = _real_product(self.vectors, coeffs.reshape(self.k, -1))
        return x.reshape((self.n,) + coeffs.shape[1:])

    def project(self, x: np.ndarray) -> np.ndarray:
        """Orthogonal projection onto the span of the retained vectors."""
        return self.synthesize(self.analyze(x))


def _half_eigenvectors(diag: np.ndarray, off: np.ndarray, count: int) -> np.ndarray:
    """Top ``count`` eigenvectors, descending, of a half-size tridiagonal."""
    try:
        _, u = sla.eigh_tridiagonal(diag, off, lapack_driver="stevd")
    except (sla.LinAlgError, ValueError) as exc:
        raise RuntimeError(
            f"tridiagonal eigensolver failed at half size {len(diag)}: {exc}"
        ) from exc
    return u[:, len(diag) - count:][:, ::-1]


def _fix_signs(vecs: np.ndarray) -> None:
    """Flip real columns in place so each one's first entry of magnitude
    above 1e-12 is positive; a column with none is signed by its first
    entry.  Rows are scanned in blocks of at most ``_SIGN_ROWS`` and an
    eighth of the rows, so the copies stay near a quarter of the array's
    bytes, and columns are negated one at a time, so no iterator buffer of
    up to 64 KiB comes on top."""
    first = vecs[0].copy()
    open_cols = np.arange(vecs.shape[1])
    rows = min(_SIGN_ROWS, max(1, vecs.shape[0] // 8))
    for i0 in range(0, vecs.shape[0], rows):
        if not open_cols.size:
            break
        block = vecs[i0:i0 + rows, open_cols]
        above = np.abs(block) > 1e-12
        found = above.any(axis=0)
        first[open_cols[found]] = block[above[:, found].argmax(axis=0),
                                        np.flatnonzero(found)]
        open_cols = open_cols[~found]
    for j in np.flatnonzero(first < 0.0):
        np.negative(vecs[:, j], out=vecs[:, j])


def _power_spectrum(spec: np.ndarray) -> np.ndarray:
    """Re^2 + Im^2 of a complex spectrum, both parts squared in place, so
    the real result is the one array formed beside it."""
    np.square(spec.real, out=spec.real)
    np.square(spec.imag, out=spec.imag)
    return spec.real + spec.imag


def build_dpss(n: int, w: float, k: int) -> DpssBasis:
    """Compute the leading ``k`` DPSS vectors of bandwidth ``w``.

    The vectors are eigenvectors of the symmetric tridiagonal T that commutes
    with the prolate operator (diagonal d_m = ((N-1-2m)/2)^2 cos(2piW),
    off-diagonal e_m = (m+1)(N-m-1)/2).  T is persymmetric, so each
    eigenvector is exactly even or odd under reversal J, and with h =
    floor(N/2) the problem splits into two of half size:

    - N even: T[:h,:h] with +-e_{h-1} added to its last diagonal entry,
      v = [u; +-Ju] / sqrt(2);
    - N odd, even parity: diagonal d_0..d_h, off-diagonal e_0..e_{h-1} with
      the last entry times sqrt(2), v = [u_{:h}/sqrt(2); u_h; Ju_{:h}/sqrt(2)];
    - N odd, odd parity: T[:h,:h], v = [u; 0; -Ju] / sqrt(2).

    Each half is solved in full by divide and conquer (LAPACK ``stevd``), at
    O(N^2) time and memory whatever k is.  T is a Jacobi matrix, so in
    descending order the j-th eigenvector has parity (-1)^j: the columns
    interleave the top ceil(k/2) even and floor(k/2) odd vectors.  Refused
    first when 8 (N k + 2 ceil(N/2)^2) bytes exceed the dense-byte limit;
    no N x k temporary comes on top.

    Each eigenvalue is a Rayleigh quotient from one real FFT: by Parseval
    v^T B v = sum_j c_j |V_j|^2 / M for the M-point spectrum V of the padded
    v and the real circulant spectrum c.  Columns go in blocks of at most
    ``_RAYLEIGH_BLOCK`` that fit in the bytes of the half-size solve.
    """
    _validate_nw(n, w)
    if not 1 <= k <= n:
        raise ValueError(f"number of vectors must satisfy 1 <= k <= {n}, got {k}")
    _check_dense_bytes(f"build_dpss(n={n}, k={k})",
                       8 * (n * k + 2 * ((n + 1) // 2) ** 2))

    h = n // 2
    m = np.arange(h + 1)
    diag = ((n - 1.0 - 2.0 * m) / 2.0) ** 2 * np.cos(2.0 * np.pi * w)
    off = (m[:h] + 1.0) * (n - m[:h] - 1.0) / 2.0
    k_even, k_odd = (k + 1) // 2, k // 2
    vecs = np.empty((n, k), order="F")
    even, odd = vecs[:, 0::2], vecs[:, 1::2]
    root2 = math.sqrt(2.0)
    # each half is copied in, and freed, before it is scaled in place: a
    # ufunc on these strided views takes iterator buffers of up to 64 KiB,
    # which must not come on top of the half-size eigenvectors.  Mirroring
    # goes through a ufunc too; assignment between two views of vecs would
    # copy the whole source first
    if n % 2 == 0:
        for sign, cols, count in ((1.0, even, k_even), (-1.0, odd, k_odd)):
            d = diag[:h].copy()
            d[-1] += sign * off[h - 1]
            cols[:h] = _half_eigenvectors(d, off[:h - 1], count)
            cols[:h] /= root2
            np.multiply(cols[h - 1::-1], sign, out=cols[h:])
    else:
        e = off.copy()
        e[-1] *= root2
        even[:h + 1] = _half_eigenvectors(diag, e, k_even)
        even[:h] /= root2
        np.positive(even[h - 1::-1], out=even[h + 1:])
        odd[:h] = _half_eigenvectors(diag[:h], off[:h - 1], k_odd)
        odd[:h] /= root2
        odd[h] = 0.0
        np.negative(odd[h - 1::-1], out=odd[h + 1:])

    _fix_signs(vecs)

    op = build_prolate(n, w)
    half = op.embed_size // 2 + 1
    weight = op.circulant_spectrum[:half].real * (2.0 / op.embed_size)
    weight[[0, -1]] /= 2.0
    # a column's spectrum and power take 24 * half bytes, and the iterator
    # buffers of squaring the spectrum's strided parts at most 8 * half
    # more; a block fits in the 16 ceil(N/2)^2 bytes the half-size solve held
    cols = min(_RAYLEIGH_BLOCK, max(1, 16 * ((n + 1) // 2) ** 2 // (32 * half)))
    lam = np.empty(k)
    for j0 in range(0, k, cols):
        lam[j0:j0 + cols] = weight @ _power_spectrum(
            np.fft.rfft(vecs[:, j0:j0 + cols], n=op.embed_size, axis=0))
    lam = -np.sort(-np.clip(lam, _EIG_CLAMP, 1.0 - _EIG_CLAMP))
    return DpssBasis(w=float(w), vectors=vecs, eigenvalues=lam)


@dataclass(frozen=True)
class DftBandSplit:
    """Partition of the N DFT columns into the 2*floor(NW)+1 lowest
    frequencies and their complement, stored as (N, W) alone.

    With h = floor(NW), the in-band bins are spectrum[N-h:] then
    spectrum[:h+1], and the out-of-band ones the ``n_neg`` negative bins
    spectrum[N//2+1:N-h] then the positive ones spectrum[h+1:N//2+1],
    Nyquist last: ``low_indices`` and ``high_indices``, in ascending signed
    frequency.
    """

    n: int
    w: float

    @property
    def h(self) -> int:
        return math.floor(self.n * self.w)

    @property
    def n_low(self) -> int:
        return 2 * self.h + 1

    @property
    def n_high(self) -> int:
        return self.n - self.n_low

    @property
    def n_neg(self) -> int:
        return self.n_high // 2

    @property
    def low_indices(self) -> np.ndarray:
        return np.r_[self.n - self.h:self.n, :self.h + 1]

    @property
    def high_indices(self) -> np.ndarray:
        n, h = self.n, self.h
        return np.r_[n // 2 + 1:n - h, h + 1:n // 2 + 1]


def build_band_split(n: int, w: float) -> DftBandSplit:
    """Split the normalized DFT into in-band and out-of-band column sets;
    W < 1/2 keeps the 2 floor(NW) + 1 in-band columns within N."""
    _validate_nw(n, w)
    return DftBandSplit(n=int(n), w=float(w))


@dataclass(frozen=True)
class SignalEnsemble:
    """A length-N test signal."""

    samples: np.ndarray


def random_bandlimited(n: int, w: float, num_tones: int, seed: int) -> SignalEnsemble:
    """Superpose ``num_tones`` unit-amplitude random-phase sinusoids with
    frequencies drawn uniformly from [-w, w], reproducibly from ``seed``.

    x[m] = sum_j c_j exp(2 pi i f_j m) is evaluated through the two-level
    factorization exp(2 pi i f (qB + r)) = exp(2 pi i f qB) exp(2 pi i f r),
    with B the power of two nearest sqrt(N): ceil(N/B) + B exponentials a
    tone, and one complex GEMM over each chunk of tones whose two phasor
    tables hold at most ``_PHASOR_BUDGET`` entries.  The error against an
    exact sum stays within 4 sqrt(T) (2 pi W N + 8) eps for T tones.
    """
    _validate_nw(n, w)
    if num_tones < 1:
        raise ValueError(f"need at least one tone, got {num_tones}")
    rng = np.random.default_rng(seed)
    freqs = rng.uniform(-w, w, num_tones)
    coeffs = np.exp(2j * np.pi * rng.uniform(0.0, 1.0, num_tones))
    inner_len = 1 << round(math.log2(n) / 2)
    outer_len = -(-n // inner_len)
    inner_m = np.arange(inner_len, dtype=float)
    outer_m = inner_len * np.arange(outer_len, dtype=float)
    chunk = max(1, _PHASOR_BUDGET // (outer_len + inner_len))
    samples = np.zeros((outer_len, inner_len), dtype=complex)
    for j0 in range(0, num_tones, chunk):
        omega = 2.0 * np.pi * freqs[j0:j0 + chunk]
        outer = np.exp(1j * np.outer(outer_m, omega))
        outer *= coeffs[j0:j0 + chunk]
        samples += outer @ np.exp(1j * np.outer(omega, inner_m))
    return SignalEnsemble(samples=samples.reshape(-1)[:n])
