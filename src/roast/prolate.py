"""Prolate (sinc-kernel) operator, DPSS basis, DFT band split, and test signals.

Everything downstream builds on the objects here: the implicit symmetric
Toeplitz operator with an FFT-fast matvec, the leading Slepian vectors
obtained from the commuting tridiagonal eigenproblem, the split of the DFT
into in-band and out-of-band columns, and deterministic signal generators.
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
    "SignalEnsemble",
    "build_prolate",
    "prolate_apply",
    "prolate_dense",
    "build_dpss",
    "build_band_split",
    "sampled_sinusoid",
    "random_bandlimited",
    "log_width_constant",
]

# Eigenvalues of the prolate operator are mathematically in (0, 1); computed
# Rayleigh quotients can land epsilon outside and are clamped back in.
_EIG_CLAMP = 2.0 ** -53

# Every dense path (the DPSS solve, the cross operator, dense bases and
# projectors, the FST analog) refuses a call whose estimated bytes exceed this.
_MAX_DENSE_BYTES = 2 ** 31

# Columns per prolate matvec when build_dpss takes its Rayleigh quotients.
_RAYLEIGH_BLOCK = 256

# Complex entries in one tone chunk's phasor tables in random_bandlimited.
_PHASOR_BUDGET = 2 ** 20


def log_width_constant(n: int) -> float:
    """Spectral transition-width constant (4/pi^2) * ln(8N) + 6."""
    return (4.0 / math.pi**2) * math.log(8.0 * n) + 6.0


def _check_dense_bytes(what: str, estimate: int) -> None:
    """Refuse ``what`` when its estimated bytes exceed ``_MAX_DENSE_BYTES``."""
    if estimate > _MAX_DENSE_BYTES:
        raise ValueError(
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
    """Construct the prolate operator for length ``n`` and half-bandwidth ``w``.

    Parameters
    ----------
    n : int
        Signal length, at least 2.
    w : float
        Half-bandwidth, strictly inside (0, 1/2).
    """
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


def prolate_apply(op: ProlateOperator, x: np.ndarray) -> np.ndarray:
    """Compute B @ x via the circulant embedding.

    ``x`` may be a length-N vector or an N x b block of columns; the result
    matches the dense matvec to round-off.  Real input takes the half-length
    real FFT and returns a real result.
    """
    x = np.asarray(x)
    if x.shape[0] != op.n:
        raise ValueError(f"operator size {op.n} does not match input length {x.shape[0]}")
    single = x.ndim == 1
    block = x[:, None] if single else x
    size = op.embed_size
    spec = op.circulant_spectrum[:, None]
    if np.isrealobj(x):
        half = spec[:size // 2 + 1] * np.fft.rfft(block, n=size, axis=0)
        y = np.fft.irfft(half, n=size, axis=0)[:op.n]
    else:
        y = np.fft.ifft(spec * np.fft.fft(block, n=size, axis=0), axis=0)[:op.n]
    return y[:, 0] if single else y


def prolate_dense(op: ProlateOperator) -> np.ndarray:
    """Dense realization, used as the oracle for the fast apply path."""
    return sla.toeplitz(op.first_row)


@dataclass(frozen=True)
class DpssBasis:
    """Leading ``k`` Slepian vectors (columns) with concentration eigenvalues.

    Columns are orthonormal, ordered by eigenvalue descending, and follow the
    sign convention that the first entry of magnitude above 1e-12 is
    positive.  ``vectors`` is Fortran-ordered, so each column is contiguous.
    Inside the clusters whose eigenvalues round to 1 or to 0 the column order
    is deterministic but follows round-off, so it carries no meaning; the
    span at every separated cut does.
    """

    n: int
    w: float
    k: int
    vectors: np.ndarray
    eigenvalues: np.ndarray

    @property
    def dimension(self) -> int:
        return self.k

    def dense_basis(self) -> np.ndarray:
        return self.vectors

    def analyze(self, x: np.ndarray) -> np.ndarray:
        return self.vectors.T @ _leading(x, self.n, "samples")

    def synthesize(self, coeffs: np.ndarray) -> np.ndarray:
        return self.vectors @ _leading(coeffs, self.k, "coefficients")

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

    Each half is solved in full by divide and conquer (LAPACK ``stevd``).
    T is a Jacobi matrix, so in descending order the j-th eigenvector has
    parity (-1)^j: the columns interleave the top ceil(k/2) even and
    floor(k/2) odd vectors.  The cost is O(N^2) time and memory whatever k
    is, so a small k pays for both full halves: on a 2-core Xeon with one
    BLAS thread, (2048, 0.25, 16) takes 140 ms against 29 ms for an MRRR
    solve of the selected 16 pairs.  At the k >= 2 floor(NW) + 1 that
    every caller in the package asks for it is the faster of the two:
    (2048, 0.05, 227) 175 against 228 ms, (2048, 0.25, 1024) 273 against
    1018 ms.  A call whose estimate 8 (N k + 2 ceil(N/2)^2) bytes exceeds
    ``_MAX_DENSE_BYTES`` is refused before anything is allocated.

    Concentration eigenvalues are Rayleigh quotients through the fast
    prolate matvec, taken in blocks of ``_RAYLEIGH_BLOCK`` columns to bound
    the FFT temporaries, then clamped into (0, 1) and stably sorted.
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
    if n % 2 == 0:
        for sign, cols, count in ((1.0, even, k_even), (-1.0, odd, k_odd)):
            d = diag[:h].copy()
            d[-1] += sign * off[h - 1]
            u = _half_eigenvectors(d, off[:h - 1], count) / root2
            cols[:h] = u
            cols[h:] = sign * u[::-1]
    else:
        e = off.copy()
        e[-1] *= root2
        u = _half_eigenvectors(diag, e, k_even)
        even[:h] = u[:h] / root2
        even[h] = u[h]
        even[h + 1:] = even[h - 1::-1]
        u = _half_eigenvectors(diag[:h], off[:h - 1], k_odd) / root2
        odd[:h] = u
        odd[h] = 0.0
        odd[h + 1:] = -u[::-1]

    # sign convention: first entry with magnitude above 1e-12 is positive
    significant = np.abs(vecs) > 1e-12
    first = vecs[significant.argmax(axis=0), np.arange(k)]
    vecs *= np.where(first < 0.0, -1.0, 1.0)

    op = build_prolate(n, w)
    lam = np.empty(k)
    for j0 in range(0, k, _RAYLEIGH_BLOCK):
        block = vecs[:, j0:j0 + _RAYLEIGH_BLOCK]
        lam[j0:j0 + _RAYLEIGH_BLOCK] = np.einsum("ij,ij->j", block,
                                                 prolate_apply(op, block))
    lam = np.clip(lam, _EIG_CLAMP, 1.0 - _EIG_CLAMP)
    order = np.argsort(-lam, kind="stable")
    # permuting the rows of the C-ordered transpose keeps columns contiguous
    return DpssBasis(n=int(n), w=float(w), k=int(k),
                     vectors=vecs.T[order].T, eigenvalues=lam[order])


@dataclass(frozen=True)
class DftBandSplit:
    """Partition of the N DFT columns into the 2*floor(NW)+1 lowest
    frequencies and their complement.

    ``low_indices`` holds the wrapped indices of frequencies -floor(NW)/N ..
    +floor(NW)/N in ascending signed order; ``high_indices`` holds the rest,
    also ascending by signed frequency (index k maps to k/N for k <= N/2 and
    (k-N)/N otherwise).
    """

    n: int
    w: float
    low_indices: np.ndarray
    high_indices: np.ndarray

    @property
    def n_low(self) -> int:
        return len(self.low_indices)

    @property
    def n_high(self) -> int:
        return len(self.high_indices)

    def signed_frequencies(self, indices: np.ndarray) -> np.ndarray:
        """Signed integer frequencies for wrapped DFT indices."""
        idx = np.asarray(indices)
        return np.where(idx <= self.n // 2, idx, idx - self.n)


def build_band_split(n: int, w: float) -> DftBandSplit:
    """Split the normalized DFT into in-band and out-of-band column sets."""
    _validate_nw(n, w)
    half = int(np.floor(n * w))
    if 2 * half + 1 > n:
        raise ValueError(
            f"band too wide: 2*floor(n*w)+1 = {2 * half + 1} exceeds n = {n}")
    idx = np.arange(n)
    signed = np.where(idx <= n // 2, idx, idx - n)
    order = np.argsort(signed, kind="stable")
    in_band = np.abs(signed[order]) <= half
    return DftBandSplit(n=int(n), w=float(w),
                        low_indices=order[in_band],
                        high_indices=order[~in_band])


@dataclass(frozen=True)
class SignalEnsemble:
    """A length-N test signal plus the recipe that produced it."""

    n: int
    kind: str
    samples: np.ndarray
    params: dict


def sampled_sinusoid(n: int, f: float) -> SignalEnsemble:
    """Complex exponential exp(j*2*pi*f*m), m = 0..N-1, squared norm N."""
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"signal length must be a positive integer, got {n!r}")
    if not -0.5 <= f <= 0.5:
        raise ValueError(f"frequency must lie in [-1/2, 1/2], got {f!r}")
    samples = np.exp(2j * np.pi * f * np.arange(n))
    return SignalEnsemble(n=int(n), kind="pure_sinusoid", samples=samples,
                          params={"f": float(f)})


def random_bandlimited(n: int, w: float, num_tones: int, seed: int) -> SignalEnsemble:
    """Superpose ``num_tones`` unit-amplitude random-phase sinusoids with
    frequencies drawn uniformly from [-w, w].  Fully reproducible from seed.

    x[m] = sum_j c_j exp(2 pi i f_j m) is evaluated through the two-level
    factorization exp(2 pi i f (qB + r)) = exp(2 pi i f qB) exp(2 pi i f r),
    with B the power of two nearest sqrt(N), r < B and q < ceil(N/B).  Each
    tone then costs ceil(N/B) + B exponentials instead of N, and the weighted
    sum over tones is one complex GEMM, (outer * c) @ inner^T, whose
    ceil(N/B) x B result read row by row holds the N samples.  Tones go in
    chunks of max(1, ``_PHASOR_BUDGET`` // (ceil(N/B) + B)), so one chunk's
    two phasor tables hold at most 2**20 complex entries (16 MiB) whatever
    the tone count.  The samples differ from the direct sum at round-off:
    the largest error against an extended-precision reference stays within
    4 sqrt(T) (2 pi W N + 8) eps for T tones, the direct formula's own phase
    error being 2 pi W N eps per tone.
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
    return SignalEnsemble(n=int(n), kind="random_bandlimited",
                          samples=samples.reshape(-1)[:n],
                          params={"w": float(w), "num_tones": int(num_tones),
                                  "seed": int(seed)})
