"""Dense oracles that only the tests call.

``prolate_dense`` is the explicit prolate matrix the fast apply paths are
checked against, and ``build_fst_analog`` the non-orthogonal fast
factorization that acceptance criterion 11 compares CG conditioning
against.  Each refuses, through the package's one dense-byte limit, a size
it cannot hold, before allocating.
"""

import numpy as np
import scipy.linalg as sla

from roast.basis import _write_dft
from roast.prolate import (ProlateOperator, _check_dense_bytes,
                           build_band_split, build_prolate)


def prolate_dense(op: ProlateOperator) -> np.ndarray:
    """Dense realization, used as the oracle for the fast apply path; a call
    whose 8 N^2 bytes exceed the dense-byte limit is refused first."""
    _check_dense_bytes(f"prolate_dense(n={op.n})", 8 * op.n * op.n)
    return sla.toeplitz(op.first_row)


def build_fst_analog(n: int, w: float,
                     rank_r: int) -> tuple[np.ndarray, np.ndarray]:
    """Non-orthogonal factors (T1, T2) of F F^* + L_r, the best Hermitian
    rank-r correction of the band projector toward B: the fast-factorization
    baseline, applied as T1 @ (T2^* x).

    L_r comes from a dense eigendecomposition of B - F F^* with the r
    largest-magnitude eigenpairs (signed values, so the operator stays
    Hermitian) retained, so the spectral error is exactly the (r+1)-th
    magnitude.  T1 = [F, U diag(values)] and T2 = [F, U].

    F is written into T2's leading columns, and B - F F^* is formed in
    place in real arithmetic: Re(F F^*) = X X^T for the real view X = [Re
    f_0, Im f_0, ...] of F, a product numpy takes by ``syrk`` and mirrors,
    so the difference is symmetric bit for bit, as B is.  The peak, T2
    beside B and one more real N x N array (X X^T, then U), or T1 beside
    T2, is at most 32 N max(N, d) bytes for d = n_low + r columns; above
    the dense-byte limit the call is refused before any of them is formed.
    """
    if rank_r < 0:
        raise ValueError(f"rank must be nonnegative, got {rank_r}")
    split = build_band_split(n, w)
    if rank_r > n:
        raise ValueError(f"rank {rank_r} exceeds n={n}")
    n_low = split.n_low
    _check_dense_bytes(f"build_fst_analog(n={n})",
                       32 * n * max(n, n_low + rank_r))
    t2 = np.empty((n, n_low + rank_r), dtype=complex)
    _write_dft(n, split.low_indices, t2[:, :n_low], None)
    re_im = t2[:, :n_low].view(float)
    diff = prolate_dense(build_prolate(n, w))
    diff -= re_im @ re_im.T
    vals, vecs = np.linalg.eigh(diff)
    del diff
    order = np.argsort(-np.abs(vals))[:rank_r]
    t2[:, n_low:] = vecs[:, order]
    del vecs
    t1 = t2.copy()
    t1[:, n_low:] *= vals[order]
    return t1, t2
