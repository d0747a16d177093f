import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

import roast.prolate
from dense_oracles import prolate_dense
from roast import (
    build_band_split,
    build_dpss,
    build_prolate,
    dft_columns,
    log_width_constant,
    prolate_apply,
    random_bandlimited,
)

INV_PI = 0.3183098861837907  # 1/pi


class TestProlateOperator:
    def test_two_by_two_dense(self):
        op = build_prolate(2, 0.25)
        dense = prolate_dense(op)
        np.testing.assert_allclose(dense, [[0.5, INV_PI], [INV_PI, 0.5]],
                                   rtol=0, atol=1e-15)

    @pytest.mark.parametrize("n,w", [(8, 0.1), (64, 0.25), (129, 0.4)])
    def test_diagonal_and_symmetry(self, n, w):
        dense = prolate_dense(build_prolate(n, w))
        np.testing.assert_allclose(np.diag(dense), 2 * w, atol=1e-15)
        np.testing.assert_allclose(dense, dense.T, atol=0)

    def test_trace(self):
        op = build_prolate(256, 0.25)
        assert op.trace() == 128.0
        assert abs(np.trace(prolate_dense(op)) - 128.0) < 1e-10

    @pytest.mark.parametrize("bad", [(1, 0.25), (64, 0.0), (64, 0.5), (64, -0.1)])
    def test_rejects_bad_parameters(self, bad):
        with pytest.raises(ValueError):
            build_prolate(*bad)

    def test_apply_matches_dense(self, rng):
        op = build_prolate(512, 0.25)
        dense = prolate_dense(op)
        x = rng.standard_normal(512) + 1j * rng.standard_normal(512)
        assert np.max(np.abs(prolate_apply(op, x) - dense @ x)) <= 1e-10

    @pytest.mark.parametrize("n,w", [(64, 0.1), (256, 0.25), (1024, 0.4)])
    def test_apply_matches_dense_grid(self, n, w, rng):
        op = build_prolate(n, w)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        assert np.max(np.abs(prolate_apply(op, x) - prolate_dense(op) @ x)) <= 1e-10

    def test_apply_zero(self):
        op = build_prolate(64, 0.25)
        np.testing.assert_array_equal(prolate_apply(op, np.zeros(64)), np.zeros(64))

    def test_apply_length_mismatch(self):
        op = build_prolate(64, 0.25)
        with pytest.raises(ValueError):
            prolate_apply(op, np.zeros(65))

    def test_apply_block_columns(self, rng):
        op = build_prolate(128, 0.2)
        block = rng.standard_normal((128, 5))
        expected = prolate_dense(op) @ block
        assert np.max(np.abs(prolate_apply(op, block) - expected)) <= 1e-10

    @pytest.mark.parametrize("real", [True, False])
    def test_every_layout_matches_column_calls_bit_for_bit(self, real, rng,
                                                           monkeypatch):
        # a budget of three real or one complex column per group sends the
        # C-ordered and sliced blocks through several column groups
        op = build_prolate(300, 0.25)
        monkeypatch.setattr(roast.prolate, "_GROUP_BYTES", 24 * op.embed_size)
        block = rng.standard_normal((300, 7))
        if not real:
            block = block + 1j * rng.standard_normal(block.shape)
        wide = np.zeros((300, 14), dtype=block.dtype)
        wide[:, ::2] = block
        for x in (block, np.asfortranarray(block), wide[:, ::2]):
            got = prolate_apply(op, x)
            want = np.column_stack([prolate_apply(op, x[:, j]) for j in range(7)])
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)

    def test_regrouped_block_holds_one_group(self):
        # a C-ordered real block at N=65536 takes four columns per group:
        # the result plus one group's copy and spectra, not the whole
        # block's two 16-column spectra
        op = build_prolate(65536, 0.25)
        x = np.random.default_rng(0).standard_normal((65536, 16))
        tracemalloc.start()
        try:
            y = prolate_apply(op, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert y.flags.f_contiguous
        assert peak <= y.nbytes + 3 * roast.prolate._GROUP_BYTES

    @pytest.mark.parametrize("n", [300, 301])
    @pytest.mark.parametrize("shape", [(), (4,)])
    def test_real_input_takes_the_real_fft(self, n, shape, rng):
        op = build_prolate(n, 0.25)
        x = rng.standard_normal((n,) + shape)
        y = prolate_apply(op, x)
        assert y.dtype == np.float64 and y.shape == x.shape
        np.testing.assert_allclose(y, prolate_apply(op, x.astype(complex)).real,
                                   rtol=0, atol=1e-13)
        np.testing.assert_allclose(y, prolate_dense(op) @ x, rtol=0, atol=1e-13)


class TestDpss:
    @pytest.mark.parametrize("n, w, k", [(512, 0.25, 512), (2048, 0.25, 1024),
                                         (1025, 0.25, 700), (333, 0.05, 333)])
    def test_column_j_has_parity_minus_one_to_the_j(self, n, w, k):
        # the columns keep the commuting tridiagonal's order, in which the
        # j-th eigenvector is even or odd under time reversal as j is, bit
        # for bit, also inside the clusters at 0 and 1
        v = build_dpss(n, w, k).vectors
        assert np.array_equal(v[::-1], v * (-1.0) ** np.arange(k))

    def test_complex_input_forms_no_complex_copy(self, rng):
        # analysis and synthesis take a complex vector or block by its real
        # and imaginary parts: the complex cast of the 2048 x 1024 vectors
        # alone would be 32 MiB
        dpss = roast.prolate.build_dpss(2048, 0.25, 1024)
        s = dpss.vectors
        for cols in [(), (3,)]:
            x, c = (rng.standard_normal((rows, *cols))
                    + 1j * rng.standard_normal((rows, *cols)) for rows in (2048, 1024))
            tracemalloc.start()
            try:
                got_a, got_s = dpss.analyze(x), dpss.synthesize(c)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2**20
            np.testing.assert_allclose(got_a, s.T.astype(complex) @ x,
                                       rtol=0, atol=1e-12)
            np.testing.assert_allclose(got_s, s.astype(complex) @ c,
                                       rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n, k", [(1024, 1024), (2048, 1024), (4096, 64),
                                      (1025, 700), (333, 333), (65, 65),
                                      (64, 64), (256, 256)])
    def test_peak_within_the_dense_byte_estimate(self, n, k):
        # the guard charges 8 (N k + 2 ceil(N/2)^2) bytes: the vectors, one
        # half-size eigenvector matrix and its LAPACK workspace.  The slack
        # of 128 N bytes covers the length-N diagonals, their copies and
        # the integer workspace; no N x k temporary may come on top.  At
        # small N, and at odd N where the circulant embedding is near 4N
        # long, the Rayleigh blocks must narrow to stay within the estimate.
        # A first call fills scipy's and numpy's caches, whose bytes are not
        # the solve's
        estimate = 8 * (n * k + 2 * ((n + 1) // 2) ** 2)
        build_dpss(n, 0.25, k)
        tracemalloc.start()
        try:
            build_dpss(n, 0.25, k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= estimate + 128 * n

    def test_signs_found_past_the_first_row_block(self, rng):
        # columns whose first entry above 1e-12 lies in a later block of
        # rows, and one with none, which its first entry signs
        rows = 3 * roast.prolate._SIGN_ROWS + 5
        a = rng.standard_normal((rows, 6)) * 1e-13
        for j, i in enumerate([0, 70, 150, rows - 1, 64]):
            a[i, j] = (-1.0) ** j
        a[0, 5] = -1e-13
        want = a * np.where(a[(np.abs(a) > 1e-12).argmax(axis=0), range(6)] < 0.0,
                            -1.0, 1.0)
        roast.prolate._fix_signs(a)
        np.testing.assert_array_equal(a, want)

    def test_eigen_relation(self, caches):
        op = caches.op(256, 0.25)
        basis = caches.dpss(256, 0.25)
        for ell in (0, 64, 127, 200, 255):
            s = basis.vectors[:, ell]
            resid = np.linalg.norm(prolate_apply(op, s) - basis.eigenvalues[ell] * s)
            assert resid <= 1e-8

    def test_trace_identity(self, caches):
        lam = caches.dpss(256, 0.25).eigenvalues
        assert abs(lam.sum() - 128.0) <= 1e-8

    @pytest.mark.parametrize("n, w", [(256, 0.25), (301, 0.1), (1024, 0.4)])
    def test_eigenvalues_match_the_dense_spectrum(self, n, w):
        # the one-FFT Parseval quotients against eigvalsh of the dense
        # Toeplitz matrix, clamped into (0, 1) as build_dpss clamps
        lam = build_dpss(n, w, n).eigenvalues
        dense = np.linalg.eigvalsh(prolate_dense(build_prolate(n, w)))[::-1]
        want = np.clip(dense, 2.0 ** -53, 1.0 - 2.0 ** -53)
        np.testing.assert_allclose(lam, want, rtol=0, atol=1e-13)

    def test_orthonormal_columns(self, caches):
        vec = caches.dpss(256, 0.25).vectors
        gram = vec.T @ vec
        assert np.max(np.abs(gram - np.eye(256))) <= 1e-10

    def test_eigenvalue_range_and_order(self, caches):
        lam = caches.dpss(256, 0.25).eigenvalues
        assert lam[0] < 1.0 and lam[-1] > 0.0
        assert np.all(np.diff(lam) <= 1e-15)

    def test_eigenvalue_bisection(self, caches):
        lam = caches.dpss(256, 0.25).eigenvalues
        assert lam[127] >= 0.5 >= lam[128]

    def test_transition_width(self, caches):
        lam = caches.dpss(256, 0.25).eigenvalues
        for eps in (1e-2, 1e-4):
            count = np.sum((lam >= eps) & (lam <= 1 - eps))
            assert count <= 2 * log_width_constant(256) * np.log(15 / eps)

    def test_sign_convention(self, caches):
        vec = caches.dpss(256, 0.25).vectors
        for j in range(vec.shape[1]):
            first = vec[np.abs(vec[:, j]) > 1e-12, j][0]
            assert first > 0

    def test_partial_vectors_belong_to_full_family(self, caches):
        # the columns keep the solver's order, so a partial solve is the
        # full solve's leading columns bit for bit, even inside the cluster
        # at 1 where the eigenvalues tie to round-off
        full = caches.dpss(256, 0.25)
        part = build_dpss(256, 0.25, 16)
        np.testing.assert_array_equal(part.vectors, full.vectors[:, :16])

    def test_partial_span_matches_at_transition_boundary(self, caches):
        # k chosen inside the transition band, where eigenvalues are well
        # separated and the leading-k span is unambiguous
        full = caches.dpss(256, 0.25)
        part = build_dpss(256, 0.25, 140)
        cosines = np.linalg.svd(part.vectors.T @ full.vectors[:, :140],
                                compute_uv=False)
        assert cosines.min() >= 1 - 1e-10

    @pytest.mark.parametrize("k", [0, 257])
    def test_invalid_k(self, k):
        with pytest.raises(ValueError):
            build_dpss(256, 0.25, k)


class TestBandSplit:
    def test_counts(self):
        split = build_band_split(1024, 0.25)
        assert split.n_low == 513
        assert split.n_high == 511

    def test_degenerate_low(self):
        split = build_band_split(8, 0.1)
        np.testing.assert_array_equal(split.low_indices, [0])
        assert split.n_high == 7

    def test_partition(self):
        split = build_band_split(33, 0.3)
        merged = np.sort(np.concatenate([split.low_indices, split.high_indices]))
        np.testing.assert_array_equal(merged, np.arange(33))

    def test_orderings(self):
        split = build_band_split(16, 0.2)
        for idx in (split.low_indices, split.high_indices):
            assert np.all(np.diff(np.where(idx <= 8, idx, idx - 16)) > 0)

    @pytest.mark.parametrize("parity", [0, 1])
    @settings(max_examples=50, deadline=None, derandomize=True, database=None)
    @given(half_n=st.integers(4, 128), w=st.floats(0.02, 0.45))
    def test_layout_slices_reproduce_the_index_sets(self, parity, half_n, w):
        # (n, w) drawn as in the basis-protocol tests, each parity of N
        n = 2 * half_n + parity
        split = build_band_split(n, w)
        h, n_neg, idx = split.h, split.n_neg, np.arange(n)
        np.testing.assert_array_equal(
            np.concatenate([idx[n - h:], idx[:h + 1]]), split.low_indices)
        np.testing.assert_array_equal(
            np.concatenate([idx[n // 2 + 1:n - h], idx[h + 1:n // 2 + 1]]),
            split.high_indices)
        assert len(idx[n // 2 + 1:n - h]) == n_neg

    @pytest.mark.parametrize("n", [2, 3, 8, 33, 64, 513, 1100])
    @pytest.mark.parametrize("w", [0.01, 0.1, 0.25, 0.3, 0.49])
    def test_index_sets_match_the_signed_frequency_sort(self, n, w):
        # the reference: every bin sorted by signed frequency, then cut at
        # |signed| <= floor(N W)
        idx = np.arange(n)
        signed = np.where(idx <= n // 2, idx, idx - n)
        order = np.argsort(signed, kind="stable")
        in_band = np.abs(signed[order]) <= int(np.floor(n * w))
        split = build_band_split(n, w)
        np.testing.assert_array_equal(split.low_indices, order[in_band])
        np.testing.assert_array_equal(split.high_indices, order[~in_band])
        assert (split.n_low, split.n_high) == (in_band.sum(), (~in_band).sum())

    def test_implied_columns_unitary(self):
        split = build_band_split(64, 0.25)
        cols = dft_columns(64, np.concatenate([split.low_indices,
                                               split.high_indices]))
        gram = cols.conj().T @ cols
        assert np.max(np.abs(gram - np.eye(64))) <= 1e-12


class TestSignals:
    def test_bandlimited_deterministic(self):
        a = random_bandlimited(128, 0.25, 50, seed=42)
        b = random_bandlimited(128, 0.25, 50, seed=42)
        np.testing.assert_array_equal(a.samples, b.samples)
        c = random_bandlimited(128, 0.25, 50, seed=43)
        assert np.any(a.samples != c.samples)

    def test_single_tone_is_scaled_sinusoid(self):
        sig = random_bandlimited(64, 0.25, 1, seed=7)
        # x = c * e_f with |c| = 1 and x[0] = c
        rescaled = sig.samples / sig.samples[0]
        assert abs(abs(sig.samples[0]) - 1.0) <= 1e-12
        np.testing.assert_allclose(np.abs(rescaled), 1.0, atol=1e-12)
        f = np.angle(rescaled[1]) / (2 * np.pi)
        np.testing.assert_allclose(rescaled,
                                   np.exp(2j * np.pi * f * np.arange(64)),
                                   atol=1e-9)

    def test_dpss_captures_bandlimited_energy(self, caches):
        # dense projection oracle: the leading Slepian subspace holds nearly
        # all the energy of an in-band random signal
        sig = random_bandlimited(1024, 0.25, 10000, seed=11)
        k = 2 * 256 + 1 + 27
        s_k = caches.dpss(1024, 0.25).vectors[:, :k]
        captured = np.linalg.norm(s_k.T @ sig.samples) ** 2
        total = np.linalg.norm(sig.samples) ** 2
        assert captured / total >= 0.999

    def test_num_tones_validation(self):
        with pytest.raises(ValueError):
            random_bandlimited(64, 0.25, 0, seed=1)

    @pytest.mark.parametrize("n", [2, 3, 7, 64, 1000, 1024, 1025])
    def test_bandlimited_matches_extended_precision_sum(self, n, monkeypatch):
        # a small phasor budget puts a few dozen tones in a chunk, so tone
        # counts below, at and above one chunk stay cheap to check against
        # the direct sum in extended precision
        budget = 4096
        monkeypatch.setattr(roast.prolate, "_PHASOR_BUDGET", budget)
        inner = 1 << round(math.log2(n) / 2)
        chunk = max(1, budget // (inner + -(-n // inner)))
        w, seed, eps = 0.25, 5, np.finfo(float).eps
        two_pi = 2 * np.arccos(np.longdouble(-1))
        m = np.arange(n, dtype=np.longdouble)[:, None]
        for tones in (chunk - 1, chunk, chunk + 1, 3 * chunk + 2):
            rng = np.random.default_rng(seed)
            freqs = rng.uniform(-w, w, tones).astype(np.longdouble)
            coeffs = np.exp(2j * np.pi * rng.uniform(0.0, 1.0, tones))
            direct = np.exp(1j * two_pi * m * freqs) @ coeffs.astype(np.clongdouble)
            got = random_bandlimited(n, w, tones, seed).samples
            assert got.shape == (n,)
            err = float(np.max(np.abs(got - direct)))
            assert err <= 4 * math.sqrt(tones) * (2 * math.pi * w * n + 8) * eps

    def test_bandlimited_memory_bounded_by_chunk(self):
        # 4096 tones at N = 16384 fill one chunk: two 128 x 4096 tables
        tracemalloc.start()
        try:
            random_bandlimited(16384, 0.25, 4096, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 48 * 2**20


def _commuting_tridiagonal(n, w):
    m = np.arange(n)
    diag = ((n - 1.0 - 2.0 * m) / 2.0) ** 2 * np.cos(2.0 * np.pi * w)
    off = (m[:-1] + 1.0) * (n - m[:-1] - 1.0) / 2.0
    return diag, off


class TestDpssParitySplit:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 9])
    @pytest.mark.parametrize("w", [0.1, 0.25, 0.4])
    def test_every_k_small(self, n, w):
        dense = prolate_dense(build_prolate(n, w))
        for k in range(1, n + 1):
            basis = build_dpss(n, w, k)
            v = basis.vectors
            assert v.shape == (n, k)
            assert np.max(np.abs(v.T @ v - np.eye(k))) <= 1e-12
            quotients = np.einsum("ij,ij->j", v, dense @ v)
            assert np.max(np.abs(basis.eigenvalues - quotients)) <= 1e-14
            for j in range(k):
                flipped = v[::-1, j]
                assert (np.array_equal(flipped, v[:, j])
                        or np.array_equal(flipped, -v[:, j]))

    @pytest.mark.parametrize("n", [64, 65, 256, 257])
    @pytest.mark.parametrize("w", [0.1, 0.25])
    def test_top_k_of_the_full_tridiagonal(self, n, w):
        diag, off = _commuting_tridiagonal(n, w)
        top = sla.eigvalsh_tridiagonal(diag, off)[::-1]
        scale = np.max(np.abs(top))
        for k in (1, n // 3, n // 2 + 1, n):
            v = build_dpss(n, w, k).vectors
            tv = diag[:, None] * v
            tv[1:] += off[:, None] * v[:-1]
            tv[:-1] += off[:, None] * v[1:]
            quotients = np.sort(np.einsum("ij,ij->j", v, tv))[::-1]
            np.testing.assert_allclose(quotients, top[:k], rtol=0,
                                       atol=1e-9 * scale)

    @pytest.mark.parametrize("n", [64, 65, 256, 257])
    def test_span_at_separated_cut_matches_dense(self, n):
        # k = n // 2 + 1 sits in the transition band at W = 1/4, where the
        # concentration eigenvalues are well separated
        k = n // 2 + 1
        _, dense_vecs = np.linalg.eigh(prolate_dense(build_prolate(n, 0.25)))
        cosines = np.linalg.svd(build_dpss(n, 0.25, k).vectors.T
                                @ dense_vecs[:, ::-1][:, :k], compute_uv=False)
        assert cosines.min() >= 1 - 1e-10

    @pytest.mark.parametrize("n", [64, 65, 256, 257])
    def test_two_half_size_solves(self, n, monkeypatch):
        calls = []
        original = sla.eigh_tridiagonal

        def recording(d, e, **kwargs):
            calls.append((len(d), kwargs))
            return original(d, e, **kwargs)

        monkeypatch.setattr(sla, "eigh_tridiagonal", recording)
        for k in (1, n // 3, n):
            calls.clear()
            build_dpss(n, 0.25, k)
            assert sorted(size for size, _ in calls) == [n // 2, (n + 1) // 2]
            assert all("select" not in kwargs for _, kwargs in calls)

    def test_columns_are_contiguous(self, caches):
        assert caches.dpss(256, 0.25).vectors.flags.f_contiguous

    def test_oversized_solve_is_refused(self):
        with pytest.raises(ValueError, match="MiB"):
            build_dpss(2 ** 17, 0.25, 2 ** 16)
