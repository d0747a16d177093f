import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla

import roast.prolate
from roast import (
    build_band_split,
    build_dpss,
    build_prolate,
    dft_columns,
    log_width_constant,
    prolate_apply,
    prolate_dense,
    random_bandlimited,
    sampled_sinusoid,
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
        # near-degenerate eigenvalues at the 0/1 clusters make top-k
        # membership tie-dependent, but each computed vector must be one of
        # the full family's columns
        full = caches.dpss(256, 0.25)
        part = build_dpss(256, 0.25, 16)
        overlap = np.abs(part.vectors.T @ full.vectors)
        assert np.all(overlap.max(axis=1) >= 1 - 1e-8)

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
        assert np.all(np.diff(split.signed_frequencies(split.low_indices)) > 0)
        assert np.all(np.diff(split.signed_frequencies(split.high_indices)) > 0)

    def test_implied_columns_unitary(self):
        split = build_band_split(64, 0.25)
        cols = dft_columns(64, np.concatenate([split.low_indices,
                                               split.high_indices]))
        gram = cols.conj().T @ cols
        assert np.max(np.abs(gram - np.eye(64))) <= 1e-12


class TestSignals:
    def test_dc_is_all_ones(self):
        sig = sampled_sinusoid(16, 0.0)
        np.testing.assert_array_equal(sig.samples, np.ones(16))

    @pytest.mark.parametrize("f", [-0.5, -0.123, 0.0, 0.25, 0.5])
    def test_squared_norm(self, f):
        sig = sampled_sinusoid(64, f)
        assert abs(np.vdot(sig.samples, sig.samples).real - 64.0) <= 1e-10

    def test_eighth_band_entries(self):
        sig = sampled_sinusoid(8, 1.0 / 8.0)
        expected = np.exp(1j * np.pi * np.arange(8) / 4.0)
        np.testing.assert_allclose(sig.samples, expected, atol=1e-15)

    def test_frequency_out_of_range(self):
        with pytest.raises(ValueError):
            sampled_sinusoid(8, 0.51)

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
