import dataclasses
import json
import math

import numpy as np
import pytest

import roast
from roast import (
    BoundLedger,
    build_prolate,
    build_roast,
    build_subdft,
    dpss_capture_report,
    integrated_residual,
    integrated_residual_quadrature,
    log_width_constant,
    rank_for_capture,
    residual_snr,
    singular_decay_report,
    sinusoid_derivative_check,
    subspace_angle,
)
from roast.diagnostics import largest_angle_cos_direct, sinusoid_residual_sq
from roast.verify import (capture_suite, core_grid_checks, pointwise_suite,
                          residual_path_bound, small_instance_checks)


def entries_of(ledger, check_id):
    return [e for e in ledger.entries if e.check_id == check_id]


def pointwise_bound(integral, n, w):
    """The bound on max r / N that the integral of r implies, as the
    pointwise suite states it."""
    return max(2.0 * math.sqrt(np.pi) * math.sqrt(integral), integral / (n * w))


class TestResidualSnr:
    def test_signal_in_range_is_infinite(self):
        sub = build_subdft(64, 0.25, 0)
        x = np.ones(64, dtype=complex)  # the DC column, held exactly
        assert residual_snr(sub, x) == math.inf

    def test_orthogonal_signal_is_zero_db(self):
        sub = build_subdft(8, 0.05, 0)  # retains only the DC column
        x = (-1.0) ** np.arange(8)  # alternating +-1, sums to zero
        assert abs(residual_snr(sub, x)) <= 1e-12

    def test_zero_signal_rejected(self):
        sub = build_subdft(64, 0.25, 0)
        with pytest.raises(ValueError):
            residual_snr(sub, np.zeros(64))

    def test_matches_dense_oracle(self):
        sub = build_subdft(1024, 0.25, 27)
        x = np.exp(2j * np.pi * 0.1 * np.arange(1024))
        q = sub.dense_basis()
        resid = np.linalg.norm(x - q @ (q.conj().T @ x))
        expected = 20 * np.log10(np.linalg.norm(x) / resid)
        assert abs(residual_snr(sub, x) - expected) <= 1e-9

    def test_accepts_plain_matrix_refuses_callable(self, rng):
        q = np.linalg.qr(rng.standard_normal((32, 5)))[0]
        x = rng.standard_normal(32)
        want = 20.0 * np.log10(np.linalg.norm(x)
                               / np.linalg.norm(x - q @ (q.T @ x)))
        assert abs(residual_snr(q, x) - want) <= 1e-12
        with pytest.raises(TypeError):
            residual_snr(lambda v: q @ (q.T @ v), x)


class TestIntegratedResidual:
    def test_dpss_matches_eigenvalue_tail(self, caches):
        op = caches.op(256, 0.25)
        dpss = caches.dpss(256, 0.25)
        k = 128
        value = integrated_residual(op, dpss.vectors[:, :k].astype(complex))
        assert abs(value - dpss.eigenvalues[k:].sum()) <= 1e-8

    def test_complete_basis_gives_zero(self, caches):
        op = caches.op(256, 0.25)
        full_dft = roast.dft_columns(256, np.arange(256))
        assert integrated_residual(op, full_dft) <= 1e-8

    def test_rejects_non_orthonormal(self, caches, rng):
        op = caches.op(256, 0.25)
        with pytest.raises(ValueError, match="orthonormal"):
            integrated_residual(op, rng.standard_normal((256, 8)))

    def test_quadrature_agrees_at_representable_residuals(self, caches):
        op = caches.op(512, 0.25)
        for q_like in (caches.roast(512, 0.25, 0), caches.roast(512, 0.25, 5),
                       build_subdft(512, 0.25, 27)):
            tr = integrated_residual(op, q_like)
            qd = integrated_residual_quadrature(op, q_like)
            assert abs(tr - qd) <= 1e-4 * max(tr, qd)
            assert abs(tr - qd) <= residual_path_bound(tr, qd, 1e-9)

    def test_agreement_floor_covers_noise_level_residuals(self, caches):
        # past R ~ 50 the true residual is far below float64 resolution;
        # both paths then return round-off and only the floor comparison
        # is meaningful
        op = caches.op(512, 0.25)
        basis = caches.roast(512, 0.25, 54)
        tr = integrated_residual(op, basis)
        qd = integrated_residual_quadrature(op, basis)
        assert tr <= 1e-9 and qd <= 1e-9
        assert abs(tr - qd) <= residual_path_bound(tr, qd, 1e-9)

    def test_deflated_tail_dominates_trace(self, caches):
        # nuclear-norm chain: the integrated residual never exceeds the sum
        # of the deflated cross-operator singular values
        op = caches.op(256, 0.25)
        basis = caches.roast(256, 0.25, 5)
        cross, v = caches.cross(256, 0.25), basis.v
        pi = np.linalg.svd(cross - v @ (v.conj().T @ cross), compute_uv=False)
        tr = integrated_residual(op, basis)
        assert tr <= pi.sum() + 1e-10

    def test_dpss_optimality_at_equal_dimension(self, caches):
        op = caches.op(256, 0.25)
        basis = caches.roast(256, 0.25, 10)
        k = basis.dimension
        s_k = caches.dpss(256, 0.25).vectors[:, :k].astype(complex)
        assert integrated_residual(op, s_k) <= integrated_residual(op, basis) + 1e-10


class TestSinusoidResidualKernel:
    @pytest.mark.parametrize("dense", [True, False])
    def test_matches_per_frequency_across_block_boundary(self, dense):
        # n=1100 gives dense blocks of 2**21 // 1100 = 1906 sinusoids, so
        # 2000 frequencies span two blocks, and Dirichlet blocks of
        # 2**16 // 549 = 119 frequencies
        n = 1100
        basis = roast.build_roast_randomized(n, 0.25, 12, seed=0)
        q = basis.dense_basis()
        freqs = np.linspace(-0.5, 0.5, 2000)
        got = sinusoid_residual_sq(q if dense else basis, n, freqs)
        assert got.shape == (2000,)
        for i in (0, 1, 1000, *range(1900, 1912), 1998, 1999):
            e = np.exp(2j * np.pi * freqs[i] * np.arange(n))
            resid = e - q @ (q.conj().T @ e)
            assert abs(got[i] - np.vdot(resid, resid).real) <= 1e-8

    @pytest.mark.parametrize("n", [512, 513])
    @pytest.mark.parametrize("kind", ["svd_fb", "randomized"])
    def test_exact_bins_and_band_edges_match_dense(self, n, kind, rng):
        # every f = k/n, where the Dirichlet ratio is 0/0 on one row, and
        # f = +-1/2, which for even n sits on the Nyquist bin from both sides.
        # At a bin d_f has one nonzero entry, so its phase cannot matter;
        # off-bin frequencies check the phase.
        if kind == "svd_fb":
            basis = build_roast(n, 0.25, 20)
        else:
            basis = roast.build_roast_randomized(n, 0.25, 40, seed=1)
        freqs = np.concatenate([np.arange(-(n // 2), n // 2 + 1) / n, [-0.5, 0.5],
                                rng.uniform(-0.5, 0.5, 64)])
        got = sinusoid_residual_sq(basis, n, freqs)
        want = sinusoid_residual_sq(basis.dense_basis(), n, freqs)
        assert np.max(np.abs(got - want)) <= 1e-9
        assert np.max(want) > 100.0  # out-of-band bins are in the comparison

    @pytest.mark.parametrize("n", [128, 129])
    def test_subdft_matches_dense_off_the_bins(self, n, rng):
        basis = build_subdft(n, 0.25, 5)
        freqs = rng.uniform(-0.5, 0.5, 200)
        got = sinusoid_residual_sq(basis, n, freqs)
        want = sinusoid_residual_sq(basis.dense_basis(), n, freqs)
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=0)

    def test_held_bins_leave_exact_zero(self):
        # n a power of two: every f = k/n is exact, so n x is an integer and
        # the Dirichlet ratio vanishes off the sinusoid's own bin
        n = 1024
        freqs = np.arange(-(n // 2), n // 2) / n
        subdft = build_subdft(n, 0.25, 27)
        held = np.isin(np.mod(np.arange(-(n // 2), n // 2), n), subdft.indices)
        assert np.all(sinusoid_residual_sq(subdft, n, freqs)[held] == 0.0)
        basis = build_roast(n, 0.25, 20)
        in_band = np.abs(np.arange(-(n // 2), n // 2)) <= n // 4
        assert np.all(sinusoid_residual_sq(basis, n, freqs)[in_band] == 0.0)

    def test_roast_basis_needs_no_dense_columns(self, caches,
                                                forbid_dense_columns):
        basis = caches.roast(64, 0.25, 5)
        op = caches.op(64, 0.25)
        assert integrated_residual_quadrature(op, basis) >= 0.0
        assert integrated_residual(op, basis) >= 0.0
        deriv, pointwise, integral = sinusoid_derivative_check(op, basis)
        assert deriv <= 2 * np.pi * 64**2
        assert 0.0 < pointwise <= pointwise_bound(integral, 64, 0.25)

    @pytest.mark.parametrize("n", [128, 129])
    def test_subdft_basis_needs_no_dense_columns(self, caches, n,
                                                 forbid_dense_columns):
        basis = build_subdft(n, 0.25, 4)
        op = caches.op(n, 0.25)
        # the same columns, formed here rather than through dft_columns
        dense = np.exp(2j * np.pi * np.outer(np.arange(n), basis.indices) / n)
        dense /= np.sqrt(n)
        for path in (integrated_residual_quadrature, integrated_residual):
            got, want = path(op, basis), path(op, dense)
            assert want > 0.0
            assert abs(got - want) <= 1e-12 * want
        # (max |r'|, max r / N, integral of r): the difference quotient
        # scales the residuals' round-off by 1 / (2 _FD_STEP) = 5e4, so its
        # gap reads 5.6e-12 at N=128
        got, want = (sinusoid_derivative_check(op, q) for q in (basis, dense))
        for a, b, rel in zip(got, want, (1e-10, 1e-12, 1e-12)):
            assert abs(a - b) <= rel * b

    @pytest.mark.parametrize("last", [0, 64])  # a repeated bin, a bin past N-1
    def test_subdft_basis_with_bad_indices_refused(self, last):
        basis = build_subdft(64, 0.25, 4)
        bad = roast.basis.SubDftBasis(n=64,
                                      indices=np.r_[basis.indices[:-1], last])
        with pytest.raises(ValueError, match="not orthonormal"):
            integrated_residual_quadrature(build_prolate(64, 0.25), bad)

    def test_roast_basis_with_a_nan_refused(self, caches):
        # NaN fails every comparison, so the guard must not read "err > tol"
        basis = caches.roast(64, 0.25, 5)
        q = basis.q.copy()
        q[0, 0] = np.nan
        with pytest.raises(ValueError, match="not orthonormal"):
            integrated_residual(caches.op(64, 0.25), dataclasses.replace(basis, q=q))

    def test_rejects_length_mismatch(self, caches):
        with pytest.raises(ValueError, match="does not match"):
            sinusoid_residual_sq(caches.roast(64, 0.25, 5), 65, np.zeros(3))
        with pytest.raises(ValueError, match="does not match"):
            sinusoid_residual_sq([caches.roast(64, 0.25, 5)], 65, np.zeros(3))

    @pytest.mark.parametrize("n", [512, 513])
    def test_sequence_equals_per_basis_calls(self, n):
        # 255 or 256 out-of-band rows give blocks of 257 or 256 frequencies,
        # so 9000 frequencies span 36 blocks
        bases = [roast.build_roast_randomized(n, 0.25, 40, seed) for seed in (0, 1)]
        bases += [build_roast(n, 0.25, 20), bases[0], build_roast(n, 0.25, 0)]
        freqs = np.linspace(-0.5, 0.5, 9000)
        got = sinusoid_residual_sq(bases, n, freqs)
        assert got.shape == (len(bases), len(freqs))
        for row, basis in zip(got, bases):
            assert np.array_equal(row, sinusoid_residual_sq(basis, n, freqs))
        assert np.array_equal(sinusoid_residual_sq(tuple(bases), n, freqs), got)

    def test_blocks_of_64_where_the_floor_sets_them(self, monkeypatch):
        # N=4096 has 2047 out-of-band rows: blocks of max(64, 2**16 // 2047)
        # = 64 frequencies, so 200 distinct |f| span four blocks.  The
        # per-frequency residual comes from the FFT projection, not a dense Q.
        n = 4096
        bases = [roast.build_roast_randomized(n, 0.25, p, seed=p) for p in (30, 20)]
        freqs = np.linspace(0.0, 0.5, 200)
        widths = []
        ratio = roast.diagnostics._dirichlet_ratio

        def counted(n, rows, f):
            widths.append(len(f))
            return ratio(n, rows, f)

        monkeypatch.setattr(roast.diagnostics, "_dirichlet_ratio", counted)
        got = sinusoid_residual_sq(bases, n, freqs)
        assert widths == [64, 64, 64, 8]
        for row, basis in zip(got, bases):
            assert np.array_equal(row, sinusoid_residual_sq(basis, n, freqs))
        for i in (0, 63, 64, 127, 128, 191, 192, 199):
            e = np.exp(2j * np.pi * freqs[i] * np.arange(n))
            resid = e - bases[0].project(e)
            assert abs(got[0, i] - np.vdot(resid, resid).real) <= 1e-8

    @pytest.mark.parametrize("bases", [
        [],
        [build_roast(64, 0.25, 5), build_roast(128, 0.25, 5)],
        [build_roast(64, 0.25, 5), build_roast(64, 0.2, 5)],
        [build_roast(64, 0.25, 5), build_subdft(64, 0.25, 5)],
        [np.eye(64)[:, :40]],
    ])
    def test_other_sequences_refused(self, bases):
        with pytest.raises(ValueError, match="share one"):
            sinusoid_residual_sq(bases, 64, np.zeros(3))


class TestMirroredResidual:
    """``sinusoid_residual_sq`` forms each +-f pair of a real projector once."""

    @pytest.mark.parametrize("w", [0.25, 0.1, 0.4, 0.01, 1 / 3])
    def test_band_grid_is_mirrored_linspace(self, w):
        # linspace's own nodes carry the step's rounding times the node
        # index, up to an ulp of the span 2w; the odd part stays within it
        grid = roast.diagnostics._band_grid(w, roast.diagnostics._BAND_NODES)
        assert np.array_equal(grid, -grid[::-1])
        nodes = np.linspace(-w, w, roast.diagnostics._BAND_NODES)
        assert np.max(np.abs(grid - nodes)) <= np.spacing(2 * w)
        assert grid[0] == -w and grid[-1] == w

    @staticmethod
    def _derivative_grid(w):
        grid = roast.diagnostics._band_grid(w, roast.diagnostics._BAND_NODES)
        return np.concatenate([grid, grid + 1e-5, grid - 1e-5])

    @staticmethod
    def _unfolded(n, q, freqs):
        """The Dirichlet kernel at every f as given: a row for a basis, a
        row per basis for a list."""
        bases = q if isinstance(q, list) else [q]
        out = roast.diagnostics._dirichlet_residual_sq(
            bases[0].split, [b.q for b in bases], freqs)
        return out if isinstance(q, list) else out[0]

    @pytest.mark.parametrize("n", [512, 513])
    def test_matches_the_unfolded_kernel(self, n):
        # f and -f take different Dirichlet ratios: the two rows agree to
        # the kernel's round-off, about eps n on the residual's norm
        bases = [build_roast(n, 0.25, 20), build_roast(n, 0.25, 54),
                 roast.build_roast_randomized(n, 0.25, 40, 0),
                 roast.build_roast_randomized(n, 0.25, 40, 1)]
        freqs = self._derivative_grid(0.25)
        delta = 32 * np.finfo(float).eps * n
        for q in [*bases, bases]:
            got = sinusoid_residual_sq(q, n, freqs)
            want = self._unfolded(n, q, freqs)
            assert got.shape == want.shape
            bound = 2 * delta * np.sqrt(np.maximum(got, want)) + delta ** 2
            assert np.all(np.abs(got - want) <= bound)
        assert np.max(want) > 1e-12  # R=20 leaves residuals far above round-off

    def test_closed_bases_form_each_magnitude_once(self, monkeypatch):
        n, w = 128, 0.25
        freqs = self._derivative_grid(w)
        bases = [build_roast(n, w, 6), roast.build_roast_randomized(n, w, 8, 0)]
        formed = []
        ratio = roast.diagnostics._dirichlet_ratio

        def recorded(n, rows, f):
            formed.append(f)
            return ratio(n, rows, f)

        monkeypatch.setattr(roast.diagnostics, "_dirichlet_ratio", recorded)
        for q in (bases[0], bases):
            formed.clear()
            sinusoid_residual_sq(q, n, freqs)
            assert np.array_equal(np.concatenate(formed),
                                  np.unique(np.abs(freqs)))

    def test_other_projectors_take_the_unfolded_kernel(self):
        n, w = 128, 0.25
        split = roast.build_band_split(n, w)
        freqs = self._derivative_grid(w)
        subdft = build_subdft(n, w, 5)
        # the sum of the Dirichlet ratio's squares over the bins it leaves out
        rows = np.setdiff1d(np.arange(n), subdft.indices)
        ratio = roast.diagnostics._dirichlet_ratio(n, rows, freqs)
        np.testing.assert_array_equal(sinusoid_residual_sq(subdft, n, freqs),
                                      np.einsum("ij,ij->j", ratio, ratio))
        # the dense path: a matrix Q, or a basis's own projection
        q = build_roast(n, w, 6).dense_basis()
        dpss = roast.build_dpss(n, w, split.n_low + 6)
        e = np.exp(2j * np.pi * np.arange(n)[:, None] * freqs[None, :])
        for projector, project in [(q, lambda x: q @ (q.conj().T @ x)),
                                   (dpss, dpss.project)]:
            resid = e - project(e)
            np.testing.assert_array_equal(
                sinusoid_residual_sq(projector, n, freqs),
                np.einsum("ij,ij->j", resid.conj(), resid).real)

    @staticmethod
    def _count_frequencies(monkeypatch):
        widths = []
        ratio = roast.diagnostics._dirichlet_ratio

        def counted(n, rows, f):
            widths.append(len(f))
            return ratio(n, rows, f)

        monkeypatch.setattr(roast.diagnostics, "_dirichlet_ratio", counted)
        return widths

    def test_quadrature_forms_half_the_grid(self, monkeypatch):
        widths = self._count_frequencies(monkeypatch)
        integrated_residual_quadrature(build_prolate(512, 0.25),
                                       build_roast(512, 0.25, 54))
        assert sum(widths) == 2048

    def test_pointwise_suite_forms_half_the_derivative_grid(self, monkeypatch):
        # the grid and its two shifts, 12,288 frequencies, hold 6,144 |f|
        widths = self._count_frequencies(monkeypatch)
        assert pointwise_suite(512, 0.25, 1e-1).all_satisfied
        assert sum(widths) == 6144


class TestSubspaceAngle:
    @pytest.mark.parametrize("k", [40, 200])
    def test_roast_basis_matches_dense_angle(self, caches, k):
        # k = 40 is narrower than the basis (dimension 143), k = 200 wider
        basis = caches.roast(256, 0.25, 14)
        s_k = caches.dpss(256, 0.25).vectors[:, :k]
        via_analyze = subspace_angle(s_k, basis)
        dense = subspace_angle(s_k, basis.dense_basis())
        np.testing.assert_allclose(via_analyze, dense, rtol=0, atol=1e-12)
        assert abs(subspace_angle(basis, s_k)[-1] - dense[-1]) <= 1e-12

    def test_identical_subspaces(self, rng):
        q = np.linalg.qr(rng.standard_normal((32, 6)))[0]
        cos = subspace_angle(q, q)
        np.testing.assert_allclose(cos, 1.0, atol=1e-12)
        assert cos[-1] >= 1 - 1e-12

    def test_orthogonal_subspaces(self):
        eye = np.eye(16)
        cos = subspace_angle(eye[:, :4], eye[:, 8:12])
        np.testing.assert_allclose(cos, 0.0, atol=1e-12)

    def test_cosines_sorted_and_bounded(self, rng):
        a = np.linalg.qr(rng.standard_normal((40, 7)))[0]
        b = np.linalg.qr(rng.standard_normal((40, 12)))[0]
        cos = subspace_angle(a, b)
        assert len(cos) == 7
        assert np.all(np.diff(cos) <= 0)
        assert np.all(cos >= 0) and np.all(cos <= 1 + 1e-12)

    def test_definition_paths_agree(self, rng):
        for _ in range(10):
            p, q = rng.integers(1, 16, size=2)
            a = np.linalg.qr(rng.standard_normal((16, p))
                             + 1j * rng.standard_normal((16, p)))[0]
            b = np.linalg.qr(rng.standard_normal((16, q))
                             + 1j * rng.standard_normal((16, q)))[0]
            assert abs(subspace_angle(a, b)[-1]
                       - largest_angle_cos_direct(a, b)) <= 1e-10

    def test_rejects_non_orthonormal(self, rng):
        with pytest.raises(ValueError):
            subspace_angle(rng.standard_normal((16, 3)), np.eye(16)[:, :3])


class TestSpectrumReport:
    def test_no_violations_and_norm_below_one(self, caches):
        ledger = core_grid_checks(caches.dpss(256, 0.25))
        [violations] = entries_of(ledger, "singular_decay_violations")
        assert violations.lhs_value == 0.0 and violations.satisfied
        assert caches.spectrum(256, 0.25)[0] < 1.0

    def test_spectrum_length(self, caches):
        assert len(caches.spectrum(256, 0.25)) == 256 - 2 * 64 - 1

    def test_tail_bound_entries(self, caches):
        ledger = core_grid_checks(caches.dpss(256, 0.25))
        tails = entries_of(ledger, "singular_tail_geometric")
        assert [e.params["r"] for e in tails] == [5, 10, 20]
        assert all(e.satisfied for e in tails)

    @pytest.mark.parametrize("n,w", [(256, 0.25), (257, 0.25), (64, 0.1),
                                     (129, 0.4), (64, 0.01), (65, 0.01)])
    def test_matches_complex_svd_of_the_cross_operator(self, n, w):
        # the report decomposes U C P, U unitary on the rows and P
        # orthogonal on the columns, as two parity blocks; at W=0.01 only
        # the DC bin is in band, so n_high is N - 1
        sigma = np.linalg.svd(roast.cross_operator_dense(
            build_prolate(n, w), roast.build_band_split(n, w)), compute_uv=False)
        got = roast.singular_decay_report(n, w)
        assert got.shape == sigma.shape
        np.testing.assert_allclose(got, sigma, rtol=0,
                                   atol=10 * np.finfo(float).eps * sigma[0])

    def test_two_parity_blocks_are_decomposed(self, monkeypatch):
        # n_neg = 409 positive bins and the Nyquist row over 512 even and
        # 512 odd columns, in place of one 819 x 1024 SVD
        shapes = []
        svd = np.linalg.svd

        def counted(a, *args, **kwargs):
            shapes.append(a.shape)
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        sigma = singular_decay_report(1024, 0.1)
        assert shapes == [(409, 512), (410, 512)]
        assert len(sigma) == 819
        assert np.all(np.diff(sigma) <= 0.0)

    def test_bound_curve_matches_formula(self, caches, monkeypatch):
        # the violation count is the number of indices where a singular
        # value passes the envelope 15 exp(-j / C_N) by the ledger's 1e-12
        # slack; a spectrum scaled by 40 passes it at its head
        sigma = 40.0 * caches.spectrum(256, 0.25)
        envelope = 15.0 * np.exp(-np.arange(len(sigma)) / log_width_constant(256))
        want = np.count_nonzero(sigma > envelope + 1e-12)
        monkeypatch.setattr(roast.verify, "singular_decay_report",
                            lambda n, w: sigma)
        ledger = core_grid_checks(caches.dpss(256, 0.25))
        [violations] = entries_of(ledger, "singular_decay_violations")
        assert 0 < want < len(sigma)
        assert violations.lhs_value == want and not violations.satisfied
        for tail in entries_of(ledger, "singular_tail_geometric"):
            assert tail.lhs_value == np.sum(sigma[tail.params["r"]:])


class TestConcentration:
    def test_reference_point(self, caches):
        lam = caches.dpss(1024, 0.25).eigenvalues
        ledger = core_grid_checks(caches.dpss(1024, 0.25))
        entry = next(e for e in entries_of(ledger, "eigenvalue_concentration")
                     if e.params["eps"] == 1e-2)
        assert abs(log_width_constant(1024) - 9.652) <= 1e-3
        assert entry.lhs_value == np.sum((lam >= 1e-2) & (lam <= 1 - 1e-2))
        assert entry.rhs_bound == pytest.approx(
            2 * log_width_constant(1024) * math.log(1500.0))
        assert entry.satisfied

    def test_narrow_interval_has_at_most_one(self, caches):
        lam = caches.dpss(256, 0.25).eigenvalues
        assert np.sum((lam >= 0.4999) & (lam <= 0.5001)) <= 1


class TestDerivativeCheck:
    def test_complete_basis_flat(self, caches):
        op = caches.op(64, 0.25)
        full_dft = roast.dft_columns(64, np.arange(64))
        deriv, pointwise, integral = sinusoid_derivative_check(op, full_dft)
        assert deriv <= 2 * np.pi * 64**2
        assert pointwise <= 1e-12 and integral <= 1e-12

    def test_roast_basis_within_envelope(self, caches):
        op = caches.op(512, 0.25)
        deriv, pointwise, integral = sinusoid_derivative_check(
            op, caches.roast(512, 0.25, 19))
        assert 0.0 < deriv <= 2 * np.pi * 512**2
        assert pointwise <= pointwise_bound(integral, 512, 0.25)

    def test_pointwise_bound_holds_without_slack(self, caches):
        # at the verify ledger's detail point the residual is ~1e-20, far
        # below the trace path's round-off; the bound must still cover it
        op = caches.op(512, 0.25)
        basis = caches.roast(512, 0.25, 115)
        _, pointwise, integral = sinusoid_derivative_check(op, basis)
        assert pointwise <= pointwise_bound(integral, 512, 0.25)
        assert integral == pytest.approx(
            integrated_residual_quadrature(op, basis), rel=1e-12)

    def test_too_narrow_band_rejected(self):
        op = build_prolate(8, 0.005)  # below 1/(4 pi N) ~ 0.00995
        with pytest.raises(ValueError, match="1/\\(4 pi N\\)"):
            sinusoid_derivative_check(op, roast.dft_columns(8, np.arange(8)))


class TestCaptureReport:
    # at (5, 0.49) n_high = 0, so R = 0 is complete
    @pytest.mark.parametrize("n, w", [(128, 0.25), (5, 0.49)])
    def test_complete_basis_captures_exactly(self, n, w, caches):
        split = roast.build_band_split(n, w)
        basis = build_roast(n, w, split.n_high)
        _, capture_sq, per_vector, cos_theta = dpss_capture_report(
            caches.dpss(n, w), 1e-3, basis)
        assert capture_sq <= 1e-12
        assert per_vector <= 1e-12
        assert cos_theta >= 1 - 1e-10

    def test_sized_basis_meets_eps(self, caches):
        # the capture errors within eta and eps, and the angle above the
        # floor sqrt(1 - N eta), all without the ledger's 1e-12 slack
        n, w, eps = 512, 0.25, 1e-3
        basis = caches.roast(n, w, rank_for_capture(n, eps))
        dpss = caches.dpss(n, w)
        eta, capture_sq, per_vector, cos_theta = dpss_capture_report(
            dpss, eps, basis)
        assert max(capture_sq, per_vector) <= min(eta, eps)
        assert math.sqrt(max(1.0 - n * eta, 0.0)) <= cos_theta

    def test_eps_validation(self, caches):
        with pytest.raises(ValueError):
            dpss_capture_report(caches.dpss(128, 0.25), 0.7, caches.roast(128, 0.25, 5))

    @pytest.mark.parametrize("n", [64, 65])
    def test_matches_the_dense_oracle(self, n, caches):
        # the real-coordinate report against the SVD of s_k - Q Q^* s_k,
        # subspace_angle and the complex deflation of the cross operator; a
        # four-column sketch leaves residuals far above round-off
        w, eps = 0.25, 1e-2
        dpss = caches.dpss(n, w)
        s_k = dpss.vectors[:, :int(np.sum(dpss.eigenvalues >= eps))]
        basis = roast.build_roast_randomized(n, w, 4, 0)
        cross = caches.cross(n, w)
        eta, capture_sq, per_vector, cos_theta = dpss_capture_report(
            dpss, eps, basis)

        dense = basis.dense_basis()
        resid = s_k - dense @ (dense.conj().T @ s_k)
        want_sq = np.linalg.svd(resid, compute_uv=False)[0] ** 2
        want_per = np.max(np.einsum("ij,ij->j", resid.conj(), resid).real)
        want_cos = subspace_angle(s_k, basis)[-1]
        deflated = cross - basis.v @ (basis.v.conj().T @ cross)
        want_eta = np.linalg.norm(deflated, 2) / eps
        assert want_per > 1e-6
        assert (capture_sq, per_vector, cos_theta, eta) == pytest.approx(
            (want_sq, want_per, want_cos, want_eta), rel=1e-12, abs=0)

    @pytest.mark.parametrize("n", [64, 65, 512])
    def test_eta_matches_the_full_spectral_norm(self, n, caches):
        # eta from the top eigenvalue of the deflated Gram against the
        # 2-norm of the same deflated real rows; at N=512 the sized svd_fb
        # basis leaves a deflated norm near 1e-11
        w, eps = 0.25, 1e-3 if n == 512 else 1e-2
        if n == 512:
            basis = caches.roast(n, w, rank_for_capture(n, eps))
        else:
            basis = roast.build_roast_randomized(n, w, 4, 0)
        q = basis.q
        real = roast.basis._cross_rows(caches.op(n, w), basis.split)
        want = np.linalg.norm(real - q @ (q.T @ real), 2) / eps
        eta = dpss_capture_report(caches.dpss(n, w), eps, basis)[0]
        assert eta == pytest.approx(want, rel=1e-12, abs=0)

    def test_reports_never_form_the_complex_cross_operator(
            self, caches, patch_everywhere):
        # the spectrum and eta read the real rows of _cross_rows alone
        def refuse(*args, **kwargs):
            raise AssertionError("complex cross operator formed")

        patch_everywhere(roast.basis.cross_operator_dense, refuse)
        n, w, dpss = 64, 0.25, caches.dpss(64, 0.25)
        assert core_grid_checks(dpss).all_satisfied
        basis = caches.roast(n, w, 5)
        assert len(dpss_capture_report(dpss, 1e-2, basis)) == 4
        assert len(capture_suite(dpss, 1e-3).entries) == 6

    @pytest.mark.parametrize("n, w", [(64, 0.2), (65, 0.25)])
    def test_refuses_a_basis_at_another_split(self, n, w, caches):
        with pytest.raises(ValueError, match="does not match the solve"):
            dpss_capture_report(caches.dpss(64, 0.25), 1e-2, caches.roast(n, w, 5))


class TestLedger:
    def test_satisfaction_rule(self):
        ledger = BoundLedger()
        good = ledger.add("demo_ok", 1.0, 2.0)
        boundary = ledger.add("demo_boundary", 1.0, 1.0)
        bad = ledger.add("demo_bad", 2.0, 1.0, n=4)
        assert good.satisfied and boundary.satisfied and not bad.satisfied
        assert not ledger.all_satisfied

    def test_json_round_trip(self):
        ledger = BoundLedger()
        ledger.add("demo", 0.5, 1.0, n=64, w=0.25)
        text = ledger.to_json(command="verify")
        restored = BoundLedger.from_json(text)
        assert restored.entries[0].to_dict() == ledger.entries[0].to_dict()
        doc = json.loads(text)
        assert doc["all_satisfied"] is True

    def test_small_instance_suite(self):
        ledger = small_instance_checks()
        assert ledger.all_satisfied
        ids = {e.check_id for e in ledger.entries}
        assert ids == {"trace_inequality_margin", "angle_definition_agreement"}
