import numpy as np
import pytest

import roast
from roast import (
    build_fst_analog,
    build_recovery_problem,
    build_roast,
    cgd_solve,
    condition_estimate,
    dft_columns,
    recovery_experiment,
)


class TestCgSolve:
    def test_identity_converges_in_one_step(self, rng):
        rhs = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        result = cgd_solve(lambda v: v, rhs)
        assert result.converged
        assert result.iterations == 1
        np.testing.assert_allclose(result.solution, rhs, atol=1e-12)

    def test_two_dim_exact_termination(self):
        diag = np.array([1.0, 1e4])
        rhs = np.array([1.0, 2.0])
        result = cgd_solve(lambda v: diag * v, rhs, tol=1e-12)
        assert result.converged
        assert result.iterations <= 2
        np.testing.assert_allclose(result.solution, rhs / diag, rtol=1e-10)

    def test_error_energy_norm_monotone(self, rng):
        m = rng.standard_normal((20, 20))
        a = m @ m.T + np.eye(20)
        rhs = rng.standard_normal(20)
        exact = np.linalg.solve(a, rhs)
        energies = []

        def track(x):
            e = x - exact
            energies.append(float(e @ (a @ e)))

        cgd_solve(lambda v: a @ v, rhs, tol=1e-12, callback=track)
        assert len(energies) >= 2
        assert np.all(np.diff(energies) <= 1e-9 * energies[0])

    def test_non_convergence_reported(self, rng):
        diag = np.logspace(0, 12, 30)
        rhs = rng.standard_normal(30)
        result = cgd_solve(lambda v: diag * v, rhs, tol=1e-14, max_iter=3)
        assert not result.converged
        assert result.iterations == 3
        assert len(result.residual_history) == 4
        assert result.residual_history[-1] > 0

    def test_zero_rhs(self):
        result = cgd_solve(lambda v: v, np.zeros(5))
        assert result.converged and result.iterations == 0

    def test_tolerance_validation(self):
        with pytest.raises(ValueError):
            cgd_solve(lambda v: v, np.ones(4), tol=0.0)


class TestRecoveryProblem:
    def test_observation_consistency(self):
        problem = build_recovery_problem(128, 0.25, 96, seed=3)
        np.testing.assert_array_equal(problem.y, problem.phi @ problem.truth)

    def test_measurement_regime_enforced(self):
        with pytest.raises(ValueError):
            build_recovery_problem(128, 0.25, 32, seed=0)  # below 2 floor(NW)
        with pytest.raises(ValueError):
            build_recovery_problem(128, 0.25, 200, seed=0)

    def test_sensing_matrix_from_two_gaussian_draws(self):
        n, m, seed = 128, 96, 3
        rng = np.random.default_rng(seed + 0x5EED)
        g_re = rng.standard_normal((m, n))
        g_im = rng.standard_normal((m, n))
        phi = build_recovery_problem(n, 0.25, m, seed).phi
        assert np.array_equal(phi, (g_re + 1j * g_im) / np.sqrt(2.0 * m))

    def test_identity_sensing_shape(self):
        problem = build_recovery_problem(64, 0.25, 64, seed=1,
                                         identity_sensing=True)
        np.testing.assert_array_equal(problem.phi, np.eye(64))


class TestRecoveryExperiment:
    def test_identity_sensing_reduces_to_projection(self, caches):
        n, w, r, seed = 128, 0.25, 8, 5
        report = recovery_experiment(n, w, n, "roast", seed, r=r,
                                     identity_sensing=True, num_tones=200)
        truth = roast.random_bandlimited(n, w, 200, seed).samples
        basis = caches.roast(n, w, r)
        expected = np.linalg.norm(truth - basis.project(truth)) / np.linalg.norm(truth)
        assert report.converged
        assert abs(report.relative_error - expected) <= 1e-8

    def test_band_signal_recovered_exactly(self, rng):
        # truth inside the retained DFT band is representable by every basis
        # that contains those columns, so recovery is exact at the CG tol
        n, w, m, r = 128, 0.25, 96, 5
        basis = build_roast(n, w, r)
        cols = dft_columns(n, basis.split.low_indices)
        truth = cols @ (rng.standard_normal(basis.split.n_low)
                        + 1j * rng.standard_normal(basis.split.n_low))
        phi = (rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n)))
        phi /= np.sqrt(2.0 * m)
        y = phi @ truth

        def normal_op(a):
            return basis.analyze(phi.conj().T @ (phi @ basis.synthesize(a)))

        result = cgd_solve(normal_op, basis.analyze(phi.conj().T @ y), tol=1e-8)
        xhat = basis.synthesize(result.solution)
        assert np.linalg.norm(xhat - truth) / np.linalg.norm(truth) <= 1e-6

    def test_recovered_signal_lies_in_subspace(self):
        report = recovery_experiment(128, 0.25, 96, "roast", seed=2, r=6,
                                     num_tones=200)
        assert report.converged
        assert report.relative_error <= 1e-2

    def test_median_error_at_reference_point(self):
        errors = [recovery_experiment(512, 0.25, 384, "roast", seed, r=19,
                                      num_tones=500).relative_error
                  for seed in range(5)]
        assert np.median(errors) <= 1e-2

    @pytest.mark.parametrize("name", sorted(roast.BASES))
    def test_every_registered_basis(self, name):
        # CG through the basis's own analyze/synthesize lands on the dense
        # least-squares recovery through the same basis
        n, w, m, r, seed = 128, 0.25, 96, 6, 2
        report = recovery_experiment(n, w, m, name, seed, r=r, num_tones=200)
        q = roast.BASES[name](n, w, r, seed).dense_basis()
        problem = build_recovery_problem(n, w, m, seed, num_tones=200)
        coeffs = np.linalg.lstsq(problem.phi @ q, problem.y, rcond=None)[0]
        oracle = (np.linalg.norm(q @ coeffs - problem.truth)
                  / np.linalg.norm(problem.truth))
        assert report.converged
        assert report.params["dimension"] == q.shape[1] == 2 * 32 + 1 + r
        assert abs(report.relative_error - oracle) <= report.condition_estimate * 1e-8

    @pytest.mark.parametrize("name", sorted(roast.BASES))
    def test_within_cg_tolerance_of_dense_least_squares(self, name):
        # the recover benchmark's correctness check at its default rank and
        # tone count: CG stops within cond * tol of the least-squares solution
        n, w, m, tol = 128, 0.25, 96, 1e-8
        r = int(np.floor(3.0 * np.log(n)))
        for seed in range(3):
            report = recovery_experiment(n, w, m, name, seed, tol=tol)
            q = roast.BASES[name](n, w, r, seed).dense_basis()
            problem = build_recovery_problem(n, w, m, seed)
            coeffs = np.linalg.lstsq(problem.phi @ q, problem.y, rcond=None)[0]
            oracle = (np.linalg.norm(q @ coeffs - problem.truth)
                      / np.linalg.norm(problem.truth))
            assert report.converged
            assert abs(report.relative_error - oracle) <= report.condition_estimate * tol

    def test_unknown_basis_rejected(self):
        with pytest.raises(ValueError):
            recovery_experiment(128, 0.25, 96, "fourier", seed=0)


class TestConditionEstimate:
    @pytest.mark.parametrize("name", sorted(roast.BASES))
    @pytest.mark.parametrize("n, m, r", [(128, 96, 6), (512, 384, 19)])
    def test_ritz_ratio_matches_dense(self, name, n, m, r):
        # Ritz values lie inside the spectrum, so the estimate never exceeds
        # cond((Phi Q)^* (Phi Q)); after a converged solve it is close to it
        for seed in range(3):
            report = recovery_experiment(n, 0.25, m, name, seed, r=r)
            q = roast.BASES[name](n, 0.25, r, seed).dense_basis()
            phi = build_recovery_problem(n, 0.25, m, seed).phi
            s = np.linalg.svd(phi @ q, compute_uv=False)
            ratio = report.condition_estimate / (s[0] / s[-1]) ** 2
            assert 0.9 <= ratio <= 1 + 1e-8

    def test_identity_is_perfectly_conditioned(self, rng):
        rhs = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        assert condition_estimate(cgd_solve(lambda v: v, rhs)) == 1.0

    def test_no_step_gives_nan(self):
        assert np.isnan(condition_estimate(cgd_solve(lambda v: v, np.zeros(5))))


class TestConditioningComparison:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_orthonormal_basis_converges_faster(self, seed, caches):
        n, w, m, r = 256, 0.25, 192, 12
        basis = caches.roast(n, w, r)
        t1, t2 = build_fst_analog(n, w, r).factor_pair()
        assert t2.shape[1] == basis.dimension

        rng = np.random.default_rng(seed)
        phi = (rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n)))
        phi /= np.sqrt(2.0 * m)
        truth = roast.random_bandlimited(n, w, 300, seed).samples
        y = phi @ truth

        def run(synth, analyze, dim):
            def normal_op(a):
                return analyze(phi.conj().T @ (phi @ synth(a)))
            res = cgd_solve(normal_op, analyze(phi.conj().T @ y), tol=1e-8,
                            max_iter=4 * dim)
            return res.iterations, condition_estimate(res)

        # orthonormal apply pair versus the asymmetric factor pair at
        # identical dimension
        it_q, cond_q = run(basis.synthesize, basis.analyze, basis.dimension)
        it_t, cond_t = run(lambda a: t2 @ a, lambda x: t2.conj().T @ x,
                           t2.shape[1])
        assert it_q < it_t
        assert cond_q <= cond_t
