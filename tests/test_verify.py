import numpy as np
import pytest

import roast.diagnostics
import roast.verify
from roast.diagnostics import integrated_residual, integrated_residual_quadrature
from roast.verify import (
    DEFAULT_GRID,
    average_suite,
    core_grid_checks,
    pointwise_suite,
    randomized_suite,
)


def entry_map(ledger):
    return {e.check_id: e for e in ledger.entries}


class TestSuites:
    def test_default_grid_shape(self):
        assert len(DEFAULT_GRID) == 9
        assert all(0 < w < 0.5 and n >= 64 for n, w in DEFAULT_GRID)

    def test_core_checks_pass_at_small_size(self, caches):
        ledger = core_grid_checks(64, 0.25, dpss=caches.dpss(64, 0.25))
        assert ledger.all_satisfied
        ids = {e.check_id for e in ledger.entries}
        assert {"trace_identity", "eigenvalue_bisection_lower",
                "eigenvalue_bisection_upper", "eigenvalue_concentration",
                "singular_decay_violations",
                "cross_operator_norm_below_one"} <= ids

    def test_average_suite_small(self):
        ledger = average_suite(64, 0.25, 1e-2, quad_nodes=512)
        assert ledger.all_satisfied

    def test_pointwise_suite_small(self):
        ledger = pointwise_suite(64, 0.25, 1e-1, grid_size=128)
        assert ledger.all_satisfied

    def test_randomized_angle_entry_records_both_floors(self):
        ledger = randomized_suite(64, 0.25, 1e-2, num_seeds=2, grid_size=64)
        angle = entry_map(ledger)["randomized_angle_mean"]
        assert "strict_floor" in angle.params
        assert angle.params["strict_floor"] >= angle.lhs_value

    def test_randomized_suite_builds_once_per_distinct_width(self, monkeypatch):
        # at N=64 every sketch-width rule clamps to n_high = 31, so each
        # seed needs exactly one build
        calls = []
        build = roast.verify.build_roast_randomized

        def counting_build(*args, **kwargs):
            calls.append(args)
            return build(*args, **kwargs)

        monkeypatch.setattr(roast.verify, "build_roast_randomized",
                            counting_build)
        ledger = randomized_suite(64, 0.25, 1e-2, num_seeds=2, grid_size=64)
        assert len(calls) == 2
        assert {args[2] for args in calls} == {31}
        assert {e.params["p"] for e in ledger.entries} == {31}

    def test_randomized_suite_forms_the_dirichlet_ratio_once(self, monkeypatch):
        # both seeds' pointwise bases go through one kernel call
        calls = []
        ratio = roast.diagnostics._dirichlet_ratio

        def counting_ratio(*args):
            calls.append(args)
            return ratio(*args)

        monkeypatch.setattr(roast.diagnostics, "_dirichlet_ratio", counting_ratio)
        randomized_suite(64, 0.25, 1e-2, num_seeds=2, grid_size=64)
        assert len(calls) == 1

    def test_randomized_average_is_the_mean_quadrature(self):
        # the trace path floors its round-off at zero; the quadrature over
        # the suite's own grid resolves the residual of every seed
        n, w, eps, seeds, nodes = 64, 0.25, 1e-2, 2, 64
        ledger = randomized_suite(n, w, eps, num_seeds=seeds, grid_size=nodes)
        entry = entry_map(ledger)["randomized_average_residual_mean"]
        op = roast.prolate.build_prolate(n, w)
        p = entry.params["p"]
        want = np.mean([integrated_residual_quadrature(
            op, roast.verify.build_roast_randomized(n, w, p, seed), nodes=nodes) / n
            for seed in range(seeds)])
        assert entry.lhs_value > 0.0
        assert entry.lhs_value == pytest.approx(want, rel=1e-12)

    def test_randomized_entries_record_kept_rank(self):
        ledger = randomized_suite(64, 0.25, 1e-2, num_seeds=2, grid_size=64)
        for e in ledger.entries:
            assert 1 <= e.params["r_min"] <= e.params["r_max"] <= e.params["p"]

    def test_randomized_suite_takes_a_shared_dpss(self, caches, monkeypatch):
        dpss = caches.dpss(64, 0.25)
        want = randomized_suite(64, 0.25, 1e-2, num_seeds=2, grid_size=64)

        def no_solve(*args, **kwargs):
            raise AssertionError("DPSS solved again")

        monkeypatch.setattr(roast.verify, "build_dpss", no_solve)
        got = randomized_suite(64, 0.25, 1e-2, num_seeds=2, grid_size=64,
                               dpss=dpss)
        assert [e.to_dict() for e in got.entries] == [e.to_dict() for e in want.entries]

    def test_suites_run_without_dense_columns(self, forbid_dense_columns):
        # the randomized and pointwise suites work through the basis
        # objects, so forbidding the dense DFT columns changes nothing
        assert randomized_suite(64, 0.25, 1e-2, num_seeds=2,
                                grid_size=64).all_satisfied
        assert pointwise_suite(64, 0.25, 1e-1, grid_size=128).all_satisfied


class TestResidualPathAgreement:
    def test_passes_at_the_detail_point(self):
        entry = entry_map(average_suite(512, 0.25, 1e-3))["residual_path_agreement"]
        assert entry.satisfied
        # the floor is the trace path's round-off, dimension * eps * trace(B)
        assert entry.rhs_bound == pytest.approx(311 * np.finfo(float).eps * 256.0,
                                                rel=1e-3)

    def test_trace_off_by_1e_10_fails(self, monkeypatch):
        def shifted(op, q_like):
            return integrated_residual(op, q_like) + 1e-10

        monkeypatch.setattr(roast.verify, "integrated_residual", shifted)
        entry = entry_map(average_suite(512, 0.25, 1e-3))["residual_path_agreement"]
        assert not entry.satisfied
