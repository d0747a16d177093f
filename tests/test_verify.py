import numpy as np
import pytest

import roast.verify
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
