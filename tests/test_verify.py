"""The verify suites, and ``roast verify`` against its committed references.

``tests/data/verify_ledger.json`` is ``roast verify --out`` at its defaults,
and ``tests/data/verify_single_point.json`` is ``roast verify --single-point``
at ``_SINGLE_POINT_ARGS``, both with one BLAS thread.  A change that moves a
ledger on purpose rewrites both with

    PYTHONPATH=src python tests/test_verify.py

and lists every moved entry in CHANGES.md.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import json  # noqa: E402
import pathlib  # noqa: E402

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import roast.diagnostics  # noqa: E402
import roast.verify  # noqa: E402
from roast.basis import build_roast_randomized, rank_for_capture  # noqa: E402
from roast.cli import main  # noqa: E402
from roast.diagnostics import (dpss_capture_report, integrated_residual,  # noqa: E402
                               integrated_residual_quadrature)
from roast.verify import (  # noqa: E402
    DEFAULT_GRID,
    average_suite,
    capture_suite,
    core_grid_checks,
    full_verification,
    pointwise_suite,
    randomized_suite,
)


def entry_map(ledger):
    return {e.check_id: e for e in ledger.entries}


def _calls_on_a_solve(dpss, basis):
    """The four calls that read N and W from the Slepian solve they take,
    each returning its ledger entries or its numbers."""
    return [lambda: core_grid_checks(dpss).entries,
            lambda: capture_suite(dpss, 1e-3).entries,
            lambda: randomized_suite(dpss, 1e-2, num_seeds=2).entries,
            lambda: dpss_capture_report(dpss, 1e-2, basis)]


class TestSolveInput:
    def test_truncated_solve_refused(self, caches):
        # the leading 20 of the 64 vectors at N=64, W=0.25 hide the rest of
        # the spectrum, so no count of eigenvalues >= eps can be read off them
        calls = _calls_on_a_solve(caches.dpss(64, 0.25, 20), caches.roast(64, 0.25, 5))
        for call in calls:
            with pytest.raises(ValueError, match="full Slepian solve"):
                call()

    def test_given_solve_is_not_solved_again(self, caches, patch_everywhere):
        calls = _calls_on_a_solve(caches.dpss(64, 0.25), caches.roast(64, 0.25, 5))

        def no_solve(*args, **kwargs):
            raise AssertionError("DPSS solved")

        patch_everywhere(roast.prolate.build_dpss, no_solve)
        for call in calls:
            assert call()


class TestSuites:
    def test_default_grid_shape(self):
        assert len(DEFAULT_GRID) == 9
        assert all(0 < w < 0.5 and n >= 64 for n, w in DEFAULT_GRID)

    def test_core_checks_pass_at_small_size(self, caches):
        ledger = core_grid_checks(caches.dpss(64, 0.25))
        assert ledger.all_satisfied
        ids = {e.check_id for e in ledger.entries}
        assert {"trace_identity", "eigenvalue_bisection_lower",
                "eigenvalue_bisection_upper", "eigenvalue_concentration",
                "singular_decay_violations",
                "cross_operator_norm_below_one"} <= ids

    @pytest.mark.parametrize("n, w, written", [
        (40, 0.01, ["eigenvalue_bisection_upper"]),  # 2NW < 1: no lower index
        (2, 0.1, ["eigenvalue_bisection_upper"]),
        (64, 0.499, ["eigenvalue_bisection_lower"]),  # ceil(2NW) = N
        (4, 0.45, ["eigenvalue_bisection_lower"]),
        (5, 0.49, ["eigenvalue_bisection_lower"]),  # n_high = 0: no spectrum
    ])
    def test_bisection_entries_only_inside_the_spectrum(self, n, w, written):
        ledger = core_grid_checks(roast.prolate.build_dpss(n, w, n))
        bisection = [e for e in ledger.entries if "bisection" in e.check_id]
        assert [e.check_id for e in bisection] == written
        assert all(0 <= e.params["index"] < n for e in bisection)
        assert ledger.all_satisfied

    def test_average_suite_small(self):
        ledger = average_suite(64, 0.25, 1e-2)
        assert ledger.all_satisfied

    def test_pointwise_suite_small(self):
        ledger = pointwise_suite(64, 0.25, 1e-1)
        assert ledger.all_satisfied

    def test_randomized_angle_entry_records_both_floors(self, caches):
        ledger = randomized_suite(caches.dpss(64, 0.25), 1e-2, num_seeds=2)
        angle = entry_map(ledger)["randomized_angle_mean"]
        assert "strict_floor" in angle.params
        assert angle.params["strict_floor"] >= angle.lhs_value

    def test_randomized_suite_without_out_of_band_space(self, caches):
        # odd N at floor(NW) = (N - 1) / 2 leaves n_high = 0: every width
        # clamps to zero and each sketch keeps no column
        ledger = randomized_suite(caches.dpss(5, 0.49), 1e-2, num_seeds=2)
        assert len(ledger.entries) == 5 and ledger.all_satisfied
        assert {e.params["r_max"] for e in ledger.entries} == {0}

    @staticmethod
    def _count_sketches_and_qrs(monkeypatch, caches, n):
        sketches, qrs = [], []
        sketch, sketch_basis = roast.verify._sketch, roast.verify._sketch_basis

        def counting_sketch(op, split, p, seed):
            sketches.append((p, seed))
            return sketch(op, split, p, seed)

        def counting_basis(split, rows, seed):
            qrs.append((rows.shape[1], seed))
            return sketch_basis(split, rows, seed)

        monkeypatch.setattr(roast.verify, "_sketch", counting_sketch)
        monkeypatch.setattr(roast.verify, "_sketch_basis", counting_basis)
        ledger = randomized_suite(caches.dpss(n, 0.25), 1e-2, num_seeds=2)
        return sketches, qrs, {e.params["p"] for e in ledger.entries}

    def test_randomized_suite_builds_once_per_distinct_width(self, monkeypatch,
                                                              caches):
        # at N=64 every sketch-width rule clamps to n_high = 31, so each
        # seed needs one sketch and one pivoted QR
        sketches, qrs, widths = self._count_sketches_and_qrs(monkeypatch, caches, 64)
        assert sketches == qrs == [(31, 0), (31, 1)]
        assert widths == {31}

    def test_narrower_widths_take_prefixes_of_one_sketch(self, monkeypatch, caches):
        # at the verify detail point the rules give three widths: each seed
        # draws one sketch at the widest and runs one pivoted QR per width
        sketches, qrs, widths = self._count_sketches_and_qrs(monkeypatch, caches, 512)
        assert sketches == [(255, 0), (255, 1)]
        assert qrs == [(p, seed) for seed in (0, 1) for p in (113, 170, 255)]
        assert widths == {113, 170, 255}

    def test_widest_basis_is_the_builder_output(self, monkeypatch, caches):
        # at the verify detail point the widest width, 255, serves the angle
        # and pointwise entries; its basis is build_roast_randomized's
        n, w, widest = 512, 0.25, {}
        sketch_basis = roast.verify._sketch_basis

        def keeping_basis(split, rows, seed):
            basis = sketch_basis(split, rows, seed)
            if rows.shape[1] == split.n_high:
                widest[seed] = basis
            return basis

        monkeypatch.setattr(roast.verify, "_sketch_basis", keeping_basis)
        randomized_suite(caches.dpss(n, w), 1e-2, num_seeds=2)
        assert sorted(widest) == [0, 1]
        for seed, got in widest.items():
            want = build_roast_randomized(n, w, 255, seed)
            assert (got.r, got.seed, got.method) == (want.r, want.seed, want.method)
            np.testing.assert_array_equal(got.v, want.v)

    def test_randomized_suite_forms_the_dirichlet_ratio_once(self, monkeypatch,
                                                              caches):
        # both seeds' bases go through one kernel call, which forms the
        # ratio once per block of 2**16 // 31 = 2114 frequencies: the 2048
        # distinct |f| of the mirrored grid fit one block, and a ratio per
        # basis would make four calls
        calls = []
        ratio = roast.diagnostics._dirichlet_ratio

        def counting_ratio(*args):
            calls.append(args)
            return ratio(*args)

        monkeypatch.setattr(roast.diagnostics, "_dirichlet_ratio", counting_ratio)
        randomized_suite(caches.dpss(64, 0.25), 1e-2, num_seeds=2)
        assert len(calls) == 1

    def test_randomized_average_is_the_mean_quadrature(self, caches):
        # the trace path floors its round-off at zero; the quadrature over
        # the suite's own grid resolves the residual of every seed
        n, w, eps, seeds = 64, 0.25, 1e-2, 2
        ledger = randomized_suite(caches.dpss(n, w), eps, num_seeds=seeds)
        entry = entry_map(ledger)["randomized_average_residual_mean"]
        op = roast.prolate.build_prolate(n, w)
        p = entry.params["p"]
        want = np.mean([integrated_residual_quadrature(
            op, build_roast_randomized(n, w, p, seed)) / n
            for seed in range(seeds)])
        assert entry.lhs_value > 0.0
        assert entry.lhs_value == pytest.approx(want, rel=1e-12)

    def test_randomized_entries_record_kept_rank(self, caches):
        ledger = randomized_suite(caches.dpss(64, 0.25), 1e-2, num_seeds=2)
        for e in ledger.entries:
            assert 1 <= e.params["r_min"] <= e.params["r_max"] <= e.params["p"]

    def test_randomized_suite_takes_a_shared_dpss(self, caches, monkeypatch):
        want = randomized_suite(roast.prolate.build_dpss(64, 0.25, 64), 1e-2,
                                num_seeds=2)

        def no_solve(*args, **kwargs):
            raise AssertionError("DPSS solved again")

        monkeypatch.setattr(roast.verify, "build_dpss", no_solve)
        got = randomized_suite(caches.dpss(64, 0.25), 1e-2, num_seeds=2)
        assert [e.to_dict() for e in got.entries] == [e.to_dict() for e in want.entries]

    @pytest.mark.parametrize("n", [64, 65])
    def test_real_coordinates_match_the_dense_oracle(self, n, caches):
        # the suite's capture values from the real cosine/sine rows, and its
        # angle cosine sqrt(1 - ||R||_2^2), against the SVD of
        # R = s_k - Q Q^* s_k and subspace_angle; a four-column sketch
        # leaves residuals far above round-off
        w, eps = 0.25, 1e-2
        dpss = caches.dpss(n, w)
        k, x = roast.verify._leading_slepian_rows(
            dpss, eps, roast.prolate.build_band_split(n, w))
        s_k = dpss.vectors[:, :k]
        for seed in range(3):
            basis = build_roast_randomized(n, w, 4, seed)
            q = basis.q
            spectral_sq, per_vector, cos_theta = roast.verify._capture_errors(x, q)

            dense = basis.dense_basis()
            resid = s_k - dense @ (dense.conj().T @ s_k)
            want_sq = np.linalg.svd(resid, compute_uv=False)[0] ** 2
            want_per = np.max(np.einsum("ij,ij->j", resid.conj(), resid).real)
            want_cos = roast.diagnostics.subspace_angle(s_k, basis)[-1]
            assert want_per > 1e-6
            assert spectral_sq == pytest.approx(want_sq, rel=1e-12, abs=0)
            assert per_vector == pytest.approx(want_per, rel=1e-12, abs=0)
            assert cos_theta == pytest.approx(want_cos, rel=1e-12, abs=0)

    @pytest.mark.parametrize("eps, p", [(1e-3, None), (1e-2, 170)])
    def test_gram_route_matches_the_svd_at_the_detail_point(self, eps, p, caches):
        # ||R||_2^2 from the top Gram eigenvalue of the deflated capture
        # residual against its largest singular value squared, for the
        # capture suite's svd_fb basis and a randomized basis at p_cap;
        # both residuals sit near 1e-20
        n, w = 512, 0.25
        _, x = roast.verify._leading_slepian_rows(
            caches.dpss(n, w), eps, roast.prolate.build_band_split(n, w))
        basis = (caches.roast(n, w, rank_for_capture(n, eps)) if p is None
                 else build_roast_randomized(n, w, p, 0))
        q = basis.q
        want = np.linalg.svd(x - q @ (q.T @ x), compute_uv=False)[0] ** 2
        got = roast.verify._capture_errors(x, q)[0]
        assert 0.0 < want < 1e-15
        assert got == pytest.approx(want, rel=1e-12, abs=0)

    def test_suites_run_without_dense_columns(self, forbid_dense_columns, caches):
        # the randomized and pointwise suites work through the basis
        # objects, so forbidding the dense DFT columns changes nothing
        assert randomized_suite(caches.dpss(64, 0.25), 1e-2,
                                num_seeds=2).all_satisfied
        assert pointwise_suite(64, 0.25, 1e-1).all_satisfied


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


# ``roast verify --out`` at its defaults, with one BLAS thread: the ledger
# values' last bits depend on the thread count, and the root conftest pins
# one thread for the tests
_REFERENCE = pathlib.Path(__file__).parent / "data" / "verify_ledger.json"
_SINGLE_POINT = _REFERENCE.with_name("verify_single_point.json")
# an odd N, which takes build_dpss's odd branch
_SINGLE_POINT_ARGS = ["verify", "--single-point", "--n", "301", "--w", "0.1",
                      "--eps", "1e-4"]


def _moved(old, new):
    """Whether a ledger field moved past its class.

    Ids, param names, integer params and ``satisfied`` are the ledger's
    shape and verdicts, which carry no round-off: they match exactly, type
    included.  A float at or above 1e-8 sits above the round-off floor; a
    refactor that reorders a sum moves it by about 1e-13 relative (one
    against two BLAS threads moved such values by at most 8.6e-14), so it
    matches to 1e-9 relative.  A float below 1e-8 is at the floor, or
    computed from values there, and moves by large relative amounts when
    any product reorders; it matches to 1e-12 absolute, the slack every
    ledger inequality grants its left side.
    """
    if type(old) is not float or type(new) is not float:
        return type(old) is not type(new) or old != new
    if old == new:
        return False
    if abs(old) >= 1e-8:
        return not abs(new - old) <= 1e-9 * abs(old)
    return not abs(new - old) <= 1e-12


def _ledger_moves(old_entries, new_entries):
    """One "old -> new" line for each ledger field of ``new_entries`` that
    moved past its class against ``old_entries`` (dicts as the ledger JSON
    holds them): the list a change that moves the ledger records."""
    moves = []
    if len(old_entries) != len(new_entries):
        moves.append(f"entries: {len(old_entries)} -> {len(new_entries)}")
    for i, (old, new) in enumerate(zip(old_entries, new_entries)):
        where = f"#{i} {old['check_id']} {old['params']}"
        if (old["check_id"], sorted(old["params"])) != (
                new["check_id"], sorted(new["params"])):
            moves.append(f"{where}: -> {new['check_id']} {new['params']}")
            continue
        fields = [(key, old[key], new[key])
                  for key in ("satisfied", "lhs_value", "rhs_bound")]
        fields += [(f"params.{key}", value, new["params"][key])
                   for key, value in old["params"].items()]
        moves += [f"{where} {key}: {a!r} -> {b!r}"
                  for key, a, b in fields if _moved(a, b)]
    return moves


class TestReferenceLedger:
    """``full_verification()`` against the committed reference ledger.  One
    run, with every expansion of a stored factor q into its complex V
    raising, serves both the comparison and the check that no kernel of
    the ledger forms V."""

    @pytest.fixture(scope="class")
    def ledger(self, forbid_complex_v):
        return json.loads(full_verification().to_json())

    @pytest.fixture(scope="class")
    def reference(self):
        return json.loads(_REFERENCE.read_text())

    def test_runs_without_complex_v(self, ledger):
        assert len(ledger["entries"]) == 107 and ledger["all_satisfied"]

    def test_matches_the_reference(self, ledger, reference):
        moves = _ledger_moves(reference["entries"], ledger["entries"])
        assert not moves, "ledger moved, old -> new:\n" + "\n".join(moves)

    def test_comparator_catches_each_class(self, reference):
        entries = reference["entries"]
        assert _ledger_moves(entries, entries) == []
        small = next(i for i, e in enumerate(entries)
                     if 0.0 < e["lhs_value"] < 1e-8)
        large = next(i for i, e in enumerate(entries) if e["rhs_bound"] >= 1.0)
        cases = [
            ([], 1),  # a dropped entry
            ([(large, "rhs_bound", lambda v: v * (1 + 1e-10))], 0),
            ([(large, "rhs_bound", lambda v: v * (1 + 1e-8))], 1),
            ([(small, "lhs_value", lambda v: v + 5e-13)], 0),
            ([(small, "lhs_value", lambda v: v + 5e-12)], 1),
            ([(large, "satisfied", lambda v: not v)], 1),
            ([(0, "check_id", lambda v: v + "_renamed")], 1),
            ([(0, "params", lambda v: {**v, "n": float(v["n"])})], 1),
        ]
        for edits, count in cases:
            new = [dict(e) for e in entries] if edits else entries[:-1]
            for i, key, edit in edits:
                new[i][key] = edit(new[i][key])
            assert len(_ledger_moves(entries, new)) == count, edits


def test_single_point_matches_its_reference(tmp_path):
    out = tmp_path / "ledger.json"
    assert main([*_SINGLE_POINT_ARGS, "--out", str(out)]) == 0
    moves = _ledger_moves(json.loads(_SINGLE_POINT.read_text())["entries"],
                          json.loads(out.read_text())["entries"])
    assert not moves, "ledger moved, old -> new:\n" + "\n".join(moves)


if __name__ == "__main__":
    _REFERENCE.parent.mkdir(parents=True, exist_ok=True)
    codes = [main(["verify", "--out", str(_REFERENCE)]),
             main([*_SINGLE_POINT_ARGS, "--out", str(_SINGLE_POINT)])]
    print(f"wrote {_REFERENCE} and {_SINGLE_POINT}")
    raise SystemExit(max(codes))
