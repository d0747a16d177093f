import argparse
import json
import re

import numpy as np
import pytest

import roast
from roast.basis import _METHODS, _ROAST_METHODS
from roast.cli import _build_parser, main
from roast.diagnostics import (
    SNR_CSV_CAP,
    BoundLedger,
    integrated_residual_quadrature,
    sinusoid_residual_sq,
)


def read_csv(path):
    meta, columns, rows = {}, None, []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            key, _, value = line[1:].strip().partition("=")
            meta[key] = value
        elif columns is None:
            columns = line.split(",")
        else:
            rows.append(line.split(","))
    return meta, columns, rows


def column(rows, columns, name, convert=float):
    idx = columns.index(name)
    return [convert(row[idx]) for row in rows]


class TestRankReport:
    def test_columns_and_formulas(self, tmp_path):
        out = tmp_path / "rank.csv"
        assert main(["rank-report", "--n-list", "256,1024,4096",
                     "--out", str(out)]) == 0
        meta, columns, rows = read_csv(out)
        assert columns == ["n", "c_n", "r_roast", "r_fst_bound"]
        assert meta["command"] == "rank-report"
        assert set(meta) == {"command", "version", "n_list", "log_base",
                             "delta", "format"}
        for row in rows:
            n = int(row[0])
            assert abs(float(row[1]) - roast.log_width_constant(n)) <= 1e-12
            assert int(row[2]) == int(np.floor(3 * np.log(n)))
            assert int(row[3]) > int(row[2])

    def test_log_base_flag(self, tmp_path):
        out = tmp_path / "rank.csv"
        main(["rank-report", "--n-list", "1024", "--log-base", "base2",
              "--out", str(out)])
        _, columns, rows = read_csv(out)
        assert column(rows, columns, "r_roast", int) == [30]  # 3*log2(1024)


class TestSweepSinusoid:
    def test_structure_and_determinism(self, tmp_path):
        args = ["sweep-sinusoid", "--n", "128", "--w", "0.25", "--r", "6",
                "--grid", "64", "--seed", "9"]
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(out_a)]) == 0
        assert main(args + ["--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        meta, columns, rows = read_csv(out_a)
        assert columns == ["f", "snr_subdft", "snr_dpss", "snr_roast",
                           "snr_roast_randomized"]
        assert len(rows) == 64
        assert meta["r_used"] == "6"

    def test_grid_is_mirrored(self, tmp_path, monkeypatch):
        # the odd part of linspace over [-1/2, 1/2]: f and -f are both nodes
        # bit for bit, so the ROAST kernel forms 1,024 of the 2,048 nodes
        formed = []
        ratio = roast.diagnostics._dirichlet_ratio

        def recorded(n, rows, f):
            formed.append((len(rows), len(f)))
            return ratio(n, rows, f)

        monkeypatch.setattr(roast.diagnostics, "_dirichlet_ratio", recorded)
        out = tmp_path / "sweep.csv"
        assert main(["sweep-sinusoid", "--n", "128", "--r", "4",
                     "--out", str(out)]) == 0
        _, columns, rows = read_csv(out)
        freqs = np.array(column(rows, columns, "f"))
        np.testing.assert_array_equal(freqs, -freqs[::-1])
        assert np.max(np.abs(freqs - np.linspace(-0.5, 0.5, 2048))) <= np.spacing(1.0)
        # the SubDftBasis (59 rows outside its 69 bins) takes all 2,048, the
        # two ROAST bases (63 out-of-band rows) 1,024 together
        assert sum(f for rows, f in formed if rows == 59) == 2048
        assert sum(f for rows, f in formed if rows == 63) == 1024

    def test_far_out_of_band_capture_is_negligible(self, tmp_path):
        out = tmp_path / "sweep.csv"
        main(["sweep-sinusoid", "--n", "256", "--w", "0.25", "--r", "10",
              "--grid", "101", "--out", str(out)])
        _, columns, rows = read_csv(out)
        freqs = column(rows, columns, "f")
        idx = int(np.argmin(np.abs(np.array(freqs) - 0.49)))
        for name in ("snr_subdft", "snr_dpss", "snr_roast",
                     "snr_roast_randomized"):
            assert column(rows, columns, name)[idx] <= 3.0

    def test_on_grid_dc_saturates_subdft(self, tmp_path):
        out = tmp_path / "sweep.csv"
        main(["sweep-sinusoid", "--n", "128", "--w", "0.25", "--r", "4",
              "--grid", "65", "--out", str(out)])
        _, columns, rows = read_csv(out)
        freqs = column(rows, columns, "f")
        idx = freqs.index(0.0)
        assert column(rows, columns, "snr_subdft")[idx] == 320.0

    @pytest.mark.parametrize("n,r,grid,held_bins", [(128, 4, 65, 35),
                                                    (1024, 27, 1025, 540)])
    def test_exact_captures_read_the_cap(self, tmp_path, n, r, grid, held_bins):
        # every grid point is a DFT bin; a sinusoid the basis holds leaves an
        # exactly zero residual, and the rest match the dense projection
        out = tmp_path / "sweep.csv"
        main(["sweep-sinusoid", "--n", str(n), "--w", "0.25", "--r", str(r),
              "--grid", str(grid), "--out", str(out)])
        _, columns, rows = read_csv(out)
        freqs = np.array(column(rows, columns, "f"))
        bins = np.rint(freqs * n).astype(int)
        np.testing.assert_array_equal(bins, freqs * n)
        half = n // 4
        held = (bins >= -(half + r // 2)) & (bins <= half + (r + 1) // 2)
        subdft = np.array(column(rows, columns, "snr_subdft"))
        assert held.sum() == held_bins
        assert np.all(subdft[held] == SNR_CSV_CAP)
        roast_snr = np.array(column(rows, columns, "snr_roast"))
        assert np.all(roast_snr[np.abs(bins) <= half] == SNR_CSV_CAP)

        basis = roast.build_subdft(n, 0.25, r)
        dense = sinusoid_residual_sq(basis.dense_basis(), n, freqs)
        finite = subdft < 200.0
        assert finite.any()
        np.testing.assert_allclose(subdft[finite],
                                   10 * np.log10(n / dense[finite]),
                                   rtol=0, atol=1e-3)

    def test_json_format(self, tmp_path):
        out = tmp_path / "sweep.json"
        main(["sweep-sinusoid", "--n", "128", "--r", "4", "--grid", "32",
              "--format", "json", "--out", str(out)])
        doc = json.loads(out.read_text())
        assert doc["columns"][0] == "f"
        assert len(doc["rows"]) == 32
        assert doc["meta"]["command"] == "sweep-sinusoid"


class TestBandlimitedSnr:
    def test_zero_extra_ties_and_monotonicity(self, tmp_path):
        out = tmp_path / "bl.csv"
        assert main(["bandlimited-snr", "--n", "256", "--w", "0.25",
                     "--tones", "500", "--r-max", "10", "--seed", "4",
                     "--out", str(out)]) == 0
        _, columns, rows = read_csv(out)
        assert column(rows, columns, "r", int) == list(range(11))
        sub = column(rows, columns, "snr_subdft")
        ro = column(rows, columns, "snr_roast")
        assert sub[0] == ro[0]  # R=0 collapses to the same band projector
        assert np.all(np.diff(ro) >= 0)

    def test_columns_are_residual_snrs(self, tmp_path):
        # every column is the SNR of the residual vector under its basis, so
        # past the 157-dB floor of total minus captured energy the curves
        # keep rising; ROAST at R holds the first R columns of the r_max build.
        # Each value, the CLI's and residual_snr's, is checked against an
        # extended-precision residual of the same float64 basis data, formed
        # with DFT columns accurate in np.longdouble.  On rho = ||r|| / ||x||
        # = 10**(-snr/20) the float64 paths may differ from it by their own
        # round-off, sqrt(n) eps: about eps ||x|| / sqrt(n) per residual
        # sample, added in quadrature over n samples and the few stages of
        # an FFT or a product (measured here: at most 0.1 eps).  At R=30 the
        # DPSS value, 261.6 dB, sits near the floor, so this is 0.5 dB there.
        n, w, r_max, seed = 512, 0.25, 30, 1234
        out = tmp_path / "bl.csv"
        assert main(["bandlimited-snr", "--n", str(n), "--r-max", str(r_max),
                     "--seed", str(seed), "--out", str(out)]) == 0
        meta, columns, rows = read_csv(out)
        x = roast.random_bandlimited(n, w, int(meta["tones"]), seed).samples
        split = roast.build_band_split(n, w)
        full = roast.build_roast(n, w, r_max)
        sketch = roast.basis._sketch(roast.build_prolate(n, w), split, r_max, seed)
        tol = np.sqrt(n) * np.finfo(float).eps

        def dft(indices):
            turns = ((np.arange(n)[:, None] * indices[None, :]) % n) / np.longdouble(n)
            return (np.exp(2j * np.pi * np.longdouble(1) * turns)
                    / np.sqrt(np.longdouble(n)))

        def exact_rho(basis):
            if isinstance(basis, roast.basis.SubDftBasis):
                q = dft(basis.indices)
            elif isinstance(basis, roast.prolate.DpssBasis):
                q = basis.vectors.astype(np.clongdouble)
            else:
                v = basis.v.astype(np.clongdouble)
                q = np.hstack([dft(split.low_indices), dft(split.high_indices) @ v])
            xl = x.astype(np.clongdouble)
            resid = xl - q @ (q.conj().T @ xl)
            return float(np.sqrt(np.sum(np.abs(resid) ** 2) / np.sum(np.abs(xl) ** 2)))

        for r in (0, 10, 19, 30):
            bases = {
                "snr_subdft": roast.build_subdft(n, w, r),
                "snr_dpss": roast.build_dpss(n, w, split.n_low + r),
                "snr_roast": roast.RoastBasis(split=split, q=full.q[:, :r],
                                              method="svd_fb"),
            }
            if r:
                bases["snr_roast_randomized"] = roast.basis._sketch_basis(
                    split, sketch[:, :r], seed)
            for name, basis in bases.items():
                want = exact_rho(basis)
                for got in (column(rows, columns, name)[r],
                            roast.residual_snr(basis, x)):
                    assert abs(10.0 ** (-got / 20.0) - want) <= tol, (name, r)
        roast_curve = column(rows, columns, "snr_roast")
        assert roast_curve[30] - roast_curve[19] > 30.0
        assert max(roast_curve) < SNR_CSV_CAP

    def test_one_sketch_at_r_max(self, tmp_path, monkeypatch):
        # every randomized basis is a column prefix of one sketch, and the
        # one at R = r_max is build_roast_randomized's bit for bit
        n, w, r_max, seed = 256, 0.25, 12, 5
        built = []

        def record(split, sketch, sketch_seed):
            built.append(roast.basis._sketch_basis(split, sketch, sketch_seed))
            return built[-1]

        monkeypatch.setattr(roast.cli, "_sketch_basis", record)
        assert main(["bandlimited-snr", "--n", str(n), "--r-max", str(r_max),
                     "--seed", str(seed), "--out", str(tmp_path / "bl.csv")]) == 0
        assert [b.r for b in built] == list(range(1, r_max + 1))
        want = roast.build_roast_randomized(n, w, r_max, seed)
        np.testing.assert_array_equal(built[-1].q, want.q)
        np.testing.assert_array_equal(built[-1].v, want.v)

    def test_determinism(self, tmp_path):
        args = ["bandlimited-snr", "--n", "128", "--tones", "200",
                "--r-max", "6", "--seed", "11"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(args + ["--out", str(a)])
        main(args + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestNoComplexV:
    """The two SNR commands read each ROAST basis through its stored
    factor q: expanding it into the complex V raises here."""

    def test_sweep_sinusoid(self, forbid_complex_v, tmp_path):
        assert main(["sweep-sinusoid", "--n", "128", "--r", "4", "--grid", "32",
                     "--out", str(tmp_path / "s.csv")]) == 0

    @pytest.mark.parametrize("method", _ROAST_METHODS)
    def test_bandlimited_snr(self, method, forbid_complex_v, tmp_path):
        assert main(["bandlimited-snr", "--n", "128", "--tones", "200",
                     "--r-max", "6", "--method", method,
                     "--out", str(tmp_path / "b.csv")]) == 0


class TestScalingBench:
    def test_small_run(self, tmp_path, caches):
        out = tmp_path / "bench.csv"
        assert main(["scaling-bench", "--n-list", "256,512", "--tones", "100",
                     "--out", str(out)]) == 0
        meta, columns, rows = read_csv(out)
        assert columns == ["n", "r", "method", "precompute_seconds",
                           "apply_seconds", "fft_seconds", "snr"]
        methods = column(rows, columns, "method", str)
        assert set(methods) == {"subdft", "dpss", "roast", "roast_r"}
        assert all(v > 0 for v in column(rows, columns, "apply_seconds"))
        # one FFT timing per N, shared by that N's rows
        ns, fft = column(rows, columns, "n", int), column(rows, columns, "fft_seconds")
        assert all(t > 0 and t == fft[ns.index(n)] for n, t in zip(ns, fft))
        assert all(v >= 0 for v in column(rows, columns, "precompute_seconds"))
        w, seed = float(meta["w"]), int(meta["seed"])
        tones = int(meta["tones"])
        snr = column(rows, columns, "snr")
        by_key = {(int(row[0]), methods[i]): (int(row[1]), snr[i])
                  for i, row in enumerate(rows)}
        for n in (256, 512):
            r, roast_snr = by_key[(n, "roast")]
            r_dpss, dpss_snr = by_key[(n, "dpss")]
            assert r_dpss == r
            k = roast.build_band_split(n, w).n_low + r
            fast = roast.build_roast(n, w, r)

            # the snr column is one draw: --tones tones at signal seed seed + n
            signal = roast.random_bandlimited(n, w, tones, seed + n).samples
            for got, basis in ((roast_snr, fast),
                               (dpss_snr, roast.build_dpss(n, w, k))):
                want = min(roast.residual_snr(basis, signal), SNR_CSV_CAP)
                assert got == pytest.approx(want, rel=1e-9)

            # The fast basis tracks the Slepian basis: on the band-averaged
            # residual it is no better than DPSS of the same dimension (Ky Fan:
            # DPSS is optimal among all subspaces of dimension K) and loses
            # less than one Slepian vector.  The paper promises capture of the
            # leading DPSS vectors and a bound on the mean squared error, not
            # parity with DPSS at equal dimension: at N=256 the band-averaged
            # SNRs, 10 log10(trace(B) / residual), of DPSS(K), svd_fb and
            # DPSS(K-1) are 153.1, 148.7 and 143.9 dB.  One draw of 100
            # tones is dominated by the tone nearest +-W: over signal seeds
            # 0-60 the rows' ROAST minus DPSS snr spans -13.5 to +6.8 dB, so
            # the two rows are not compared with each other.  The trace path
            # sits at round-off here, hence the quadrature.
            op = caches.op(n, w)
            resid_equal, resid_fast, resid_fewer = (
                integrated_residual_quadrature(op, q)
                for q in (caches.dpss(n, w, k), fast,
                          caches.dpss(n, w, k - 1)))
            assert resid_equal <= resid_fast <= resid_fewer

    def test_roast_row_past_the_dpss_limit(self, tmp_path):
        out = tmp_path / "bench.csv"
        assert main(["scaling-bench", "--n-list", "256,8192", "--tones", "100",
                     "--out", str(out)]) == 0
        meta, columns, rows = read_csv(out)
        methods = column(rows, columns, "method", str)
        lengths = column(rows, columns, "n", int)
        at_8192 = {m: i for i, m in enumerate(methods) if lengths[i] == 8192}
        assert set(at_8192) == {"subdft", "roast", "roast_r"}
        w, seed = float(meta["w"]), int(meta["seed"])
        r = int(rows[at_8192["roast"]][columns.index("r")])
        signal = roast.random_bandlimited(8192, w, 100, seed + 8192).samples
        want = min(roast.residual_snr(roast.build_roast(8192, w, r), signal),
                   SNR_CSV_CAP)
        got = column(rows, columns, "snr")[at_8192["roast"]]
        assert got == pytest.approx(want, rel=1e-9)


class TestRecoverCommand:
    def test_row_emitted(self, tmp_path):
        out = tmp_path / "rec.csv"
        assert main(["recover", "--n", "128", "--w", "0.25", "--m", "96",
                     "--r", "6", "--seed", "3", "--out", str(out)]) == 0
        _, columns, rows = read_csv(out)
        assert columns[:4] == ["basis", "n", "w", "m"]
        assert column(rows, columns, "relative_error")[0] <= 1e-2
        assert column(rows, columns, "converged", str)[0] == "true"

    def test_same_bytes_from_two_runs(self, tmp_path):
        args = ["recover", "--n", "128", "--w", "0.25", "--m", "96", "--r", "6",
                "--seed", "3", "--basis", "roast_randomized"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        # the estimate is a Ritz ratio, so at most the dense condition number
        _, columns, rows = read_csv(a)
        got = column(rows, columns, "condition_estimate")[0]
        q = roast.BASES["roast_randomized"](128, 0.25, 6, 3).dense_basis()
        phi = roast.build_recovery_problem(128, 0.25, 96, 3).phi
        s = np.linalg.svd(phi @ q, compute_uv=False)
        assert 0.9 <= got / (s[0] / s[-1]) ** 2 <= 1.0

    def test_requires_m(self, capsys):
        assert main(["recover", "--n", "128"]) == 2
        assert "requires --m" in capsys.readouterr().err


class TestChoices:
    """Fixed choices come from the library's own tables, checked by argparse."""

    @staticmethod
    def subcommands():
        parser = _build_parser()
        action = next(a for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction))
        return action.choices

    @staticmethod
    def option(subparser, dest):
        return next(a for a in subparser._actions if a.dest == dest)

    def test_basis_choices_are_the_registry(self):
        recover = self.subcommands()["recover"]
        assert list(self.option(recover, "basis_choice").choices) == sorted(roast.BASES)

    def test_method_choices_are_the_reader_methods(self):
        # build also writes sketches; the experiments call build_roast
        subcommands = self.subcommands()
        assert tuple(self.option(subcommands["build"], "method").choices) == _METHODS
        for name in ("sweep-sinusoid", "bandlimited-snr"):
            got = self.option(subcommands[name], "method").choices
            assert tuple(got) == _ROAST_METHODS
        others = set(subcommands) - {"build", "sweep-sinusoid", "bandlimited-snr"}
        for name in others:
            assert all(a.dest != "method" for a in subcommands[name]._actions)

    def test_each_subcommand_takes_only_its_flags(self):
        want = {
            "build": {"n", "w", "r", "method", "seed", "out"},
            "verify": {"n", "w", "eps", "seeds", "single-point", "out"},
            "sweep-sinusoid": {"n", "w", "r", "method", "seed", "log-base",
                               "grid", "format", "out"},
            "bandlimited-snr": {"n", "w", "r-max", "method", "seed", "tones",
                                "format", "out"},
            "scaling-bench": {"n-list", "w", "seed", "tones", "log-base",
                              "format", "out"},
            "rank-report": {"n-list", "log-base", "delta", "format", "out"},
            "recover": {"n", "w", "r", "m", "basis", "seed", "tol", "log-base",
                        "format", "out"},
        }
        got = {name: {opt[2:] for a in sub._actions for opt in a.option_strings
                      if opt != "--help" and opt != "-h"}
               for name, sub in self.subcommands().items()}
        assert got == want
        assert sum(len(flags) for flags in got.values()) == 51

    @pytest.mark.parametrize("args", [
        ["rank-report", "--w", "0.25"],
        ["sweep-sinusoid", "--method", "randomized"],
        ["verify", "--format", "csv"],
    ])
    def test_flags_a_subcommand_does_not_read_are_refused(self, args, capsys):
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == 2

    def test_unknown_basis_stopped_by_the_parser(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["recover", "--n", "128", "--m", "96", "--basis", "fourier"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


class TestVerifyCommand:
    # odd N at floor(NW) = (N - 1) / 2 leaves no out-of-band space
    @pytest.mark.parametrize("n, w, eps", [("64", "0.25", "1e-3"),
                                           ("5", "0.49", "0.1"),
                                           ("3", "0.45", "0.1"),
                                           ("17", "0.49", "0.1")])
    def test_single_point_passes(self, n, w, eps, tmp_path):
        out = tmp_path / "ledger.json"
        code = main(["verify", "--single-point", "--n", n, "--w", w,
                     "--eps", eps, "--out", str(out)])
        assert code == 0
        ledger = BoundLedger.from_json(out.read_text())
        assert ledger.all_satisfied
        assert len(ledger.entries) >= 10

    def test_single_point_solves_the_dpss_once(self, tmp_path, patch_everywhere):
        calls = []
        original = roast.prolate.build_dpss

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        patch_everywhere(original, counted)
        assert main(["verify", "--single-point", "--n", "64", "--w", "0.25",
                     "--out", str(tmp_path / "ledger.json")]) == 0
        assert calls == [(64, 0.25, 64)]

    def test_undersized_rank_reported_not_crashed(self, tmp_path,
                                                  patch_everywhere):
        patch_everywhere(roast.verify.rank_for_capture, lambda n, eps: 1)
        out = tmp_path / "ledger.json"
        code = main(["verify", "--single-point", "--n", "64", "--w", "0.25",
                     "--eps", "1e-3", "--out", str(out)])
        assert code == 1
        ledger = BoundLedger.from_json(out.read_text())
        assert not ledger.all_satisfied
        bad = [e for e in ledger.entries if not e.satisfied]
        assert any("capture" in e.check_id for e in bad)

    def test_same_bytes_from_two_runs(self, tmp_path):
        args = ["verify", "--single-point", "--n", "64", "--w", "0.25"]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_meta_stamps_only_verify_flags(self, tmp_path):
        out = tmp_path / "ledger.json"
        main(["verify", "--single-point", "--n", "64", "--out", str(out)])
        meta = json.loads(out.read_text())["meta"]
        assert set(meta) == {"command", "version", "n", "w", "eps", "num_seeds",
                             "single_point"}
        assert meta["eps"] == "0.001" and meta["single_point"] == "true"

    def test_ledger_json_round_trip(self, tmp_path):
        out = tmp_path / "ledger.json"
        main(["verify", "--single-point", "--n", "64", "--w", "0.25",
              "--out", str(out)])
        text = out.read_text()
        ledger = BoundLedger.from_json(text)
        rebuilt = json.loads(ledger.to_json(**json.loads(text)["meta"]))
        assert rebuilt["entries"] == json.loads(text)["entries"]


class TestBuildCommand:
    def test_build_and_reload(self, tmp_path):
        out = tmp_path / "basis.roast"
        assert main(["build", "--n", "128", "--w", "0.25", "--r", "5",
                     "--out", str(out)]) == 0
        restored = roast.deserialize_basis(out.read_bytes())
        expected = roast.build_roast(128, 0.25, 5)
        assert np.array_equal(restored.v, expected.v)

    def test_build_randomized(self, tmp_path):
        out = tmp_path / "basis.roast"
        assert main(["build", "--n", "128", "--w", "0.25", "--method",
                     "randomized", "--r", "5", "--seed", "21",
                     "--out", str(out)]) == 0
        restored = roast.deserialize_basis(out.read_bytes())
        assert restored.seed == 21 and restored.r == 5

    def test_missing_out_rejected(self, capsys):
        assert main(["build", "--n", "128", "--r", "5"]) == 2


class TestValidation:
    @pytest.mark.parametrize("args", [
        ["sweep-sinusoid", "--w", "0.7"],
        ["sweep-sinusoid", "--n", "1"],
        ["bandlimited-snr", "--tones", "0"],
        ["rank-report", "--delta", "2.0"],
        ["verify", "--eps", "0.9"],
        # a negative --seed reaches default_rng, which refuses it
        ["build", "--n", "64", "--method", "randomized", "--r", "5",
         "--seed", "-1", "--out", "unused.bin"],
        ["recover", "--n", "64", "--m", "40", "--seed", "-1"],
        ["sweep-sinusoid", "--n", "64", "--r", "4", "--seed", "-1"],
        ["bandlimited-snr", "--n", "64", "--r-max", "4", "--seed", "-1"],
        ["scaling-bench", "--n-list", "64", "--seed", "-1"],
    ])
    def test_bad_parameters_exit_2(self, args):
        assert main(args) == 2

    @pytest.mark.parametrize("args,message", [
        # n_high = 31 at --n 64 --w 0.25, and --m must lie in [32, 64]
        (["sweep-sinusoid", "--n", "64", "--r", "100"], "--r = 100 exceeds the 31"),
        (["bandlimited-snr", "--n", "64", "--r-max", "200"],
         "--r-max = 200 exceeds the 31"),
        (["recover", "--n", "64", "--m", "0"], r"--m must lie in \[32, 64\]"),
        (["recover", "--n", "64", "--m", "1000"], r"--m must lie in \[32, 64\]"),
        (["recover", "--n", "64", "--r", "100", "--m", "40"],
         "--r = 100 exceeds the 31"),
        (["build", "--n", "64", "--r", "100", "--out", "unused.bin"],
         "--r = 100 exceeds the 31"),
        (["build", "--n", "64", "--method", "randomized", "--r", "100",
          "--out", "unused.bin"], "--r = 100 exceeds the 31"),
        (["recover", "--n", "64", "--r", "0", "--m", "40",
          "--basis", "roast_randomized"], "roast_randomized needs --r >= 1"),
        # n_high = 7 at --w 0.45: the derived floor(4 ln 64) = 16 and
        # floor(3 ln 64) = 12 do not fit
        (["sweep-sinusoid", "--n", "64", "--w", "0.45"],
         "the derived r = 16 exceeds the 7"),
        (["recover", "--n", "64", "--w", "0.45", "--m", "60"],
         "the derived r = 12 exceeds the 7"),
        (["scaling-bench", "--n-list", "1024,64", "--w", "0.45"],
         "the derived r = 12 exceeds the 7 out-of-band bins of N = 64"),
        (["build", "--n", "64", "--method", "randomized", "--r", "0",
          "--out", "unused.bin"], "randomized build needs a sketch width --r >= 1"),
        (["build", "--n", "64", "--method", "randomized", "--out", "unused.bin"],
         "randomized build requires --r"),
    ])
    def test_oversize_values_exit_2(self, args, message, capsys, tmp_path,
                                    monkeypatch, patch_everywhere):
        # each refusal comes before any basis is built or signal drawn
        def refuse(*args, **kwargs):
            raise AssertionError("work started before the refusal")

        for start in (roast.build_dpss, roast.build_roast,
                      roast.build_roast_randomized, roast.build_subdft,
                      roast.random_bandlimited):
            patch_everywhere(start, refuse)
        monkeypatch.chdir(tmp_path)
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert re.search(message, err)
        assert not (tmp_path / "unused.bin").exists()

    def test_dense_refusal_exits_2(self, capsys):
        # build_dpss refuses the full solve at N=65536 before allocating
        assert main(["verify", "--single-point", "--n", "65536"]) == 2
        err = capsys.readouterr().err
        assert re.match(r"error: build_dpss\(n=65536, k=65536\).*MiB limit", err)

    def test_eps_no_eigenvalue_reaches_exits_2(self, capsys, patch_everywhere):
        # every flag is in range, but at N=16, W=0.001 the largest Slepian
        # eigenvalue is about 2NW = 0.032: no vector to capture, refused
        # before any check runs or basis is built
        def refuse(*args, **kwargs):
            raise AssertionError("work started before the refusal")

        for start in (roast.verify.core_grid_checks, roast.build_roast):
            patch_everywhere(start, refuse)
        assert main(["verify", "--single-point", "--n", "16", "--w", "0.001",
                     "--eps", "0.4"]) == 2
        assert capsys.readouterr().err.startswith(
            "error: no eigenvalues reach eps=0.4")

    def test_sweep_refuses_the_dpss_before_any_other_build(
            self, capsys, patch_everywhere):
        def refuse(*args, **kwargs):
            raise AssertionError("a ROAST basis was built first")

        patch_everywhere(roast.basis.build_roast, refuse)
        assert main(["sweep-sinusoid", "--n", "65536"]) == 2
        assert capsys.readouterr().err.startswith("error: build_dpss(n=65536")

    def test_oversize_sensing_matrix_refused(self, monkeypatch, capsys):
        # 16 m N bytes of Phi and 1 MiB of draw buffer, 128 rows of 8 N
        # bytes, make 3 MiB at N=1024, m=128: above a 1 MiB limit
        monkeypatch.setattr(roast.prolate, "_MAX_DENSE_BYTES", 2**20)
        with pytest.raises(roast.DenseSizeError, match=r"m=128\) needs about 3 MiB"):
            roast.build_recovery_problem(1024, 0.05, 128, seed=0)
        assert main(["recover", "--n", "1024", "--w", "0.05", "--m", "128"]) == 2
        assert re.match(r"error: build_recovery_problem\(n=1024, m=128\)",
                        capsys.readouterr().err)

    @pytest.mark.parametrize("args", [
        ["sweep-sinusoid", "--n", "64", "--r", "31", "--grid", "16"],
        ["bandlimited-snr", "--n", "64", "--r-max", "31", "--tones", "50"],
        ["recover", "--n", "64", "--r", "31", "--m", "64"],
        ["build", "--n", "64", "--r", "31"],
        ["build", "--n", "64", "--method", "randomized", "--r", "31"],
    ])
    def test_widths_up_to_n_high_run(self, args, tmp_path):
        out = tmp_path / "out"
        assert main(args + ["--out", str(out)]) == 0
        assert out.stat().st_size > 0
