import json
import multiprocessing
import re
import resource
import struct
import time
import tracemalloc
import zlib
from functools import partial

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

import dense_oracles
import roast
from dense_oracles import build_fst_analog, prolate_dense
from roast import (
    BasisFormatError,
    RoastBasis,
    apply_analysis,
    apply_synthesis,
    build_band_split,
    build_prolate,
    build_roast,
    build_roast_randomized,
    build_subdft,
    deserialize_basis,
    dft_columns,
    integrated_residual,
    integrated_residual_quadrature,
    log_width_constant,
    rank_for_capture,
    serialize_basis,
)


def random_probe(n, rng):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def stream(header, payload=b"", version=None):
    """A basis stream of raw header bytes and payload, valid CRC, in the
    reader's format version unless ``version`` names another."""
    if version is None:
        version = roast.basis._FORMAT_VERSION
    body = (b"ROAST\x00" + struct.pack("<H", version)
            + struct.pack("<I", len(header)) + header + payload)
    return body + struct.pack("<I", zlib.crc32(body))


def with_header(blob, **fields):
    """Re-encode a basis stream with header fields changed and a valid CRC."""
    header_len = struct.unpack_from("<I", blob, 8)[0]
    header = json.loads(blob[12:12 + header_len])
    header.update(fields)
    return stream(json.dumps(header, sort_keys=True).encode(),
                  blob[12 + header_len:-4])


def decodes_or_rejects(data):
    """The reader's contract: a RoastBasis or BasisFormatError, nothing else."""
    try:
        basis = deserialize_basis(data)
    except BasisFormatError:
        return
    assert isinstance(basis, RoastBasis)


VALID_STREAM = serialize_basis(build_roast_randomized(64, 0.25, 3, seed=1))
FUZZ = settings(max_examples=300, deadline=None, derandomize=True, database=None)


class TestBuildRoast:
    def test_zero_extra_columns_equals_band_projector(self, rng):
        basis = build_roast(128, 0.25, 0)
        sub = build_subdft(128, 0.25, 0)
        x = random_probe(128, rng)
        np.testing.assert_allclose(basis.project(x), sub.project(x), atol=1e-12)
        assert basis.dimension == sub.dimension

    @pytest.mark.parametrize("method", ["svd_fb", "svd_fbf"])
    def test_orthonormality(self, method, rng):
        basis = build_roast(256, 0.25, 12, method)
        assert np.max(np.abs(basis.v.conj().T @ basis.v - np.eye(12))) <= 1e-10
        q = basis.dense_basis()
        gram = q.conj().T @ q
        assert np.max(np.abs(gram - np.eye(basis.dimension))) <= 1e-10

    def test_rejects_oversized_r(self):
        with pytest.raises(ValueError):
            build_roast(64, 0.25, 64)

    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError):
            build_roast(64, 0.25, 4, "qr")

    # (n, w, r, lead): the oracles fix the leading ``lead`` columns.  Past
    # the numerical rank, as at (512, 0.25, 91), the trailing singular
    # vectors span a round-off cluster that no two solvers pick alike, so
    # only the leading ones are compared.  The rest cover R = 1 and
    # R = n_high - 1 at n_high = 3 and 7, odd N, and W near 0.05 and 0.45.
    ORACLE_CASES = [(256, 0.25, 16, 16), (1024, 0.25, 20, 20), (2048, 0.25, 22, 22),
                    (32, 0.45, 1, 1), (32, 0.45, 2, 2), (40, 0.4, 6, 6),
                    (65, 0.25, 1, 1), (1025, 0.25, 20, 20),
                    (333, 0.05, 10, 10), (333, 0.45, 10, 10),
                    (1024, 0.05, 16, 16), (1024, 0.45, 16, 16),
                    (512, 0.25, 91, 16)]

    @pytest.mark.parametrize(
        "n, w, r, lead", ORACLE_CASES,
        ids=[f"{n}-{r}" if (w, lead) == (0.25, r) else f"{n}-{w}-{r}-{lead}"
             for n, w, r, lead in ORACLE_CASES])
    def test_lanczos_matches_dense_oracle(self, n, w, r, lead, caches):
        # svd_fb against the SVD of the dense cross operator, svd_fbf against
        # eigh of the dense compressed operator.  The svd_fbf eigenvalues
        # near index r sit at 1e-13, where the spans agree only to about
        # 1e-8 in cosine, so it is compared on the band-averaged residual.
        # B is real, so both oracles run on real matrices: the rows of
        # Fbar^* B in cosine/sine coordinates (sqrt(2) Re and sqrt(2) Im of
        # each positive bin, then the Nyquist row), a unitary image with
        # the same spectra, mapped here independently of the builder.
        op = caches.op(n, w)
        split = build_band_split(n, w)
        half = split.n_high // 2
        fb = build_roast(n, w, r, "svd_fb")
        fbf = build_roast(n, w, r, "svd_fbf")

        def real_rows(rows):
            pos = rows[half:]
            return np.concatenate([np.sqrt(2.0) * pos[:half].real,
                                   np.sqrt(2.0) * pos[:half].imag,
                                   pos[half:].real])

        def dft_rows(real):
            pos = (real[:half] + 1j * real[half:2 * half]) / np.sqrt(2.0)
            return np.concatenate([pos[::-1].conj(), pos, real[2 * half:]])

        # the leading oracle vectors lie in the span of fb's r columns
        cross = real_rows(caches.cross(n, w))
        u = np.linalg.svd(cross, full_matrices=False)[0][:, :lead]
        cosines = np.linalg.svd(dft_rows(u).conj().T @ fb.v, compute_uv=False)
        assert cosines.min() >= 1 - 1e-12

        # the real out-of-band basis E has E^T = real_rows(Fbar^*), so the
        # compressed operator in those coordinates is real_rows(C) E
        compressed = cross @ real_rows(dft_columns(n, split.high_indices).conj().T).T
        vecs = np.linalg.eigh((compressed + compressed.T) / 2.0)[1]
        top = vecs[:, ::-1][:, :lead]
        oracle = RoastBasis(split=split, method="svd_fbf", q=top)
        leading = RoastBasis(split=split, method="svd_fbf", q=fbf.q[:, :lead])

        def snr_db(b):
            return 10.0 * np.log10(op.trace() / integrated_residual_quadrature(op, b))

        assert abs(snr_db(leading) - snr_db(oracle)) <= 1e-3
        for b in (fb, fbf):
            assert np.max(np.abs(b.v.conj().T @ b.v - np.eye(r))) <= 1e-12

    @pytest.mark.parametrize("n, r, method", [(1024, 20, "svd_fb"),
                                              (2048, 22, "svd_fbf")])
    def test_lanczos_matvec_budget(self, n, r, method, monkeypatch):
        # the Krylov space is sized to R: ARPACK fills R + the oversampling
        # once and converges, where its default space of max(2R + 1, 20)
        # took 42 and 46 products here
        eigsh = roast.basis.spla.eigsh
        calls = []

        def counted(g, **kwargs):
            def matvec(a):
                calls.append(1)
                return g.matvec(a)
            return eigsh(roast.basis.spla.LinearOperator(
                g.shape, matvec=matvec, dtype=g.dtype), **kwargs)

        monkeypatch.setattr(roast.basis.spla, "eigsh", counted)
        basis = build_roast(n, 0.25, r, method)
        assert basis.r == r
        assert len(calls) <= r + roast.basis._KRYLOV_OVERSAMPLE + 3

    @pytest.mark.parametrize("n, r", [(256, 60), (512, 91), (512, 149),
                                      (512, 254), (512, 255)])
    def test_single_route_matches_dense_oracle(self, n, r, caches):
        # past n_high // 3, up to R = n_high (eigh on the formed operator):
        # svd_fb deflates the cross operator to sigma_{R+1} up to the
        # Lanczos floor, svd_fbf reaches the top-R eigenvalue sum of the
        # compressed operator
        split = build_band_split(n, 0.25)
        cross = caches.cross(n, 0.25)
        sigma = np.linalg.svd(cross, compute_uv=False)
        fb = build_roast(n, 0.25, r, "svd_fb")
        fbf = build_roast(n, 0.25, r, "svd_fbf")

        along = fb.v.conj().T @ cross
        deflated = cross - fb.v @ along
        tail = sigma[r] if r < split.n_high else 0.0
        assert np.linalg.norm(deflated, 2) <= tail + 1e-10 * sigma[0]
        # columns in singular-value order, largest first: the squared gains
        # are the eigenvalues of Fbar^* B^2 Fbar, accurate to round-off in it
        gains_sq = np.linalg.norm(along, axis=1) ** 2
        assert np.max(np.abs(gains_sq - sigma[:r] ** 2)) <= 1e-14 * sigma[0] ** 2

        compressed = cross @ dft_columns(n, split.high_indices)
        compressed = (compressed + compressed.conj().T) / 2.0
        top = np.linalg.eigvalsh(compressed)[::-1][:r]
        ritz = np.einsum("ij,ij->j", fbf.v.conj(), compressed @ fbf.v).real
        assert np.sum(top) - np.sum(ritz) <= 1e-12
        assert np.max(np.abs(ritz - top)) <= 1e-12
        for b in (fb, fbf):
            assert np.max(np.abs(b.v.conj().T @ b.v - np.eye(r))) <= 1e-12

    @pytest.mark.parametrize("method", ["svd_fb", "svd_fbf"])
    def test_build_never_forms_the_cross_operator(self, method, monkeypatch,
                                                  forbid_dense_columns):
        def refuse(*args, **kwargs):
            raise AssertionError("dense cross operator formed")

        monkeypatch.setattr(roast.basis, "cross_operator_dense", refuse)
        monkeypatch.setattr(np.linalg, "svd", refuse)
        for n, r in [(16384, 29), (512, 149), (512, 255)]:
            basis = build_roast(n, 0.25, r, method)
            assert basis.v.shape == (basis.split.n_high, r)
            assert np.max(np.abs(basis.v.conj().T @ basis.v - np.eye(r))) <= 1e-12

    @pytest.mark.parametrize("n", [1024, 1025])
    @pytest.mark.parametrize("method", ["svd_fb", "svd_fbf", "randomized"])
    def test_v_is_closed_under_conjugation(self, n, method):
        # V[-k] == conj V[k] bit for bit, the Nyquist row real, so the span
        # is that of a real factor and Q Q^* is real up to the round-off of
        # the dense DFT columns
        if method == "randomized":
            basis = build_roast_randomized(n, 0.25, 25, seed=3)
        else:
            basis = build_roast(n, 0.25, 20, method)
        half = basis.split.n_high // 2
        pos = basis.v[half:]
        assert np.array_equal(basis.v[:half], pos[:half][::-1].conj())
        assert not np.any(pos[half:].imag)
        assert np.max(np.abs(basis.q.T @ basis.q - np.eye(basis.r))) <= 1e-12
        if n == 1024:
            q = basis.dense_basis()
            assert np.max(np.abs((q @ q.conj().T).imag)) <= 1e-12

    @pytest.mark.parametrize("n", [1024, 1025])
    @pytest.mark.parametrize("method", ["svd_fb", "svd_fbf", "randomized"])
    def test_half_of_v_is_stored(self, n, method):
        # the basis stores the builder's real factor, formed here by the
        # builder's own steps, bit for bit in 8 n_high R bytes; it expands
        # to V by _dft_rows, and the stream holds it after the header
        w, r = 0.25, 25
        split = build_band_split(n, w)
        op = build_prolate(n, w)
        if method == "randomized":
            basis = build_roast_randomized(n, w, r, seed=3)
            q = sla.qr(roast.basis._sketch(op, split, r, 3), mode="economic",
                       pivoting=True)[0]
            roast.prolate._fix_signs(q)
            header = {"method": method, "n": n, "r": r, "seed": 3, "w": w}
        else:
            basis = build_roast(n, w, r, method)
            q = roast.basis._out_of_band_eigenvectors(
                op, split, r, 2 if method == "svd_fb" else 1)
            header = {"method": method, "n": n, "r": r, "w": w}
        assert basis.r == r
        assert basis.q.dtype == np.float64
        assert basis.q.nbytes == 8 * split.n_high * r
        np.testing.assert_array_equal(basis.q, q)
        np.testing.assert_array_equal(basis.v, roast.basis._dft_rows(q))
        blob = serialize_basis(basis)
        assert blob == stream(json.dumps(header, sort_keys=True).encode(),
                              np.asfortranarray(q).tobytes(order="F"))
        np.testing.assert_array_equal(deserialize_basis(blob).q, q)

    @pytest.mark.parametrize("n", [1024, 1025])
    @pytest.mark.parametrize("method, width", [
        ("svd_fb", 0), ("svd_fb", 4), ("svd_fb", None),
        ("svd_fbf", 0), ("svd_fbf", 4), ("svd_fbf", None),
        ("randomized", 1), ("randomized", 4), ("randomized", None),
    ])
    def test_stored_factor(self, n, method, width):
        # R (or the sketch width P) at 0 or 1, 4 and n_high (None): q is
        # compact, column-major and orthonormal, and V is its expansion bit
        # for bit: positive rows (cos + i sin) sqrt(1/2), the Nyquist row
        # q's, the negative rows the reversed conjugates
        split = build_band_split(n, 0.25)
        width = split.n_high if width is None else width
        if method == "randomized":
            basis = build_roast_randomized(n, 0.25, width, seed=2)
        else:
            basis = build_roast(n, 0.25, width, method)
        q, v, m = basis.q, basis.v, split.n_neg
        assert q.dtype == np.float64 and q.flags.f_contiguous
        assert q.nbytes == 8 * split.n_high * basis.r
        assert q.base is None or q.base.nbytes == q.nbytes
        assert np.max(np.abs(q.T @ q - np.eye(basis.r)), initial=0.0) <= 1e-12
        pos = v[m:2 * m]
        np.testing.assert_array_equal(pos.real, q[:m] * np.sqrt(0.5))
        np.testing.assert_array_equal(pos.imag, q[m:2 * m] * np.sqrt(0.5))
        np.testing.assert_array_equal(v[2 * m:].real, q[2 * m:])
        assert not np.any(v[2 * m:].imag)
        np.testing.assert_array_equal(v[:m], pos[::-1].conj())

    @pytest.mark.parametrize("method", ["svd_fb", "svd_fbf"])
    def test_same_bytes_from_two_builds(self, method):
        first = serialize_basis(build_roast(1024, 0.25, 20, method))
        assert serialize_basis(build_roast(1024, 0.25, 20, method)) == first


@pytest.fixture(scope="module")
def basis():
    return build_roast(512, 0.25, 19)


class TestApplyPaths:
    def test_analysis_matches_dense(self, basis, rng):
        q = basis.dense_basis()
        for _ in range(20):
            x = random_probe(512, rng)
            assert np.max(np.abs(apply_analysis(basis, x) - q.conj().T @ x)) <= 1e-10

    def test_analysis_of_dc(self, basis):
        coeffs = apply_analysis(basis, np.ones(512, dtype=complex))
        low = coeffs[:basis.split.n_low]
        dc_slot = np.flatnonzero(basis.split.low_indices == 0)[0]
        assert abs(low[dc_slot] - np.sqrt(512)) <= 1e-9
        rest = np.delete(low, dc_slot)
        assert np.max(np.abs(rest)) <= 1e-9

    def test_analysis_non_expansive(self, basis, rng):
        for _ in range(5):
            x = random_probe(512, rng)
            assert np.linalg.norm(apply_analysis(basis, x)) <= np.linalg.norm(x) * (1 + 1e-12)

    def test_synthesis_of_unit_coefficient(self, basis):
        k = 7
        coeffs = np.zeros(basis.dimension, dtype=complex)
        coeffs[k] = 1.0
        col = dft_columns(512, basis.split.low_indices[k:k + 1])[:, 0]
        np.testing.assert_allclose(apply_synthesis(basis, coeffs), col, atol=1e-12)

    def test_synthesis_isometry(self, basis, rng):
        c = rng.standard_normal(basis.dimension) + 1j * rng.standard_normal(basis.dimension)
        assert abs(np.linalg.norm(apply_synthesis(basis, c)) - np.linalg.norm(c)) <= 1e-10

    def test_round_trip_identity(self, basis, rng):
        c = rng.standard_normal(basis.dimension) + 1j * rng.standard_normal(basis.dimension)
        back = apply_analysis(basis, apply_synthesis(basis, c))
        assert np.max(np.abs(back - c)) <= 1e-10

    def test_project_fixes_band_signals(self, basis, rng):
        coeffs = rng.standard_normal(basis.split.n_low)
        x = dft_columns(512, basis.split.low_indices) @ coeffs.astype(complex)
        assert np.max(np.abs(basis.project(x) - x)) <= 1e-10

    def test_project_idempotent(self, basis, rng):
        x = random_probe(512, rng)
        once = basis.project(x)
        assert np.max(np.abs(basis.project(once) - once)) <= 1e-10

    def test_project_matches_dense(self, basis, rng):
        q = basis.dense_basis()
        x = random_probe(512, rng)
        assert np.max(np.abs(basis.project(x) - q @ (q.conj().T @ x))) <= 1e-10

    def test_length_mismatch(self, basis):
        with pytest.raises(ValueError):
            apply_analysis(basis, np.zeros(100))
        with pytest.raises(ValueError):
            apply_synthesis(basis, np.zeros(basis.dimension + 1))

    def test_leading_vector_capture(self, caches):
        n, w, eps = 512, 0.25, 1e-3
        basis = caches.roast(n, w, rank_for_capture(n, eps))
        s0 = caches.dpss(n, w).vectors[:, 0].astype(complex)
        assert np.linalg.norm(s0 - basis.project(s0)) ** 2 <= eps


def _row_major_half_basis():
    built = build_roast_randomized(301, 0.25, 7, seed=2)
    return RoastBasis(split=built.split, q=np.ascontiguousarray(built.q),
                      method=built.method, seed=built.seed)


# The apply paths read the spectrum and the stored factor q by slices;
# these cases cover both parities of N (a Nyquist bin or not), no negative
# out-of-band bins (N=64, W=0.49: the Nyquist bin is the only one), R = 0,
# a basis read back from its stream, whose q is a column-major view of the
# payload, and a q held row-major.
SLICE_CASES = {
    "even_n": lambda: build_roast(300, 0.25, 7),
    "odd_n": lambda: build_roast_randomized(301, 0.25, 7, seed=2),
    "nyquist_only": lambda: build_roast(64, 0.49, 1),
    "r_zero": lambda: build_roast(128, 0.25, 0),
    "fortran_v": lambda: deserialize_basis(serialize_basis(build_roast(300, 0.25, 7))),
    "row_major_half": _row_major_half_basis,
}


class TestSlicedApply:
    @pytest.fixture(params=sorted(SLICE_CASES))
    def case(self, request):
        basis = SLICE_CASES[request.param]()
        return basis, basis.dense_basis()

    def test_layout_cases_are_what_they_claim(self):
        assert build_band_split(64, 0.49).n_high == 1
        assert SLICE_CASES["r_zero"]().r == 0
        loaded = SLICE_CASES["fortran_v"]()
        assert loaded.v.flags.f_contiguous and loaded.q.flags.f_contiguous
        assert not SLICE_CASES["row_major_half"]().q.flags.f_contiguous
        assert max(b().split.n_high for b in SLICE_CASES.values()) \
            < roast.basis._ROW_CHUNK

    @pytest.mark.parametrize("n", [300, 301])
    def test_row_blocks_match_dense(self, n, rng, monkeypatch):
        # blocks of 16 rows split n_high = 149 or 150 into ten, the last
        # one short, as _ROW_CHUNK splits every n_high above 4,096
        monkeypatch.setattr(roast.basis, "_ROW_CHUNK", 16)
        basis = build_roast_randomized(n, 0.25, 9, seed=4)
        q = basis.dense_basis()
        for cols in [(), (3,)]:
            for real in (False, True):
                x = rng.standard_normal((n, *cols))
                c = rng.standard_normal((basis.dimension, *cols))
                if not real:
                    x = x + 1j * rng.standard_normal(x.shape)
                    c = c + 1j * rng.standard_normal(c.shape)
                assert np.max(np.abs(basis.analyze(x) - q.conj().T @ x)) <= 1e-12
                assert np.max(np.abs(basis.synthesize(c) - q @ c)) <= 1e-12
                assert np.max(np.abs(basis.project(x)
                                     - q @ (q.conj().T @ x))) <= 1e-12

    def test_above_one_row_block_matches_the_dft_of_v(self, rng):
        # n_high = 8,191 spans two row blocks; the reference takes V^* of
        # the out-of-band spectrum and V times the coefficients by complex
        # products on the expanded V, with no dense DFT columns
        n = 16384
        basis = build_roast_randomized(n, 0.25, 29, seed=5)
        split, v = basis.split, basis.v
        assert split.n_high > roast.basis._ROW_CHUNK
        x = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
        s = np.fft.fft(x, axis=0, norm="ortho")
        want = np.concatenate([s[split.low_indices],
                               v.conj().T @ s[split.high_indices]])
        for got, ref in ((basis.analyze(x), want),
                         (basis.analyze(x[:, 0]), want[:, 0])):
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
        spectrum = np.zeros((n, 2), dtype=complex)
        spectrum[split.low_indices] = want[:split.n_low]
        spectrum[split.high_indices] = v @ want[split.n_low:]
        y = np.fft.ifft(spectrum, axis=0, norm="ortho")
        for got, ref in ((basis.synthesize(want), y), (basis.project(x), y),
                         (basis.project(x[:, 1]), y[:, 1])):
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("cols", [(), (3,)])
    @pytest.mark.parametrize("real", [False, True])
    def test_matches_dense(self, case, cols, real, rng):
        basis, q = case
        x = rng.standard_normal((basis.n, *cols))
        c = rng.standard_normal((basis.dimension, *cols))
        if not real:
            x = x + 1j * rng.standard_normal(x.shape)
            c = c + 1j * rng.standard_normal(c.shape)
        assert np.max(np.abs(basis.analyze(x) - q.conj().T @ x)) <= 1e-12
        assert np.max(np.abs(basis.synthesize(c) - q @ c)) <= 1e-12
        assert np.max(np.abs(basis.project(x) - q @ (q.conj().T @ x))) <= 1e-12

    def test_synthesized_identity_is_the_scattered_spectrum(self, case):
        basis, _ = case
        split, n = basis.split, basis.n
        eye = np.eye(basis.dimension)
        spectrum = np.zeros((n, basis.dimension), dtype=complex)
        spectrum[split.low_indices] = eye[:split.n_low]
        spectrum[split.high_indices] = basis.v @ eye[split.n_low:]
        expected = np.fft.ifft(spectrum, axis=0, norm="ortho")
        np.testing.assert_array_equal(basis.synthesize(eye), expected)


LAYOUT_BASES = {
    "roast": lambda: build_roast_randomized(300, 0.25, 9, 1),
    "subdft": lambda: build_subdft(300, 0.25, 6),
}


class TestBlockLayouts:
    @pytest.mark.parametrize("name", sorted(LAYOUT_BASES))
    @pytest.mark.parametrize("real", [False, True])
    def test_every_layout_matches_column_calls(self, name, real, rng):
        # C-ordered, Fortran-ordered and strided blocks agree with each other
        # bit for bit and with one call per column to round-off
        basis = LAYOUT_BASES[name]()
        for method, rows in (("analyze", basis.n), ("synthesize", basis.dimension),
                             ("project", basis.n)):
            block = rng.standard_normal((rows, 5))
            if not real:
                block = block + 1j * rng.standard_normal(block.shape)
            wide = np.zeros((rows, 10), dtype=block.dtype)
            wide[:, ::2] = block
            apply = getattr(basis, method)
            first = apply(block)
            for x in (block, np.asfortranarray(block), wide[:, ::2]):
                got = apply(x)
                np.testing.assert_array_equal(got, first)
                want = np.column_stack([apply(x[:, j]) for j in range(5)])
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)

    def test_vector_analysis_is_one_fft_and_two_products(self, rng):
        # a single vector takes the direct FFT, then real products of q with
        # the folded spectrum, bit for bit the formula of
        # _high_coefficients's docstring: the bin pairs (k, -k) give
        # s_k + s_-k for the cosine rows and i (s_-k - s_k) for the sine
        # rows, their share scaled by sqrt(1/2), the Nyquist row's not
        basis = LAYOUT_BASES["roast"]()
        n, h, m = basis.n, basis.split.h, basis.split.n_neg
        x = random_probe(n, rng)
        s = np.fft.fft(x, norm="ortho")
        pos, neg = s[h + 1:h + 1 + m], s[n - h - 1:n // 2:-1]
        folded = np.concatenate([pos + neg, 1j * (neg - pos), s[h + 1 + m:n // 2 + 1]])
        y = np.column_stack([folded.real, folded.imag])
        q = basis.q
        z = (q[:2 * m].T @ y[:2 * m]) * np.sqrt(0.5) + q[2 * m:].T @ y[2 * m:]
        want = np.concatenate([s[n - h:], s[:h + 1], z[:, 0] + 1j * z[:, 1]])
        np.testing.assert_array_equal(basis.analyze(x), want)


class TestMonotonicityAndOptimality:
    def test_integrated_residual_monotone_in_r(self, caches):
        op = caches.op(256, 0.25)
        for method in ("svd_fb", "svd_fbf"):
            values = [integrated_residual(op, build_roast(256, 0.25, r, method))
                      for r in (0, 2, 5, 9, 14, 20)]
            diffs = np.diff(values)
            assert np.all(diffs <= 1e-10)

    def test_fbf_beats_subdft_at_equal_dimension(self, caches):
        op = caches.op(256, 0.25)
        r = 10
        fbf = integrated_residual(op, build_roast(256, 0.25, r, "svd_fbf"))
        sub = integrated_residual(op, build_subdft(256, 0.25, r))
        assert fbf < sub


class TestRandomized:
    def test_deterministic_in_seed(self):
        a = build_roast_randomized(256, 0.25, 10, seed=5)
        b = build_roast_randomized(256, 0.25, 10, seed=5)
        np.testing.assert_array_equal(a.v, b.v)
        c = build_roast_randomized(256, 0.25, 10, seed=6)
        assert np.any(a.v != c.v)

    def test_orthonormal_and_dimension(self, rng):
        basis = build_roast_randomized(256, 0.25, 10, seed=1)
        assert basis.r == 10
        q = basis.dense_basis()
        assert np.max(np.abs(q.conj().T @ q - np.eye(basis.dimension))) <= 1e-10

    def test_rank_deficient_sketch_truncates(self):
        # the cross operator's singular values hit the float64 floor well
        # before the full out-of-band width, so a full-width sketch cannot
        # keep every column
        split_width = 127  # n_high at n=256, w=0.25
        basis = build_roast_randomized(256, 0.25, split_width, seed=3)
        assert basis.r < split_width
        q = basis.dense_basis()
        assert np.max(np.abs(q.conj().T @ q - np.eye(basis.dimension))) <= 1e-10

    def test_sketch_width_validation(self):
        with pytest.raises(ValueError):
            build_roast_randomized(256, 0.25, 0, seed=1)
        with pytest.raises(ValueError):
            build_roast_randomized(256, 0.25, 128, seed=1)

    @pytest.mark.parametrize("n, w, p", [
        (8192, 0.25, 40),   # 2 column groups of at most 32, 21 draw blocks
        (65536, 0.25, 9),   # 3 groups of at most 4, 37 draw blocks
        (8193, 0.1, 17),    # odd N, no Nyquist row
        (8193, 0.1, 1),
        (1024, 0.25, 0),
        (5, 0.49, 0),       # no out-of-band row either
    ])
    def test_sketch_is_the_one_shot_draw(self, n, w, p):
        # Omega drawn column-major in row blocks and pushed through B in
        # column groups gives the rows of one N x P draw pushed through whole
        op, split = build_prolate(n, w), build_band_split(n, w)
        omega = np.random.default_rng(11).standard_normal((n, p))
        one_shot = roast.basis._slepian_rows(roast.prolate_apply(op, omega), split)
        sketch = roast.basis._sketch(op, split, p, 11)
        assert sketch.flags.f_contiguous
        assert np.array_equal(sketch, one_shot)

    def test_build_peak_within_four_and_a_half_q(self):
        # Omega's 8 N P bytes, the sketch's 8 n_high P and one column group's
        # apply: 4.3 times q's bytes at N = 65536
        n, w, p = 65536, 0.25, 33
        tracemalloc.start()
        try:
            basis = build_roast_randomized(n, w, p, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert basis.r == p
        assert peak <= 4.5 * basis.q.nbytes

    def test_close_to_deterministic_on_bandlimited_signal(self, caches):
        # measured desk-scale behavior: with no oversampling the sketch
        # trails the exact singular subspace once residuals sit above the
        # float64 floor; both still capture the signal almost entirely
        n, w, r = 1024, 0.25, 27
        x = roast.random_bandlimited(n, w, 10000, seed=99).samples
        det = caches.roast(n, w, r)
        det_snr = roast.residual_snr(det, x)
        for seed in (0, 1, 2):
            rand = build_roast_randomized(n, w, r, seed)
            rand_snr = roast.residual_snr(rand, x)
            assert rand_snr >= 120.0
            assert min(det_snr, 150.0) - min(rand_snr, 150.0) <= 3.0


class TestSubDft:
    def test_zero_extra_equals_band(self):
        sub = build_subdft(128, 0.25, 0)
        split = roast.build_band_split(128, 0.25)
        np.testing.assert_array_equal(np.sort(sub.indices),
                                      np.sort(split.low_indices))

    def test_column_count(self):
        assert build_subdft(1024, 0.25, 27).dimension == 540

    def test_odd_extra_prefers_positive_side(self):
        sub = build_subdft(64, 0.25, 3)
        signed = np.where(sub.indices <= 32, sub.indices, sub.indices - 64)
        assert signed.max() == 18   # floor(64*0.25) = 16, +2 on the right
        assert signed.min() == -17  # +1 on the left

    def test_on_grid_sinusoid_captured(self):
        sub = build_subdft(1024, 0.25, 27)
        x = np.exp(2j * np.pi * (100.0 / 1024.0) * np.arange(1024))
        assert np.linalg.norm(x - sub.project(x)) <= 1e-12 * np.linalg.norm(x)

    def test_band_overflow(self):
        with pytest.raises(ValueError):
            build_subdft(64, 0.4, 30)


class TestFstAnalog:
    @staticmethod
    def _apply(pair, x):
        t1, t2 = pair
        return t1 @ (t2.conj().T @ x)

    def test_rank_zero_is_band_projector(self, rng):
        pair = build_fst_analog(128, 0.25, 0)
        sub = build_subdft(128, 0.25, 0)
        x = random_probe(128, rng)
        np.testing.assert_allclose(self._apply(pair, x), sub.project(x),
                                   atol=1e-12)

    def test_hermitian_on_probes(self, rng):
        pair = build_fst_analog(128, 0.25, 9)
        for _ in range(5):
            x = random_probe(128, rng)
            y = random_probe(128, rng)
            lhs = np.vdot(y, self._apply(pair, x))
            rhs = np.vdot(self._apply(pair, y), x)
            assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1.0)

    def test_spectral_error_bound(self):
        n, w, eps = 512, 0.25, 1e-2
        r = int(np.ceil(log_width_constant(n) * np.log(15.0 / eps)))
        pair = build_fst_analog(n, w, r)
        dense_op = prolate_dense(build_prolate(n, w))
        approx = self._apply(pair, np.eye(n, dtype=complex))
        err = np.linalg.norm(dense_op - approx, 2)
        assert err <= eps

    def test_negative_rank_rejected(self):
        with pytest.raises(ValueError):
            build_fst_analog(64, 0.25, -1)


def _empty_roast_basis(n, w):
    split = build_band_split(n, w)
    return RoastBasis(split=split, q=np.zeros((split.n_high, 0)),
                      method="svd_fb")


class TestDenseBasis:
    @pytest.mark.parametrize("n", [64, 65, 1024, 1025])
    @pytest.mark.parametrize("block_rows", [None, 3])
    def test_row_blocks_match_the_one_shot_columns(self, n, block_rows,
                                                   monkeypatch):
        # against the N x K evaluation in one piece: at N = 1025 the 512
        # out-of-band columns go in 64-row blocks and the one row left over
        # joins the block before it; a budget of three rows of out-of-band
        # entries leaves blocks of two to four rows
        w = 0.25
        basis = build_roast_randomized(n, w, 20, 7)
        split = basis.split
        if block_rows is not None:
            monkeypatch.setattr(roast.basis, "_DFT_BLOCK_BYTES",
                                32 * split.n_high * block_rows)

        def one_shot(k):
            m = np.arange(n)[:, None]
            return np.exp(2j * np.pi * m * k[None, :] / n) / np.sqrt(n)

        f_low, f_high = one_shot(split.low_indices), one_shot(split.high_indices)
        assert np.array_equal(dft_columns(n, split.high_indices), f_high)
        assert np.array_equal(basis.dense_basis(),
                              np.hstack([f_low, f_high @ basis.v]))


class TestCrossOperator:
    @pytest.mark.parametrize("n,w", [(64, 0.25), (65, 0.25), (256, 0.1),
                                     (129, 0.4)])
    def test_matches_the_dense_definition(self, n, w):
        # Fbar^* B from the DFT columns and the dense prolate matrix, even
        # and odd N, with and without a Nyquist row
        op, split = build_prolate(n, w), build_band_split(n, w)
        want = dft_columns(n, split.high_indices).conj().T @ prolate_dense(op)
        got = roast.cross_operator_dense(op, split)
        assert got.shape == want.shape and got.dtype == np.complex128
        assert np.max(np.abs(got - want)) <= 1e-13
        rows = roast.basis._cross_rows(op, split)
        assert rows.dtype == np.float64
        # q's layout: sqrt(2) Re and sqrt(2) Im of the positive bins, then
        # the Nyquist row's real part
        m = split.n_neg
        pos = want[m:]
        layout = np.vstack([np.sqrt(2) * pos[:m].real, np.sqrt(2) * pos[:m].imag,
                            pos[m:].real])
        np.testing.assert_allclose(rows, layout, rtol=0, atol=1e-13)

    def test_rows_peak_at_the_rows_plus_four_blocks(self):
        # four blocks of N-point spectra and rows beside the rows, each of at
        # most n_high / 4 columns, fit in the 16 n_high N bytes the guard
        # charges; at W = 0.45, n_high = 103 and 512-column blocks would not
        n = 1024
        for w in (0.1, 0.45):
            op, split = build_prolate(n, w), build_band_split(n, w)
            tracemalloc.start()
            try:
                roast.basis._cross_rows(op, split)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 8 * split.n_high * n + 32 * (split.n_high // 4) * n
            assert peak <= 16 * split.n_high * n


def _orthonormal_columns(n, k):
    rng = np.random.default_rng(k)
    return np.linalg.qr(rng.standard_normal((n, k))
                        + 1j * rng.standard_normal((n, k)))[0]


# (1025, 0.25) has n_low = 513 and n_high = 512; each case's charge is
# the estimate its guard passes to _check_dense_bytes first
_GUARDED_PATHS = [
    ("dense_basis",  # the output, V and the 1 MiB row block
     lambda n, w: build_roast_randomized(n, w, 20, 7).dense_basis,
     16 * (1025 * 533 + 512 * 20) + 2**20),
    ("dft_columns",
     lambda n, w: partial(dft_columns, n, build_band_split(n, w).high_indices),
     16 * 1025 * 512 + 2**20),
    ("build_recovery_problem",  # Phi and a 127-row real draw buffer
     lambda n, w: partial(roast.build_recovery_problem, n, w, 768, 7),
     16 * 768 * 1025 + 8 * 127 * 1025),
    ("_cross_rows",  # the rows and a caller's copy, whose bytes the rfft
     # blocks take while the rows are formed
     lambda n, w: partial(roast.basis._cross_rows, build_prolate(n, w),
                          build_band_split(n, w)),
     16 * 512 * 1025),
    ("cross_operator_dense",  # the real rows and their complex expansion
     lambda n, w: partial(roast.cross_operator_dense, build_prolate(n, w),
                          build_band_split(n, w)),
     24 * 512 * 1025),
    ("build_dpss", lambda n, w: partial(roast.build_dpss, n, w, 700),
     8 * (1025 * 700 + 2 * 513**2)),
    ("build_fst_analog", lambda n, w: partial(build_fst_analog, n, w, 20),
     32 * 1025**2),
    ("largest_angle_cos_direct",
     lambda n, w: partial(roast.diagnostics.largest_angle_cos_direct,
                          *(_orthonormal_columns(n, k) for k in (30, 40))),
     16 * 1025 * (1025 + 40)),
    ("prolate_dense", lambda n, w: partial(prolate_dense, build_prolate(n, w)),
     8 * 1025**2),
    # G applied to the identity at R = n_high: the identity, two N x n_high
    # arrays, and one 4 MiB column group's copy, spectrum and inverse; the
    # route's rows and eigh stages are smaller at this size
    ("build_roast", lambda n, w: partial(build_roast, n, w, 512),
     8 * 512 * (512 + 2 * 1025) + 3 * 2**22),
    # the 533 synthesized columns beside their prolate matvec and its
    # three 4 MiB column groups: above the conjugate product's 48 N d
    # plus 384 KiB at this size
    ("integrated_residual",
     lambda n, w: partial(integrated_residual, build_prolate(n, w),
                          build_roast_randomized(n, w, 20, 7)),
     32 * 1025 * 533 + 3 * 2**22),
]


# every call would need gigabytes; each must refuse before allocating
_REFUSED = [
    ("cross_operator_dense",  # 24 n_high N = 5.2 GB
     lambda: roast.cross_operator_dense(build_prolate(16384, 0.1),
                                        build_band_split(16384, 0.1))),
    ("_cross_rows",  # 16 n_high N = 3.4 GB
     lambda: roast.singular_decay_report(16384, 0.1)),
    ("dense_basis",  # 16 N dimension = 2,147,745,792 B, plus the
     # 1 MiB row block: just above the 2,147,483,648 B limit
     lambda: _empty_roast_basis(16384, 0.25).dense_basis()),
    ("largest_angle_cos_direct",  # 16 N (N + 2) = 4.3 GB
     lambda: roast.diagnostics.largest_angle_cos_direct(
         np.eye(16384, 1), np.eye(16384, 2))),
    ("build_fst_analog",  # 32 N^2 = 8.6 GB
     lambda: build_fst_analog(16384, 0.25, 4)),
    ("dft_columns",  # 16 N K = 4.3 GB
     lambda: dft_columns(16384, np.arange(16384))),
    ("prolate_dense",  # 8 N^2 = 2,147,745,800 B, just above the limit
     lambda: prolate_dense(build_prolate(16385, 0.25))),
    ("build_roast",  # 8 n_high (2 n_high + 2 N + 2) = 3.2 GB at R = n_high
     lambda: build_roast(16384, 0.25, 8191)),
    ("integrated_residual",  # 48 N dimension = 6.4 GB
     lambda: integrated_residual(build_prolate(16384, 0.25),
                                 _empty_roast_basis(16384, 0.25))),
]

# Address space the child of ``refusals`` may add to its own: room for the
# refusals and their small inputs, far below the 537 MB or more that the
# first large allocation of any case takes without its guard.  8 MiB was
# enough on a 2-core host.  Every case refuses before any BLAS call, so the
# child starts no thread and the room needed does not grow with core count.
_REFUSAL_HEADROOM = 2**27


def _refuse_under_cap(conn):
    """Run every case of ``_REFUSED`` with the address space capped, and send
    back each case's outcome by name: "refused", or what happened instead."""
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    with open("/proc/self/statm") as fh:
        mapped = int(fh.read().split()[0]) * resource.getpagesize()
    cap = mapped + _REFUSAL_HEADROOM
    resource.setrlimit(resource.RLIMIT_AS,
                       (cap if hard == resource.RLIM_INFINITY else min(cap, hard),
                        hard))
    outcomes = {}
    for name, call in _REFUSED:
        tracemalloc.start()
        try:
            call()
            outcomes[name] = "returned without refusing"
        except ValueError as exc:
            peak = tracemalloc.get_traced_memory()[1]
            if not re.search(f"{name}.*MiB, above the", str(exc)):
                outcomes[name] = f"wrong refusal: {exc}"
            else:
                outcomes[name] = "refused" if peak < 2**24 else f"peak {peak} B"
        except Exception as exc:  # MemoryError once a guard is missing
            outcomes[name] = f"raised {exc!r} under the cap"
        finally:
            tracemalloc.stop()
    conn.send(outcomes)


@pytest.fixture(scope="module")
def refusals():
    """Outcomes of ``_REFUSED``, run in one forked child whose address space
    is capped, so that a missing guard fails in seconds with MemoryError
    instead of allocating gigabytes."""
    ctx = multiprocessing.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_refuse_under_cap, args=(send,))
    child.start()
    send.close()
    try:
        outcomes = recv.recv() if recv.poll(120) else {}
    except EOFError:
        outcomes = {}
    child.join(10)
    if child.is_alive():
        child.kill()
        child.join()
    return outcomes or {"exitcode": child.exitcode}


def _recorded_charges(monkeypatch, *modules):
    """The list to which each module's ``_check_dense_bytes`` appends the
    charge it checks."""
    charges = []
    check = roast.prolate._check_dense_bytes

    def record(what, estimate):
        charges.append(estimate)
        check(what, estimate)

    for module in modules:
        monkeypatch.setattr(module, "_check_dense_bytes", record)
    return charges


class TestDenseByteGuards:
    @pytest.mark.parametrize("name,call", _REFUSED)
    def test_refused_before_allocating(self, name, call, refusals):
        # refusals ran call in the capped child
        assert refusals.get(name) == "refused", refusals

    def test_refusal_names_the_refusing_function(self):
        # singular_decay_report forms the real rows, never the complex
        # cross operator, so its refusal must not name the latter
        with pytest.raises(ValueError, match=r"^_cross_rows\(n=20000") as info:
            roast.singular_decay_report(20000, 0.25)
        assert "cross_operator_dense" not in str(info.value)

    def test_cross_operator_dense_charges_its_peak(self):
        # 24 n_high N: at N=14000 the real rows' 16 n_high N (1.57 GB) fit
        # the limit, the 2.35 GB peak of the complex expansion does not
        n, w = 14000, 0.25
        split = roast.build_band_split(n, w)
        assert 16 * split.n_high * n <= roast.prolate._MAX_DENSE_BYTES
        with pytest.raises(ValueError, match="cross_operator_dense.*MiB, above the"):
            roast.cross_operator_dense(roast.build_prolate(n, w), split)

    def test_cross_operator_dense_peak_is_what_it_charges(self):
        n, w = 1024, 0.1
        op, split = roast.build_prolate(n, w), roast.build_band_split(n, w)
        tracemalloc.start()
        try:
            roast.cross_operator_dense(op, split)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 24 * split.n_high * n + 2**21

    def test_every_guard_reads_the_one_limit(self, monkeypatch):
        # 256 KiB refuses each of these small calls; 2**31 lets them all run
        calls = [lambda: roast.build_dpss(256, 0.25, 256),
                 lambda: roast.singular_decay_report(256, 0.25),
                 lambda: _empty_roast_basis(256, 0.25).dense_basis(),
                 lambda: roast.diagnostics.largest_angle_cos_direct(
                     np.eye(256, 1), np.eye(256, 2)),
                 lambda: build_fst_analog(256, 0.25, 4),
                 lambda: dft_columns(256, np.arange(256)),
                 lambda: prolate_dense(build_prolate(256, 0.25)),
                 lambda: build_roast(256, 0.25, 127),
                 lambda: integrated_residual(build_prolate(256, 0.25),
                                             _empty_roast_basis(256, 0.25))]
        assert roast.prolate._MAX_DENSE_BYTES == 2**31
        for call in calls:
            call()
        monkeypatch.setattr(roast.prolate, "_MAX_DENSE_BYTES", 2**18)
        for call in calls:
            with pytest.raises(ValueError, match="MiB limit"):
                call()

    @pytest.mark.parametrize("name, setup, charge",
                             [pytest.param(*c, id=c[0]) for c in _GUARDED_PATHS])
    def test_peak_within_the_charge(self, name, setup, charge, monkeypatch):
        # every guarded dense path at N = 1025, odd, with its inputs built
        # before tracing: the peak stays within the bytes its guard charges
        # plus 128 KiB for index arrays, length-N vectors, numpy's iterator
        # buffers and the caches a first call fills
        n, w = 1025, 0.25
        call = setup(n, w)
        charges = _recorded_charges(monkeypatch, roast.prolate, roast.basis,
                                    roast.diagnostics, roast.recovery,
                                    dense_oracles)
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert charges[:1] == [charge]
        assert peak <= charge + 2**17

    @pytest.mark.parametrize("n, w, build, charge", [
        # the conjugate product's 48 N d, plus 384 KiB for the sum's buffer
        # and a small conjugate, above the matvec stage's 32 N d + 12 MiB
        pytest.param(2048, 0.25, lambda: build_roast_randomized(2048, 0.25, 20, 7),
                     48 * 2048 * 1045 + 3 * 2**17, id="product"),
        # at R = n_high = 820 > n_low the synthesis of the identity: the
        # identity, the spectrum, V's real coefficients, their scaled copy
        # and q times them, plus three 64 KiB ufunc buffers; its 62.7 MiB
        # peak is 14 MiB above the product stage's charge
        pytest.param(1025, 0.1, lambda: build_roast(1025, 0.1, 820),
                     8 * 1025**2 + 16 * 1025 * (1025 + 3 * 820) + 3 * 2**16,
                     id="synthesis"),
    ])
    def test_integrated_residual_peak_within_the_charge(self, n, w, build, charge,
                                                        monkeypatch):
        # the stage named in each case sets the charge and the traced peak
        op, basis = build_prolate(n, w), build()
        charges = _recorded_charges(monkeypatch, roast.diagnostics)
        tracemalloc.start()
        try:
            integrated_residual(op, basis)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert charges == [charge]
        assert peak <= charge + 2**17

    @pytest.mark.parametrize("w, charge", [
        pytest.param(0.25, 8 * 1499 * (2 * 1499 + 2 * 3000 + 2), id="rows"),
        pytest.param(0.1, 40 * 2399**2, id="eigh"),
    ])
    def test_eigh_route_peak_within_the_charge(self, w, charge, monkeypatch):
        # at N = 3000 the n_high x n_high terms, not the prolate matvec's
        # column groups, set the charge of the R = n_high route; the traced
        # peak is the rows stage, which a charge without its 8 n_high^2
        # rows would miss at both widths
        n = 3000
        op, split = build_prolate(n, w), build_band_split(n, w)
        charges = _recorded_charges(monkeypatch, roast.basis)
        tracemalloc.start()
        try:
            roast.basis._out_of_band_eigenvectors(op, split, split.n_high, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert charges == [charge]
        assert peak <= charge + 2**17


class TestSerialization:
    def test_round_trip_bitwise(self):
        basis = build_roast(128, 0.25, 9, "svd_fbf")
        restored = deserialize_basis(serialize_basis(basis))
        assert np.array_equal(basis.v, restored.v)
        assert restored.method == "svd_fbf"
        assert restored.r == 9 and restored.n == 128 and restored.w == 0.25

    def test_loaded_basis_analyzes_bit_for_bit(self, rng):
        # the builders store V column-major; a row-major copy of the same
        # values gives a product with different last bits
        basis = build_roast_randomized(1024, 0.25, 20, 1234)
        restored = deserialize_basis(serialize_basis(basis))
        assert restored.v.flags.f_contiguous
        x = rng.standard_normal(1024) + 1j * rng.standard_normal(1024)
        np.testing.assert_array_equal(restored.analyze(x), basis.analyze(x))

    @pytest.mark.parametrize("n", [1024, 1025])
    @pytest.mark.parametrize("method", ["svd_fb", "randomized"])
    def test_format_2_holds_q(self, n, method):
        # header, then q as column-major little-endian float64: 8 n_high R
        # payload bytes, half of the complex V, and q and V come back bit
        # for bit
        if method == "randomized":
            basis = build_roast_randomized(n, 0.25, 20, seed=8)
        else:
            basis = build_roast(n, 0.25, 20, method)
        blob = serialize_basis(basis)
        header_len = struct.unpack_from("<I", blob, 8)[0]
        assert struct.unpack_from("<H", blob, 6)[0] == 2
        assert len(blob) == 12 + header_len + 8 * basis.split.n_high * basis.r + 4
        restored = deserialize_basis(blob)
        np.testing.assert_array_equal(restored.q, basis.q)
        np.testing.assert_array_equal(restored.v, basis.v)

    def test_refuses_format_1(self):
        # a version-1 stream, the complex V after the header, with a valid
        # checksum
        basis = build_roast(64, 0.25, 3)
        header = json.dumps({"method": "svd_fb", "n": 64, "r": 3, "w": 0.25},
                            sort_keys=True).encode()
        blob = stream(header, basis.v.tobytes(order="F"), version=1)
        with pytest.raises(BasisFormatError, match="version 1, expected 2"):
            deserialize_basis(blob)

    def test_round_trip_randomized_keeps_seed(self):
        basis = build_roast_randomized(128, 0.25, 6, seed=77)
        restored = deserialize_basis(serialize_basis(basis))
        assert restored.seed == 77
        assert np.array_equal(basis.v, restored.v)

    def test_truncated_stream(self):
        blob = serialize_basis(build_roast(128, 0.25, 4))
        with pytest.raises(BasisFormatError):
            deserialize_basis(blob[:len(blob) // 2])
        with pytest.raises(BasisFormatError):
            deserialize_basis(blob[:8])

    def test_checksum_failure(self):
        blob = bytearray(serialize_basis(build_roast(128, 0.25, 4)))
        blob[len(blob) // 2] ^= 0xFF
        with pytest.raises(BasisFormatError):
            deserialize_basis(bytes(blob))

    def test_bad_magic(self):
        blob = bytearray(serialize_basis(build_roast(128, 0.25, 4)))
        blob[0] = ord("X")
        with pytest.raises(BasisFormatError):
            deserialize_basis(bytes(blob))

    def test_version_mismatch(self):
        blob = bytearray(serialize_basis(build_roast(128, 0.25, 4)))
        struct.pack_into("<H", blob, 6, 999)
        body = bytes(blob[:-4])
        with pytest.raises(BasisFormatError, match="version"):
            deserialize_basis(body + struct.pack("<I", zlib.crc32(body)))

    def test_invalid_header_dimensions(self):
        blob = serialize_basis(build_roast(128, 0.25, 4))
        with pytest.raises(BasisFormatError):
            deserialize_basis(with_header(blob, n=0))

    def test_same_basis_same_bytes_at_different_times(self, monkeypatch):
        basis = build_roast(128, 0.25, 4)
        monkeypatch.setattr(time, "time", lambda: 1.0e9)
        first = serialize_basis(basis)
        monkeypatch.setattr(time, "time", lambda: 2.0e9)
        assert serialize_basis(basis) == first

    def test_reads_stream_with_creation_stamp(self):
        basis = build_roast_randomized(128, 0.25, 6, seed=5)
        blob = with_header(serialize_basis(basis),
                           created_unix_seconds=1700000000)
        restored = deserialize_basis(blob)
        assert np.array_equal(restored.v, basis.v)
        assert restored.seed == 5 and restored.method == "randomized"


    @pytest.mark.parametrize("header", [b'"n"', b"3", b"null", b"[128, 0.25]"])
    def test_header_must_be_an_object(self, header):
        with pytest.raises(BasisFormatError, match="JSON object"):
            deserialize_basis(stream(header))

    @pytest.mark.parametrize("fields", [
        {"n": 2**26, "r": 1},     # payload too short for the header's V
        {"n": 2**26, "r": 2**26},  # more columns than out-of-band frequencies
        {"n": 10**400, "r": 1},   # n * w overflows a float
        {"n": 2**24 + 1, "r": 0},  # consistent, but longer than the reader takes
    ])
    def test_header_checked_before_the_split_is_built(self, fields, monkeypatch):
        def refuse(n, w):
            raise AssertionError(f"band split for n={n} built before validation")

        monkeypatch.setattr(roast.basis, "build_band_split", refuse)
        header = dict({"method": "randomized", "w": 0.25, "seed": 1}, **fields)
        with pytest.raises(BasisFormatError):
            deserialize_basis(stream(json.dumps(header).encode()))

    @pytest.mark.parametrize("seed", [1.5, "5", None, True, [5]])
    def test_seed_must_be_an_integer(self, seed):
        blob = serialize_basis(build_roast_randomized(128, 0.25, 6, seed=5))
        with pytest.raises(BasisFormatError, match="seed"):
            deserialize_basis(with_header(blob, seed=seed))


class TestDeserializeFuzz:
    @FUZZ
    @given(st.binary(max_size=512))
    def test_arbitrary_bytes(self, data):
        decodes_or_rejects(data)

    @FUZZ
    @given(st.binary(max_size=256))
    def test_arbitrary_bytes_after_a_valid_prefix(self, tail):
        decodes_or_rejects(VALID_STREAM[:12] + tail)

    @FUZZ
    @given(st.integers(0, len(VALID_STREAM) - 1), st.integers(0, 255))
    def test_single_byte_mutation(self, index, value):
        mutated = bytearray(VALID_STREAM)
        mutated[index] = value
        decodes_or_rejects(bytes(mutated))
        # with the CRC refreshed, the checks after the checksum run too
        body = bytes(mutated[:-4])
        decodes_or_rejects(body + struct.pack("<I", zlib.crc32(body)))


class TestSizingRules:
    def test_capture_rank_at_reference_point(self):
        # frozen from the defining formula: C_512 = 9.3712, ln(15/1e-3) = 9.6158
        assert rank_for_capture(512, 1e-3) == 91

    def test_log_width_constant_value(self):
        assert abs(log_width_constant(1024) - 9.652) <= 1e-3

    def test_fst_needs_wider_factors(self):
        for n in (256, 1024, 4096):
            assert roast.fst_rank_bound(n, 1e-5) > int(3 * np.log(n))
