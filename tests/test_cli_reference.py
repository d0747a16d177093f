"""The CLI's byte-stable outputs against committed references.

Each case runs ``roast.cli.main`` at N <= 256 and compares the file it writes
byte for byte with ``tests/data/cli/<case>``, written by the same arguments
with one BLAS thread.  A failure lists each changed row old -> new: the lines
of a CSV, the header and the factor entries of a serialized basis.

A change that moves an output on purpose rewrites the references with

    PYTHONPATH=src python tests/test_cli_reference.py

and lists every moved row in CHANGES.md.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import dataclasses  # noqa: E402
import pathlib  # noqa: E402

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from roast.basis import deserialize_basis, serialize_basis  # noqa: E402
from roast.cli import main  # noqa: E402

DATA = pathlib.Path(__file__).parent / "data" / "cli"

CASES = {
    "build_svd_fb.bin": ["build", "--n", "256", "--w", "0.25", "--r", "12"],
    "build_randomized.bin": ["build", "--n", "256", "--w", "0.25",
                             "--method", "randomized", "--r", "20", "--seed", "7"],
    "sweep_sinusoid.csv": ["sweep-sinusoid", "--n", "256", "--w", "0.25",
                           "--grid", "257"],
    "bandlimited_snr.csv": ["bandlimited-snr", "--n", "256", "--w", "0.25"],
    "rank_report.csv": ["rank-report", "--n-list", "16,64,256"],
}


def _run(case: str, path: pathlib.Path) -> bytes:
    assert main([*CASES[case], "--out", str(path)]) == 0
    return path.read_bytes()


def _basis_moves(old: bytes, new: bytes) -> list:
    a, b = deserialize_basis(old), deserialize_basis(new)
    head = [(x.n, x.w, x.r, x.method, x.seed) for x in (a, b)]
    if head[0] != head[1] or a.q.shape != b.q.shape:
        return [f"header: {head[0]} -> {head[1]}"]
    return [f"q[{i}, {j}]: {float(a.q[i, j])!r} -> {float(b.q[i, j])!r}"
            for i, j in zip(*np.nonzero(a.q != b.q))]


def _csv_moves(old: bytes, new: bytes) -> list:
    a, b = old.decode().splitlines(), new.decode().splitlines()
    moves = [f"line {i + 1}: {x} -> {y}" for i, (x, y) in enumerate(zip(a, b))
             if x != y]
    moves += [f"line {i + 1}: {x} -> (none)" for i, x in enumerate(a[len(b):], len(b))]
    moves += [f"line {i + 1}: (none) -> {y}" for i, y in enumerate(b[len(a):], len(a))]
    return moves


def moves(case: str, old: bytes, new: bytes) -> list:
    """One "old -> new" line for each row of ``case`` that moved."""
    if old == new:
        return []
    rows = (_basis_moves if case.endswith(".bin") else _csv_moves)(old, new)
    return rows or ["bytes differ"]


@pytest.mark.parametrize("case", sorted(CASES))
def test_matches_the_reference(case, tmp_path):
    got = moves(case, (DATA / case).read_bytes(), _run(case, tmp_path / case))
    assert not got, f"{case} moved, old -> new:\n" + "\n".join(got)


def test_moves_name_each_changed_row():
    csv = (DATA / "rank_report.csv").read_bytes()
    lines = len(csv.splitlines())
    assert moves("rank_report.csv", csv, csv) == []
    assert moves("rank_report.csv", csv, csv + b"1,2,3,4\n") == [
        f"line {lines + 1}: (none) -> 1,2,3,4"]
    blob = (DATA / "build_svd_fb.bin").read_bytes()
    basis = deserialize_basis(blob)
    q = basis.q.copy(order="F")
    q[3, 2] = 0.5
    edited = serialize_basis(dataclasses.replace(basis, q=q))
    assert moves("build_svd_fb.bin", blob, blob) == []
    assert moves("build_svd_fb.bin", blob, edited) == [
        f"q[3, 2]: {float(basis.q[3, 2])!r} -> 0.5"]


if __name__ == "__main__":
    DATA.mkdir(parents=True, exist_ok=True)
    for name in CASES:
        _run(name, DATA / name)
        print(f"wrote {DATA / name}")
