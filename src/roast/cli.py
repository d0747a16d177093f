"""Command-line front end: build bases, verify bounds, reproduce experiments.

``_COMMANDS`` declares each subcommand, its help and the flags it reads;
``verify`` exits nonzero when a bound fails.  A value outside its range
exits 2 before the runner starts; a rank, sketch width or ``--m`` that does
not fit the band split of N and ``--w``, a size a dense path refuses, or an
``--eps`` no eigenvalue reaches exits 2 from the runner before any basis is
built or signal drawn.

Every output is stamped with the command, the version, the set flags and
the values the run derives (``dimension``, ``r_used``).  Output is
plot-ready CSV (metadata in ``#`` comment lines, floats at 17 significant
digits) or the JSON equivalent.  Identical configuration and seed
reproduce byte-identical output; timing columns are the only
nondeterministic values.
"""

from __future__ import annotations

import argparse
import math
import json
import sys
import time

import numpy as np

from . import __version__
from .basis import (
    _METHODS,
    _ROAST_METHODS,
    BASES,
    _sketch,
    _sketch_basis,
    _slepian_rows,
    build_roast,
    build_roast_randomized,
    build_subdft,
    deserialize_basis,
    fst_rank_bound,
    serialize_basis,
)
from .diagnostics import (SNR_CSV_CAP, _band_grid, residual_snr,
                          sinusoid_residual_sq, snr_from_energies)
from .prolate import (DenseSizeError, _real_product, build_band_split,
                      build_dpss, build_prolate, log_width_constant,
                      random_bandlimited)
from .recovery import recovery_experiment
from .verify import capture_suite, core_grid_checks, full_verification

LOG_BASES = {"natural": math.e, "base2": 2.0, "base10": 10.0}
_DEFAULT_N_LIST = (256, 512, 1024, 2048, 4096, 8192, 16384)

# the DPSS row (a tridiagonal eigensolve for n_low + r vectors) of
# scaling-bench is skipped past this length
_DPSS_ROW_LIMIT = 4096


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return "%.17g" % value
    return str(value)


def _cap_snr(value: float) -> float:
    return min(float(value), SNR_CSV_CAP)


def _stamp(args: argparse.Namespace, **derived) -> list:
    """(key, value) pairs stamped on every output: the command, the version,
    the subcommand's own flags (unset ones left out), then ``derived``."""
    flags = {key: ",".join(str(v) for v in value) if isinstance(value, tuple)
             else value
             for key, value in vars(args).items()
             if value is not None and key not in ("command", "output_path")}
    return ([("command", args.command), ("version", __version__)]
            + sorted(flags.items()) + sorted(derived.items()))


def render_output(args: argparse.Namespace, columns: list, rows: list,
                  **derived) -> str:
    """Render rows in the chosen format with the run stamped on top."""
    stamp = _stamp(args, **derived)
    if args.format == "json":
        doc = {
            "meta": dict(stamp),
            "columns": columns,
            "rows": [[_fmt(v) if isinstance(v, float) else v for v in row]
                     for row in rows],
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"
    lines = [f"# {key}={_fmt(value)}" for key, value in stamp]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def _emit(args: argparse.Namespace, text: str) -> None:
    if args.output_path:
        with open(args.output_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _rank_from_length(n: int, factor: float, base_name: str) -> int:
    return int(math.floor(factor * math.log(n) / math.log(LOG_BASES[base_name])))


# Without --r, R = floor(factor * log N) in the --log-base logarithm;
# scaling-bench always derives it.
_RANK_FACTORS = {"sweep-sinusoid": 4.0, "recover": 3.0, "scaling-bench": 3.0}


class _SizeError(ValueError):
    """A width or count that does not fit the band split, or an eps no
    eigenvalue reaches; main exits 2."""


def _fit(n: int, w: float, flag: str, width: int) -> int:
    """``width``, refused unless it fits the n_high out-of-band bins of N
    and --w; ``flag`` names where it came from."""
    n_high = build_band_split(n, w).n_high
    if width > n_high:
        raise _SizeError(f"{flag} = {width} exceeds the {n_high} out-of-band "
                         f"bins of N = {n} at --w {w}")
    return width


def _rank_used(args: argparse.Namespace) -> tuple[int, str]:
    """The R that sweep-sinusoid or recover runs with, --r else derived,
    refused by ``_fit``; and the flag it came from."""
    if args.r is not None:
        flag, r = "--r", args.r
    else:
        flag = "the derived r"
        r = _rank_from_length(args.n, _RANK_FACTORS[args.command], args.log_base)
    return _fit(args.n, args.w, flag, r), flag


# ---------------------------------------------------------------------------
# commands

def run_build(args: argparse.Namespace) -> int:
    r = _fit(args.n, args.w, "--r", args.r)
    if args.method == "randomized":
        basis = build_roast_randomized(args.n, args.w, r, args.seed)
    else:
        basis = build_roast(args.n, args.w, r, args.method)
    blob = serialize_basis(basis)
    deserialize_basis(blob)  # self-check before anything touches the file
    with open(args.output_path, "wb") as fh:
        fh.write(blob)
    sys.stdout.write(
        f"wrote basis n={basis.n} w={basis.w} r={basis.r} "
        f"method={basis.method} ({len(blob)} bytes)\n")
    return 0


def run_verify(args: argparse.Namespace) -> int:
    if args.single_point:
        # one full Slepian solve serves both suites
        dpss = build_dpss(args.n, args.w, args.n)
        # diagnostics._leading_slepian_rows refuses the same k = 0, but
        # only after the core checks have run
        if not np.any(dpss.eigenvalues >= args.eps):
            raise _SizeError(f"no eigenvalues reach eps={args.eps}")
        ledger = core_grid_checks(dpss)
        ledger.extend(capture_suite(dpss, args.eps))
    else:
        ledger = full_verification(num_seeds=args.num_seeds)
    text = ledger.to_json(**{k: _fmt(v) for k, v in _stamp(args)}) + "\n"
    _emit(args, text)
    if args.output_path:
        status = "ok" if ledger.all_satisfied else "UNSATISFIED"
        failed = sum(not e.satisfied for e in ledger.entries)
        sys.stdout.write(
            f"{len(ledger.entries)} checks, {failed} unsatisfied -> {status}\n")
    return 0 if ledger.all_satisfied else 1


def run_sweep_sinusoid(args: argparse.Namespace) -> int:
    n, w = args.n, args.w
    r, _ = _rank_used(args)
    split = build_band_split(n, w)
    dim = split.n_low + r

    dpss = build_dpss(n, w, dim)  # its byte guard refuses before other builds
    subdft = build_subdft(n, w, r)
    roast = build_roast(n, w, r, args.method)
    # a sketch needs P >= 1, so at R = 0 the deterministic basis stands in
    roast_r = build_roast_randomized(n, w, r, args.seed) if r >= 1 else roast

    # mirrored bit for bit, so the +-f fold of the ROAST kernel halves it
    grid = _band_grid(0.5, args.grid_points)
    # the two ROAST bases share one split, so one call forms their kernel
    snr_cols = [snr_from_energies(n, resid_sq) for resid_sq in (
        sinusoid_residual_sq(subdft, n, grid), sinusoid_residual_sq(dpss, n, grid),
        *sinusoid_residual_sq([roast, roast_r], n, grid))]
    rows = [[float(f)] + [_cap_snr(c[j]) for c in snr_cols]
            for j, f in enumerate(grid)]

    columns = ["f", "snr_subdft", "snr_dpss", "snr_roast", "snr_roast_randomized"]
    _emit(args, render_output(args, columns, rows, dimension=dim, r_used=r))
    return 0


def _peeled_energies(resid: np.ndarray, cols: np.ndarray,
                     coeffs: np.ndarray) -> np.ndarray:
    """||resid - sum_{j<R} cols_j coeffs_j||^2 for R = 0 .. len(coeffs), for
    a vector or columns ``resid`` and a row of ``coeffs`` per column j,
    each the norm of the peeled residual: far more accurate than total
    minus captured energy."""
    resid = np.array(resid)
    out = np.empty(len(coeffs) + 1)
    out[0] = np.vdot(resid, resid).real
    for j, c in enumerate(coeffs):
        resid -= np.multiply.outer(cols[:, j], c)
        out[j + 1] = np.vdot(resid, resid).real
    return out


def run_bandlimited_snr(args: argparse.Namespace) -> int:
    n, w = args.n, args.w
    r_max = _fit(n, w, "--r-max", args.r_max)
    split = build_band_split(n, w)
    x = random_bandlimited(n, w, args.tones, args.seed).samples
    total = float(np.vdot(x, x).real)
    # every basis but DPSS holds the in-band DFT columns, so its residual
    # lives on the out-of-band bins alone: for ROAST, their coordinates
    # U Fbar^* x in q's rows, from x's real and imaginary parts
    folded = _slepian_rows(np.column_stack([x.real, x.imag]), split)

    q = build_roast(n, w, r_max, args.method).q
    roast_resid = _peeled_energies(folded, q, q.T @ folded)

    # each widened-DFT basis zeroes the bins it holds, so its energy is a
    # direct sum over the out-of-band bins outside build_subdft's set
    spectrum = np.fft.fft(x, norm="ortho")
    sub_resid = np.empty(r_max + 1)
    for rr in range(r_max + 1):
        spectrum[build_subdft(n, w, rr).indices] = 0.0
        sub_vec = spectrum[split.high_indices]
        sub_resid[rr] = np.vdot(sub_vec, sub_vec).real

    s = build_dpss(n, w, split.n_low + r_max).vectors
    coeff = _real_product(s.T, x)
    low = split.n_low
    dpss_resid = _peeled_energies(x - _real_product(s[:, :low], coeff[:low]),
                                  s[:, low:], coeff[low:])

    # one sketch at r_max, as randomized_suite draws it; R takes a column
    # prefix through its own pivoted QR, so R = r_max is
    # build_roast_randomized's basis bit for bit
    sketch = _sketch(build_prolate(n, w), split, r_max, args.seed)
    rand_resid = np.empty(r_max + 1)
    rand_resid[0] = roast_resid[0]
    for rr in range(1, r_max + 1):
        qr = _sketch_basis(split, sketch[:, :rr], args.seed).q
        rand_vec = folded - qr @ (qr.T @ folded)
        rand_resid[rr] = np.vdot(rand_vec, rand_vec)

    # the nested families (ROAST, DPSS, Sub-DFT) cannot lose energy as R
    # grows; the running minimum keeps their curves monotone through round-off
    snr = {
        "snr_subdft": snr_from_energies(total, np.minimum.accumulate(sub_resid)),
        "snr_dpss": snr_from_energies(total, np.minimum.accumulate(dpss_resid)),
        "snr_roast": snr_from_energies(total, np.minimum.accumulate(roast_resid)),
        "snr_roast_randomized": snr_from_energies(total, rand_resid),
    }
    columns = ["r", "snr_subdft", "snr_dpss", "snr_roast", "snr_roast_randomized"]
    rows = [[rr] + [_cap_snr(snr[c][rr]) for c in columns[1:]]
            for rr in range(r_max + 1)]
    _emit(args, render_output(args, columns, rows))
    return 0


def _median_seconds(fn) -> float:
    for _ in range(3):
        fn()
    resolution = time.get_clock_info("perf_counter").resolution
    t0 = time.perf_counter()
    fn()
    estimate = max(time.perf_counter() - t0, 1e-9)
    inner = 1
    floor = max(1000.0 * resolution, 2e-5)
    while estimate * inner < floor:
        inner *= 2
    samples = []
    for _ in range(20):
        t0 = time.perf_counter()
        for _ in range(inner):
            fn()
        samples.append((time.perf_counter() - t0) / inner)
    return float(np.median(samples))


def run_scaling_bench(args: argparse.Namespace) -> int:
    rows = []
    w = args.w
    ranks = [_fit(n, w, "the derived r", _rank_from_length(
        n, _RANK_FACTORS[args.command], args.log_base)) for n in args.n_list]
    for n, r in zip(args.n_list, ranks):
        split = build_band_split(n, w)
        signal = random_bandlimited(n, w, args.tones, args.seed + n).samples
        probe = signal / np.linalg.norm(signal)
        fft_seconds = _median_seconds(lambda: np.fft.fft(probe))

        builders = [("subdft", lambda: build_subdft(n, w, r))]
        if n <= _DPSS_ROW_LIMIT:
            builders.append(("dpss", lambda: build_dpss(n, w, split.n_low + r)))
        builders.append(("roast", lambda: build_roast(n, w, r)))
        builders.append(
            ("roast_r", lambda: build_roast_randomized(n, w, max(r, 1),
                                                       args.seed)))
        for name, make in builders:
            t0 = time.perf_counter()
            built = make()
            precompute = time.perf_counter() - t0
            analyze = built.analyze
            apply_seconds = _median_seconds(lambda: analyze(probe))
            snr = _cap_snr(residual_snr(built, signal))
            rows.append([int(n), int(r), name, float(precompute),
                         float(apply_seconds), fft_seconds, snr])
    columns = ["n", "r", "method", "precompute_seconds", "apply_seconds",
               "fft_seconds", "snr"]
    _emit(args, render_output(args, columns, rows))
    return 0


def run_rank_report(args: argparse.Namespace) -> int:
    rows = []
    for n in args.n_list:
        c_n = log_width_constant(n)
        r_roast = _rank_from_length(n, 3.0, args.log_base)
        r_fst = fst_rank_bound(n, args.delta)
        rows.append([int(n), float(c_n), int(r_roast), int(r_fst)])
    columns = ["n", "c_n", "r_roast", "r_fst_bound"]
    _emit(args, render_output(args, columns, rows))
    return 0


def run_recover(args: argparse.Namespace) -> int:
    r, flag = _rank_used(args)
    lowest = 2 * math.floor(args.n * args.w)
    if not lowest <= args.m <= args.n:
        raise _SizeError(f"--m must lie in [{lowest}, {args.n}] "
                         f"for --n {args.n} --w {args.w}")
    if args.basis_choice == "roast_randomized" and r < 1:
        raise _SizeError(f"--basis roast_randomized needs {flag} >= 1")
    report = recovery_experiment(args.n, args.w, args.m,
                                 args.basis_choice, args.seed, r=r,
                                 tol=args.tol)
    columns = ["basis", "n", "w", "m", "r", "seed", "relative_error",
               "iterations", "condition_estimate", "converged"]
    rows = [[args.basis_choice, args.n, args.w, args.m, r, args.seed,
             report.relative_error, report.iterations,
             report.condition_estimate, report.converged]]
    _emit(args, render_output(args, columns, rows))
    return 0 if report.converged else 1


# ---------------------------------------------------------------------------
# argument parsing

# Every flag once, with its one default.
_FLAGS = {
    "--n": dict(type=int, default=1024),
    "--w": dict(type=float, default=0.25),
    "--r": dict(type=int),
    "--method": dict(choices=_ROAST_METHODS, default="svd_fb"),
    "--seed": dict(type=int, default=1234),
    "--eps": dict(type=float, default=1e-3,
                  help="capture accuracy; read only with --single-point"),
    "--seeds": dict(type=int, default=20, dest="num_seeds",
                    help="randomized-suite seeds; read only without --single-point"),
    "--single-point": dict(action="store_true",
                           help="check only --n and --w instead of the grid"),
    "--log-base": dict(choices=sorted(LOG_BASES), default="natural"),
    "--grid": dict(type=int, default=2048, dest="grid_points"),
    "--tones": dict(type=int, default=10000),
    "--r-max": dict(type=int, default=30),
    "--n-list": dict(type=lambda s: tuple(int(v) for v in s.split(",")),
                     default=_DEFAULT_N_LIST),
    "--delta": dict(type=float, default=1e-5),
    "--m": dict(type=int),
    "--basis": dict(choices=sorted(BASES), default="roast", dest="basis_choice"),
    "--tol": dict(type=float, default=1e-8),
    "--format": dict(choices=["csv", "json"], default="csv"),
    "--out": dict(dest="output_path"),
}

# Ranges checked after parsing, by destination; main returns 2 with the
# message of the first one a given value fails.
_LIMITS = {
    "n": (lambda v: v >= 2, "--n must be at least 2"),
    "w": (lambda v: 0.0 < v < 0.5, "--w must lie strictly inside (0, 1/2)"),
    "r": (lambda v: v >= 0, "--r must be nonnegative"),
    "eps": (lambda v: 0.0 < v < 0.5, "--eps must lie in (0, 1/2)"),
    "grid_points": (lambda v: v >= 16, "--grid must be at least 16"),
    "tones": (lambda v: v >= 1, "--tones must be positive"),
    "r_max": (lambda v: v >= 0, "--r-max must be nonnegative"),
    "delta": (lambda v: 0.0 < v < 1.0, "--delta must lie in (0, 1)"),
    "tol": (lambda v: v > 0.0, "--tol must be positive"),
    "num_seeds": (lambda v: v >= 1, "--seeds must be positive"),
    "seed": (lambda v: v >= 0, "--seed must be nonnegative"),
    "n_list": (lambda v: all(n >= 2 for n in v), "--n-list entries must be at least 2"),
}

# Each subcommand's help and the flags its runner reads.  A (flag, keywords)
# pair narrows or widens that flag's declaration for the one subcommand.
_COMMANDS = {
    "build": ("build a basis and serialize it",
              ("--n", "--w", "--r",
               ("--method", dict(choices=_METHODS,
                                 help="randomized takes --r as its sketch "
                                      "width, the others as the count of "
                                      "extra directions")),
               "--seed", "--out")),
    "verify": ("run the bound suite and emit a JSON ledger; --n, --w and "
               "--eps apply only with --single-point, --seeds only without it",
               ("--n", "--w", "--eps", "--seeds", "--single-point", "--out")),
    "sweep-sinusoid": ("SNR versus frequency",
                       ("--n", "--w", "--r", "--method", "--seed", "--log-base",
                        "--grid", "--format", "--out")),
    "bandlimited-snr": ("SNR versus R",
                        ("--n", "--w", "--r-max", "--method", "--seed",
                         "--tones", "--format", "--out")),
    "scaling-bench": ("timings across signal lengths; snr is one draw of "
                      "--tones tones at signal seed seed + n, and the dpss row "
                      "keeps n_low + r vectors",
                      ("--n-list", "--w", "--seed", "--tones", "--log-base",
                       "--format", "--out")),
    "rank-report": ("skinny widths versus length",
                    ("--n-list", "--log-base", "--delta", "--format", "--out")),
    "recover": ("CG recovery through a subspace",
                ("--n", "--w", "--r", "--m", "--basis", "--seed", "--tol",
                 "--log-base", "--format", "--out")),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="roast",
        description="Fast orthonormal approximate Slepian transform toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (text, flags) in _COMMANDS.items():
        p = sub.add_parser(command, help=text, description=text)
        for flag in flags:
            flag, own = (flag, {}) if isinstance(flag, str) else flag
            p.add_argument(flag, **{**_FLAGS[flag], **own})
    return parser


def _rejection(args: argparse.Namespace) -> str | None:
    """Why ``args`` cannot run, or None."""
    for dest, (ok, message) in _LIMITS.items():
        value = getattr(args, dest, None)
        if value is not None and not ok(value):
            return message
    if args.command == "build":
        if args.output_path is None:
            return "build requires --out"
        if args.r is None:
            return f"{args.method} build requires --r"
        if args.method == "randomized" and args.r == 0:
            return "randomized build needs a sketch width --r >= 1"
    if args.command == "recover" and args.m is None:
        return "recover requires --m"
    return None


_RUNNERS = {
    "build": run_build,
    "verify": run_verify,
    "sweep-sinusoid": run_sweep_sinusoid,
    "bandlimited-snr": run_bandlimited_snr,
    "scaling-bench": run_scaling_bench,
    "rank-report": run_rank_report,
    "recover": run_recover,
}


def main(argv: list | None = None) -> int:
    args = _build_parser().parse_args(argv)
    rejection = _rejection(args)
    if rejection is None:
        try:
            return _RUNNERS[args.command](args)
        # a width the runner derives, or a size only a dense path can judge
        except (_SizeError, DenseSizeError) as exc:
            rejection = str(exc)
    sys.stderr.write(f"error: {rejection}\n")
    return 2


if __name__ == "__main__":
    sys.exit(main())
