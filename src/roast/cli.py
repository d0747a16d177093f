"""Command-line front end: build bases, verify bounds, reproduce experiments.

Subcommands
-----------
build            construct a basis and serialize it to disk
verify           run the bound suite, emit a JSON ledger, exit nonzero on failure
sweep-sinusoid   SNR of each projection method across a frequency grid
bandlimited-snr  SNR of each method versus R on a fixed bandlimited signal
scaling-bench    build/apply timings and SNR across signal lengths
rank-report      skinny-matrix widths versus length for the fast methods
recover          one CG recovery experiment through a chosen subspace

In ``scaling-bench`` the ``snr`` column is the SNR of one draw of
``--tones`` random tones, at signal seed ``seed + n``, under each basis.  The
``dpss`` row keeps ``n_low + r`` Slepian vectors (n_low = 2 floor(NW) + 1),
the dimension of the ``roast`` (svd_fb) row, and is written only up to
N = 4096; the other rows are written at every N.

Output is plot-ready CSV (metadata in ``#`` comment lines, floats at 17
significant digits) or the JSON equivalent.  Identical configuration and
seed reproduce byte-identical output; timing columns are the only
nondeterministic values.
"""

from __future__ import annotations

import argparse
import math
import json
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .basis import (
    _METHODS,
    BASES,
    build_roast,
    build_roast_randomized,
    build_subdft,
    deserialize_basis,
    fst_rank_bound,
    serialize_basis,
)
from .diagnostics import SNR_CSV_CAP, residual_snr, sinusoid_residual_sq
from .prolate import build_band_split, build_dpss, log_width_constant, random_bandlimited
from .recovery import recovery_experiment
from .verify import (
    DEFAULT_GRID,
    capture_suite,
    core_grid_checks,
    full_verification,
)

LOG_BASES = {"natural": math.e, "base2": 2.0, "base10": 10.0}
_DEFAULT_N_LIST = (256, 512, 1024, 2048, 4096, 8192, 16384)

# the DPSS row (a tridiagonal eigensolve for n_low + r vectors) is skipped
# past this length
_DENSE_METHOD_LIMIT = 4096


@dataclass
class RunConfig:
    """Validated parameters for one CLI run; stamped into every output.

    ``validate`` checks ranges and required options; the fixed choices
    (command, method, log base, format, basis) are enforced by the parser.
    """

    command: str
    n: int = 1024
    w: float = 0.25
    r: int | None = None
    p: int | None = None
    method: str = "svd_fb"
    seed: int = 1234
    eps: float | None = None
    log_base: str = "natural"
    output_path: str | None = None
    format: str = "csv"
    grid_points: int = 2048
    tones: int = 10000
    r_max: int = 30
    n_list: tuple = _DEFAULT_N_LIST
    delta: float = 1e-5
    m: int | None = None
    basis_choice: str = "roast"
    tol: float = 1e-8
    num_seeds: int = 20
    extras: dict = field(default_factory=dict)

    def validate(self) -> None:
        if self.n < 2:
            raise ValueError("--n must be at least 2")
        if not 0.0 < self.w < 0.5:
            raise ValueError("--w must lie strictly inside (0, 1/2)")
        if self.r is not None and self.r < 0:
            raise ValueError("--r must be nonnegative")
        if self.p is not None and self.p < 1:
            raise ValueError("--p must be positive")
        if self.eps is not None and not 0.0 < self.eps < 0.5:
            raise ValueError("--eps must lie in (0, 1/2)")
        if self.grid_points < 16:
            raise ValueError("--grid must be at least 16")
        if self.tones < 1:
            raise ValueError("--tones must be positive")
        if self.r_max < 0:
            raise ValueError("--r-max must be nonnegative")
        if self.delta <= 0 or self.delta >= 1:
            raise ValueError("--delta must lie in (0, 1)")
        if self.tol <= 0:
            raise ValueError("--tol must be positive")
        if self.num_seeds < 1:
            raise ValueError("--seeds must be positive")
        if any(nn < 2 for nn in self.n_list):
            raise ValueError("--n-list entries must be at least 2")
        if self.command == "build":
            if self.output_path is None:
                raise ValueError("build requires --out")
            if self.method == "randomized":
                if self.p is None:
                    raise ValueError("randomized build requires --p")
            elif self.r is None:
                raise ValueError(f"{self.method} build requires --r")
        if self.command == "recover" and self.m is None:
            raise ValueError("recover requires --m")

    def items(self) -> list:
        pairs = [("command", self.command), ("version", __version__)]
        skip = {"command", "extras", "output_path"}
        for key in sorted(vars(self)):
            if key in skip:
                continue
            value = getattr(self, key)
            if value is None:
                continue
            if isinstance(value, tuple):
                value = ",".join(str(v) for v in value)
            pairs.append((key, value))
        pairs.extend(sorted(self.extras.items()))
        return pairs


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return "%.17g" % value
    return str(value)


def _cap_snr(value: float) -> float:
    return min(float(value), SNR_CSV_CAP)


def render_output(config: RunConfig, columns: list, rows: list) -> str:
    """Render rows in the configured format with the config stamped on top."""
    if config.format == "json":
        doc = {
            "meta": {k: v for k, v in config.items()},
            "columns": columns,
            "rows": [[_fmt(v) if isinstance(v, float) else v for v in row]
                     for row in rows],
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"
    lines = [f"# {key}={_fmt(value)}" for key, value in config.items()]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def _emit(config: RunConfig, text: str) -> None:
    if config.output_path:
        with open(config.output_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _rank_from_length(n: int, factor: float, base_name: str) -> int:
    return int(math.floor(factor * math.log(n) / math.log(LOG_BASES[base_name])))


# ---------------------------------------------------------------------------
# commands

def run_build(config: RunConfig) -> int:
    if config.method == "randomized":
        basis = build_roast_randomized(config.n, config.w, config.p, config.seed)
    else:
        basis = build_roast(config.n, config.w, config.r, config.method)
    blob = serialize_basis(basis)
    deserialize_basis(blob)  # self-check before anything touches the file
    with open(config.output_path, "wb") as fh:
        fh.write(blob)
    sys.stdout.write(
        f"wrote basis n={basis.n} w={basis.w} r={basis.r} "
        f"method={basis.method} ({len(blob)} bytes)\n")
    return 0


def run_verify(config: RunConfig) -> int:
    eps = config.eps if config.eps is not None else 1e-3
    if config.extras.get("single_point"):
        ledger = core_grid_checks(config.n, config.w)
        ledger.extend(capture_suite(config.n, config.w, eps, r=config.r))
    else:
        ledger = full_verification(num_seeds=config.num_seeds,
                                   capture_r=config.r)
    text = ledger.to_json(**{k: _fmt(v) for k, v in config.items()}) + "\n"
    _emit(config, text)
    if config.output_path:
        status = "ok" if ledger.all_satisfied else "UNSATISFIED"
        failed = sum(not e.satisfied for e in ledger.entries)
        sys.stdout.write(
            f"{len(ledger.entries)} checks, {failed} unsatisfied -> {status}\n")
    return 0 if ledger.all_satisfied else 1


def run_sweep_sinusoid(config: RunConfig) -> int:
    n, w = config.n, config.w
    r = config.r if config.r is not None else _rank_from_length(n, 4.0, config.log_base)
    split = build_band_split(n, w)
    dim = split.n_low + r

    subdft = build_subdft(n, w, r)
    method = config.method if config.method != "randomized" else "svd_fb"
    roast = build_roast(n, w, r, method)
    roast_r = build_roast_randomized(n, w, r, config.seed) if r >= 1 else roast
    dpss = build_dpss(n, w, dim)

    grid = np.linspace(-0.5, 0.5, config.grid_points)
    snr_cols = []
    for proj in (subdft, dpss, roast, roast_r):
        resid_sq = sinusoid_residual_sq(proj, n, grid)
        with np.errstate(divide="ignore"):
            snr = 10.0 * np.log10(n / resid_sq)
        snr[resid_sq < (1e-15) ** 2 * n] = np.inf
        snr_cols.append(snr)
    rows = [[float(f)] + [_cap_snr(c[j]) for c in snr_cols]
            for j, f in enumerate(grid)]

    config.extras["dimension"] = dim
    config.extras["r_used"] = r
    columns = ["f", "snr_subdft", "snr_dpss", "snr_roast", "snr_roast_randomized"]
    _emit(config, render_output(config, columns, rows))
    return 0


def _snr_from_capture(total: float, captured: np.ndarray) -> np.ndarray:
    """SNR series from cumulative captured energy; exact capture saturates."""
    resid = total - captured
    out = np.empty(len(resid))
    for i, val in enumerate(resid):
        if val < (1e-15) ** 2 * total:
            out[i] = np.inf
        else:
            out[i] = 10.0 * np.log10(total / val)
    return out


def run_bandlimited_snr(config: RunConfig) -> int:
    n, w, r_max = config.n, config.w, config.r_max
    split = build_band_split(n, w)
    x = random_bandlimited(n, w, config.tones, config.seed).samples
    total = float(np.vdot(x, x).real)
    spectrum = np.fft.fft(x) / np.sqrt(n)
    low_energy = float(np.sum(np.abs(spectrum[split.low_indices]) ** 2))
    high = spectrum[split.high_indices]
    half = (split.n_low - 1) // 2
    r_values = np.arange(r_max + 1)

    # energies are accumulated column by column so each curve is exactly
    # non-increasing in the residual
    method = config.method if config.method != "randomized" else "svd_fb"
    v = build_roast(n, w, r_max, method).v
    roast_gain = np.abs(v.conj().T @ high) ** 2
    roast_captured = low_energy + np.concatenate([[0.0], np.cumsum(roast_gain)])

    # widened-DFT columns arrive positive side first (R=1 -> +, R=2 -> -),
    # matching the ceil/floor split of build_subdft
    extra_signed = [half + (j + 1) // 2 if j % 2 == 1 else -(half + j // 2)
                    for j in range(1, r_max + 1)]
    extra_idx = np.mod(np.array(extra_signed, dtype=int), n) if extra_signed else \
        np.empty(0, dtype=int)
    sub_gain = np.abs(spectrum[extra_idx]) ** 2
    sub_captured = low_energy + np.concatenate([[0.0], np.cumsum(sub_gain)])

    dpss = build_dpss(n, w, split.n_low + r_max)
    dpss_coeff = np.abs(dpss.vectors.T @ x) ** 2
    dpss_cum = np.cumsum(dpss_coeff)
    dpss_captured = dpss_cum[split.n_low - 1 + r_values]

    rand_captured = np.empty(r_max + 1)
    rand_captured[0] = low_energy
    for rr in range(1, r_max + 1):
        vr = build_roast_randomized(n, w, rr, config.seed).v
        rand_captured[rr] = low_energy + float(np.sum(np.abs(vr.conj().T @ high) ** 2))

    snr = {
        "snr_subdft": _snr_from_capture(total, sub_captured),
        "snr_dpss": _snr_from_capture(total, dpss_captured),
        "snr_roast": _snr_from_capture(total, roast_captured),
        "snr_roast_randomized": _snr_from_capture(total, rand_captured),
    }
    columns = ["r", "snr_subdft", "snr_dpss", "snr_roast", "snr_roast_randomized"]
    rows = [[int(rr)] + [_cap_snr(snr[c][rr]) for c in columns[1:]]
            for rr in r_values]
    _emit(config, render_output(config, columns, rows))
    return 0


def _median_seconds(fn, repeats: int = 20) -> float:
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
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(inner):
            fn()
        samples.append((time.perf_counter() - t0) / inner)
    return float(np.median(samples))


def run_scaling_bench(config: RunConfig) -> int:
    rows = []
    base = config.log_base
    for n in config.n_list:
        r = max(_rank_from_length(n, 3.0, base), 0)
        w = config.w
        split = build_band_split(n, w)
        signal = random_bandlimited(n, w, config.tones, config.seed + n).samples
        probe = signal / np.linalg.norm(signal)

        builders = [("subdft", lambda: build_subdft(n, w, r))]
        if n <= _DENSE_METHOD_LIMIT:
            builders.append(("dpss", lambda: build_dpss(n, w, split.n_low + r)))
        builders.append(("roast", lambda: build_roast(n, w, r)))
        builders.append(
            ("roast_r", lambda: build_roast_randomized(n, w, max(r, 1),
                                                       config.seed)))
        for name, make in builders:
            t0 = time.perf_counter()
            built = make()
            precompute = time.perf_counter() - t0
            analyze = built.analyze
            apply_seconds = _median_seconds(lambda: analyze(probe))
            snr = _cap_snr(residual_snr(built, signal))
            rows.append([int(n), int(r), name, float(precompute),
                         float(apply_seconds), snr])
    columns = ["n", "r", "method", "precompute_seconds", "apply_seconds", "snr"]
    _emit(config, render_output(config, columns, rows))
    return 0


def run_rank_report(config: RunConfig) -> int:
    rows = []
    for n in config.n_list:
        c_n = log_width_constant(n)
        r_roast = _rank_from_length(n, 3.0, config.log_base)
        r_fst = fst_rank_bound(n, config.delta)
        rows.append([int(n), float(c_n), int(r_roast), int(r_fst)])
    columns = ["n", "c_n", "r_roast", "r_fst_bound"]
    _emit(config, render_output(config, columns, rows))
    return 0


def run_recover(config: RunConfig) -> int:
    r = config.r if config.r is not None else _rank_from_length(
        config.n, 3.0, config.log_base)
    report = recovery_experiment(config.n, config.w, config.m,
                                 config.basis_choice, config.seed, r=r,
                                 tol=config.tol)
    columns = ["basis", "n", "w", "m", "r", "seed", "relative_error",
               "iterations", "condition_estimate", "converged"]
    rows = [[report.basis_choice, config.n, config.w, config.m, r, config.seed,
             report.relative_error, report.iterations,
             report.condition_estimate, report.converged]]
    _emit(config, render_output(config, columns, rows))
    return 0 if report.converged else 1


# ---------------------------------------------------------------------------
# argument parsing

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="roast",
        description="Fast orthonormal approximate Slepian transform toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--n", type=int, default=1024)
        p.add_argument("--w", type=float, default=0.25)
        p.add_argument("--r", type=int, default=None)
        p.add_argument("--p", type=int, default=None)
        p.add_argument("--method", choices=_METHODS, default="svd_fb")
        p.add_argument("--seed", type=int, default=1234)
        p.add_argument("--eps", type=float, default=None)
        p.add_argument("--log-base", choices=sorted(LOG_BASES),
                       default="natural", dest="log_base")
        p.add_argument("--format", choices=["csv", "json"], default="csv")
        p.add_argument("--out", dest="output_path", default=None)

    p = sub.add_parser("build", help="build a basis and serialize it")
    add_common(p)

    p = sub.add_parser("verify", help="run the bound suite, emit a JSON ledger")
    add_common(p)
    p.add_argument("--seeds", type=int, default=20, dest="num_seeds")
    p.add_argument("--single-point", action="store_true",
                   help="check only the configured (n, w) instead of the grid")
    p.set_defaults(format="json")

    p = sub.add_parser("sweep-sinusoid", help="SNR versus frequency")
    add_common(p)
    p.add_argument("--grid", type=int, default=2048, dest="grid_points")

    p = sub.add_parser("bandlimited-snr", help="SNR versus R")
    add_common(p)
    p.add_argument("--tones", type=int, default=10000)
    p.add_argument("--r-max", type=int, default=30, dest="r_max")

    text = ("timings across signal lengths; snr is one draw of --tones tones "
            "at signal seed seed + n, and the dpss row keeps n_low + r vectors")
    p = sub.add_parser("scaling-bench", help=text, description=text)
    add_common(p)
    p.add_argument("--n-list", type=lambda s: tuple(int(v) for v in s.split(",")),
                   default=_DEFAULT_N_LIST, dest="n_list")
    p.add_argument("--tones", type=int, default=10000)

    p = sub.add_parser("rank-report", help="skinny widths versus length")
    add_common(p)
    p.add_argument("--n-list", type=lambda s: tuple(int(v) for v in s.split(",")),
                   default=_DEFAULT_N_LIST, dest="n_list")
    p.add_argument("--delta", type=float, default=1e-5)

    p = sub.add_parser("recover", help="CG recovery through a subspace")
    add_common(p)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--basis", choices=sorted(BASES), default="roast",
                   dest="basis_choice")
    p.add_argument("--tol", type=float, default=1e-8)
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    config = RunConfig(command=args.command)
    for key in vars(config):
        if key in ("command", "extras"):
            continue
        if hasattr(args, key) and getattr(args, key) is not None:
            setattr(config, key, getattr(args, key))
    if getattr(args, "single_point", False):
        config.extras["single_point"] = True
    config.validate()
    return config


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
    try:
        config = config_from_args(args)
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    return _RUNNERS[config.command](config)


if __name__ == "__main__":
    sys.exit(main())
