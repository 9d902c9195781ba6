"""Command-line front end: simulation, certification, sweeps and exports.

Subcommands::

    simulate-tags   generate binary tag files over a background-rate grid
    certify-et      witness reports for one tag-file pair at several d
    mub-sweep       visibility sums over a noise-fraction grid (prime d)
    sweep-noise     full stream-level noise sweep with witnesses per d
    link-budget     loss budget <-> fiber distance table

``sweep-noise`` and ``certify-et`` certify HV/DA stream pairs through one
path, ``_certify_streams``.  The INI config drives
``simulate-tags`` and ``sweep-noise`` and rejects unknown sections or keys;
``mub-sweep`` is configured by its flags.

All outputs are plain CSV/JSON with schema-versioned headers, written
atomically; identical configs and seeds reproduce them bit for bit,
independent of the worker count.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import functools
import hashlib
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import analysis, mub, states, tagstream, witness

SWEEP_SCHEMA = "# hdent-sweep-csv v1"
SWEEP_COLUMNS = (
    "d_or_k",
    "noise_setting",
    "nf_true",
    "nf_estimated",
    "witness_or_visibility_sum",
    "sigma",
    "certified",
)
MANIFEST_SCHEMA = "# hdent-manifest-csv v1"

_DEFAULTS = {
    "run": {"output": "out"},
    "clock": {
        "tick_seconds": "82.3e-12",
        "frame_ticks": "320",
        "imbalance_ticks": "32",
    },
    "source": {
        "pair_rate": "1.5e6",
        # grid spans noise fractions ~0..0.99 so every d crosses its threshold
        "background_rates": "0, 2e6, 5e6, 1e7, 1.6e7, 2.4e7, 3.2e7, 4e7",
        "jitter_fwhm_seconds": "800e-12",
        "p_mix": "1.0",
        "franson_phase": "pi",
        "state_dim": "80",
    },
    "binning": {"dims": "10, 20, 40, 80"},
    "sweep": {"n_frames": "100000", "seed": "1", "resamples": "150"},
}


@dataclass(frozen=True)
class RunConfig:
    clock: tagstream.ClockConfig
    state_dim: int
    pair_rate: float
    background_rates: tuple
    jitter_fwhm_seconds: float
    p_mix: float
    franson_phase: float
    dims: tuple
    n_frames: int
    seed: int
    resamples: int
    output: str

    def __post_init__(self):
        _at_least(self.resamples, 2, "[sweep] resamples")
        if self.clock.frame_ticks % self.state_dim:
            raise ValueError("state_dim must divide frame_ticks")
        for d in self.dims:
            tagstream.BinningConfig.for_dimension(self.clock, d)


def _at_least(value, minimum, name) -> None:
    """Raise a ValueError naming ``name`` when ``value`` is below ``minimum``."""
    if value < minimum:
        raise ValueError(f"{name} must be at least {minimum}, got {value}")


def _parse_floats(text: str) -> tuple:
    return tuple(float(v) for v in text.replace(",", " ").split())


def _parse_ints(text: str, name: str) -> tuple:
    """Distinct integers from a comma- or space-separated list; errors name ``name``."""
    values = []
    for item in text.replace(",", " ").split():
        try:
            values.append(int(item))
        except ValueError:
            raise ValueError(f"{name} entry {item!r} is not an integer") from None
    if not values:
        raise ValueError(f"{name} needs at least one value")
    if len(set(values)) < len(values):
        raise ValueError(f"{name} repeats a value: {text.strip()}")
    return tuple(values)


def _parse_grid(text: str) -> tuple:
    """Noise fractions ``start:stop:count``, evenly spaced; errors name ``--grid``."""
    try:
        start, stop, count = text.split(":")
        start, stop, count = float(start), float(stop), int(count)
    except ValueError:
        raise ValueError(f"--grid must be start:stop:count, got {text!r}") from None
    if count < 2:
        raise ValueError(f"--grid needs a count of at least 2, got {count}")
    if not 0.0 <= start < stop <= 1.0:
        raise ValueError(f"--grid needs 0 <= start < stop <= 1, got {text!r}")
    return tuple(float(v) for v in np.linspace(start, stop, count))


def _parse_phase(text: str) -> float:
    return math.pi if text.strip().lower() == "pi" else float(text)


def load_run_config(path=None) -> RunConfig:
    """Built-in defaults overlaid with ``path``; unknown sections or keys are errors."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    parser.read_dict(_DEFAULTS)
    if path is not None:
        with open(path) as fh:
            parser.read_file(fh)
        for key in parser.defaults():
            raise ValueError(f"unknown config key [{parser.default_section}] {key} in {path}")
        for section in parser.sections():
            if section not in _DEFAULTS:
                raise ValueError(f"unknown config section [{section}] in {path}")
            for key in parser.options(section):
                if key not in _DEFAULTS[section]:
                    raise ValueError(f"unknown config key [{section}] {key} in {path}")
    clock = tagstream.ClockConfig(
        parser.getfloat("clock", "tick_seconds"),
        parser.getint("clock", "frame_ticks"),
        parser.getint("clock", "imbalance_ticks"),
    )
    return RunConfig(
        clock=clock,
        state_dim=parser.getint("source", "state_dim"),
        pair_rate=parser.getfloat("source", "pair_rate"),
        background_rates=_parse_floats(parser.get("source", "background_rates")),
        jitter_fwhm_seconds=parser.getfloat("source", "jitter_fwhm_seconds"),
        p_mix=parser.getfloat("source", "p_mix"),
        franson_phase=_parse_phase(parser.get("source", "franson_phase")),
        dims=_parse_ints(parser.get("binning", "dims"), "[binning] dims"),
        n_frames=parser.getint("sweep", "n_frames"),
        seed=parser.getint("sweep", "seed"),
        resamples=parser.getint("sweep", "resamples"),
        output=parser.get("run", "output"),
    )


def _write_atomic(path, payload) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    mode = "wb" if isinstance(payload, bytes) else "w"
    with open(tmp, mode) as fh:
        fh.write(payload)
    os.replace(tmp, path)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def sweep_rows_to_csv(rows) -> str:
    lines = [SWEEP_SCHEMA, ",".join(SWEEP_COLUMNS)]
    for row in rows:
        lines.append(",".join(_fmt(row[c]) for c in SWEEP_COLUMNS))
    return "\n".join(lines) + "\n"


def _stream_seed(seed: int, point: int, da: bool) -> int:
    return (int(seed) << 32) | (int(point) << 1) | int(da)


def _derived_seed(*parts) -> int:
    acc = 0
    for part in parts:
        acc = acc * 1_000_003 + int(part)
    return acc


def _point_models(cfg: RunConfig, rate: float):
    state = states.make_max_entangled(cfg.state_dim)
    hv = tagstream.SourceModel(
        state,
        cfg.pair_rate,
        rate,
        cfg.jitter_fwhm_seconds,
        cfg.p_mix,
        tagstream.BASIS_HV,
        cfg.franson_phase,
    )
    return hv, replace(hv, basis=tagstream.BASIS_DA)


def _certify_streams(hv_stream, da_stream, dims, eta_hwp, resamples, seed):
    """Per d: sift both bases, evaluate and resample the witness, estimate NF.

    The resampling generator of each d is keyed by ``_derived_seed(seed, d)``.
    Yields ``(report, summary, row)``; ``row`` is a sweep row plus its scan
    ``margin``, with ``noise_setting`` left to the caller.
    """
    if hv_stream.clock != da_stream.clock:
        raise ValueError("HV and DA tag files use different clock configs")
    for d in dims:
        binning = tagstream.BinningConfig.for_dimension(hv_stream.clock, d)
        hv = tagstream.sift_and_bin(hv_stream, binning, tagstream.BASIS_HV)
        da = tagstream.sift_and_bin(da_stream, binning, tagstream.BASIS_DA)
        f = binning.f_shift
        report = witness.witness_from_counts(hv, da, d, f, eta_hwp)

        def statistic(pair):
            return witness.witness_from_counts(pair[0], pair[1], d, f, eta_hwp).witness_lower_bound

        summary = analysis.poisson_resample(
            (hv, da), statistic, resamples, _derived_seed(seed, d),
            witness.witness_read_masks(d, f),
        )
        stacked = np.concatenate([hv.matrices, da.matrices])
        row = {
            "d_or_k": d,
            "noise_setting": None,
            "nf_true": analysis.true_noise_fraction(hv, da),
            "nf_estimated": analysis.noise_fraction(stacked),
            "witness_or_visibility_sum": report.witness_lower_bound,
            "margin": report.witness_lower_bound,
            "sigma": summary.std,
            "certified": report.certified,
        }
        yield report, summary, row


def _timebin_point(task):
    cfg, point, rate = task
    hv_model, da_model = _point_models(cfg, rate)
    hv_stream = tagstream.generate_stream(
        hv_model, cfg.clock, cfg.n_frames, _stream_seed(cfg.seed, point, False)
    )
    da_stream = tagstream.generate_stream(
        da_model, cfg.clock, cfg.n_frames, _stream_seed(cfg.seed, point, True)
    )
    results = _certify_streams(
        hv_stream, da_stream, cfg.dims, 1.0, cfg.resamples, _derived_seed(cfg.seed, point)
    )
    return [dict(row, noise_setting=rate) for _, _, row in results]


def run_timebin_sweep(cfg: RunConfig, workers: int = 1):
    """All sweep rows for the time-bin route, bit-identical for any worker count."""
    tasks = [(cfg, point, rate) for point, rate in enumerate(cfg.background_rates)]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            per_point = list(pool.map(_timebin_point, tasks))
    else:
        per_point = [_timebin_point(task) for task in tasks]
    return [row for rows in per_point for row in rows]


def _rows_to_threshold(rows, key) -> dict:
    """Threshold scan over the sweep rows of one d (or one k), as a JSON-ready dict."""
    picked = sorted((row for row in rows if row["d_or_k"] == key), key=lambda r: r["nf_true"])
    result = analysis.threshold_scan(
        [row["nf_true"] for row in picked],
        [row["margin"] for row in picked],
        [row["sigma"] for row in picked],
    )
    return dataclasses.asdict(result)


def _visibility_excess(mats, bound: float) -> float:
    """Count-level visibility sum of ``mats`` minus ``bound``.

    Reads each matrix's diagonal and total only, so its resampling masks
    are diagonal.
    """
    totals = [float(m.sum()) for m in mats]
    if 0.0 in totals:
        raise ValueError("a resampled basis drew no counts; raise --counts")
    return sum(float(np.trace(m)) / t for m, t in zip(mats, totals)) - bound


def run_mub_sweep(dim, k_list, nf_grid, counts_per_basis, resamples, seed):
    """Sweep rows, per-k thresholds and correlation matrices for the MUB route.

    The matrices are those of the first max(k_list) bases, one list per grid
    point in grid order.
    """
    mubs = mub.build_mubs(dim)
    pure = states.make_max_entangled(dim)
    k_max = max(k_list)
    if min(k_list) < 2 or k_max > dim + 1:
        raise ValueError(f"k values must lie in 2..{dim + 1}")
    rows, per_nf = [], []
    for nf in nf_grid:
        state = states.NoisyState(pure, 1.0 - nf)
        matrices = [
            mub.correlation_matrix(state, mubs, alpha, alpha) for alpha in range(k_max)
        ]
        per_nf.append(matrices)
        expected = [m * counts_per_basis for m in matrices]
        for k in k_list:
            report = mub.visibility_sum(state, mubs, k)

            statistic = functools.partial(_visibility_excess, bound=report.separable_bound)
            summary = analysis.poisson_resample(
                tuple(expected[:k]), statistic, resamples,
                _derived_seed(seed, round(nf * 1e6), k), (np.eye(dim, dtype=bool),) * k,
            )
            rows.append(
                {
                    "d_or_k": k,
                    "noise_setting": nf,
                    "nf_true": nf,
                    "nf_estimated": analysis.noise_fraction(np.stack(matrices[:k])),
                    "witness_or_visibility_sum": report.visibility_sum,
                    "margin": report.visibility_sum - report.separable_bound,
                    "sigma": summary.std,
                    "certified": report.certified,
                }
            )
    thresholds = {}
    for k in k_list:
        exact = mub.mub_noise_threshold(dim, k)
        thresholds[str(k)] = {
            "scan": _rows_to_threshold(rows, k),
            "exact_nf_star": None if exact is None else 1.0 - exact,
        }
    return rows, thresholds, per_nf


def cmd_simulate_tags(args) -> int:
    cfg = load_run_config(args.config)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    out = Path(args.out or cfg.output)
    out.mkdir(parents=True, exist_ok=True)
    seed = cfg.seed
    manifest = [MANIFEST_SCHEMA, "point,background_rate,basis,file,seed,sha256"]
    for point, rate in enumerate(cfg.background_rates):
        hv_model, da_model = _point_models(cfg, rate)
        for model, da_flag in ((hv_model, False), (da_model, True)):
            stream_seed = _stream_seed(seed, point, da_flag)
            stream = tagstream.generate_stream(model, cfg.clock, cfg.n_frames, stream_seed)
            name = f"tags_p{point:03d}_{model.basis.lower()}.hdtt"
            tmp = out / (name + ".tmp")
            tagstream.write_tags(stream, tmp)
            os.replace(tmp, out / name)
            digest = hashlib.sha256((out / name).read_bytes()).hexdigest()
            manifest.append(
                f"{point},{_fmt(rate)},{model.basis},{name},{stream_seed},{digest}"
            )
    _write_atomic(out / "manifest.csv", "\n".join(manifest) + "\n")
    print(json.dumps({"written": len(cfg.background_rates) * 2, "out": str(out)}))
    return 0


def cmd_certify_et(args) -> int:
    dims = _parse_ints(args.dims, "--dims")
    _at_least(args.resamples, 2, "--resamples")
    hv_stream = tagstream.read_tags(args.hv)
    da_stream = tagstream.read_tags(args.da)
    out = Path(args.out) if args.out else None
    rows = []
    reports = {}
    for report, summary, row in _certify_streams(
        hv_stream, da_stream, dims, args.eta_hwp, args.resamples, args.seed
    ):
        d = row["d_or_k"]
        payload = {
            **report.to_dict(),
            "sigma": summary.std,
            "three_sigma": summary.three_sigma,
            "resample_mean": summary.mean,
            "n_resamples": summary.n_resamples,
            "nf_true": row["nf_true"],
            "nf_estimated": row["nf_estimated"],
        }
        reports[str(d)] = payload
        if out is not None:
            _write_atomic(out / f"witness_d{d}.json", json.dumps(payload, sort_keys=True, indent=2))
        rows.append(row)
    if out is not None:
        _write_atomic(out / "certify_summary.csv", sweep_rows_to_csv(rows))
    print(json.dumps(reports, sort_keys=True))
    return 0


def cmd_mub_sweep(args) -> int:
    k_list = _parse_ints(args.k, "--k")
    nf_grid = _parse_grid(args.grid)
    if not 0.0 < args.counts < math.inf:
        raise ValueError(f"--counts must be finite and positive, got {args.counts}")
    _at_least(args.resamples, 2, "--resamples")
    rows, thresholds, per_nf = run_mub_sweep(
        args.dim, k_list, nf_grid, args.counts, args.resamples, args.seed
    )
    out = Path(args.out)
    _write_atomic(out / "mub_sweep.csv", sweep_rows_to_csv(rows))
    _write_atomic(out / "mub_thresholds.json", json.dumps(thresholds, sort_keys=True, indent=2))
    if args.export_matrices:
        for nf, matrices in zip(nf_grid, per_nf):
            for alpha, matrix in enumerate(matrices):
                mub.correlation_to_csv(
                    matrix, out / f"corr_nf{nf:.4f}_b{alpha}.csv", dim=args.dim,
                    alpha=alpha, beta=alpha, extra=f"nf={nf:.6g}",
                )
    print(json.dumps(thresholds, sort_keys=True))
    return 0


def cmd_sweep_noise(args) -> int:
    _at_least(args.workers, 1, "--workers")
    cfg = load_run_config(args.config)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    out = Path(args.out or cfg.output)
    rows = run_timebin_sweep(cfg, workers=args.workers)
    thresholds = {}
    for d in cfg.dims:
        try:
            thresholds[str(d)] = _rows_to_threshold(rows, d)
        except ValueError as exc:
            thresholds[str(d)] = {"error": str(exc)}
    _write_atomic(out / "sweep.csv", sweep_rows_to_csv(rows))
    _write_atomic(out / "thresholds.json", json.dumps(thresholds, sort_keys=True, indent=2))
    print(json.dumps({"rows": len(rows), "out": str(out)}))
    return 0


def cmd_link_budget(args) -> int:
    if args.db is None and args.km is None:
        raise ValueError("link-budget needs --db or --km")
    lines = ["# hdent-linkbudget-csv v1", "loss_db,distance_km"]
    for db in args.db or ():
        lines.append(f"{_fmt(db)},{_fmt(analysis.fiber_distance(db, args.attenuation))}")
    for km in args.km or ():
        lines.append(f"{_fmt(analysis.fiber_loss(km, args.attenuation))},{_fmt(km)}")
    print("\n".join(lines))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hdent",
        description="Noisy high-dimensional entanglement: simulation and certification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate-tags", help="generate binary tag files per sweep point")
    p.add_argument("--config", default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_simulate_tags)

    p = sub.add_parser("certify-et", help="witness reports from one HV/DA tag-file pair")
    p.add_argument("--hv", required=True)
    p.add_argument("--da", required=True)
    p.add_argument("--dims", required=True, help="comma-separated, e.g. 10,20,40,80")
    p.add_argument("--eta-hwp", type=float, default=1.0, dest="eta_hwp")
    p.add_argument("--resamples", type=int, default=analysis.DEFAULT_RESAMPLES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_certify_et)

    p = sub.add_parser("mub-sweep", help="visibility sums over a noise-fraction grid")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--k", required=True, help="comma-separated basis counts")
    p.add_argument("--grid", default="0:0.9:10", help="start:stop:count")
    p.add_argument("--counts", type=float, default=1e6)
    p.add_argument("--resamples", type=int, default=analysis.DEFAULT_RESAMPLES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--export-matrices", action="store_true")
    p.set_defaults(func=cmd_mub_sweep)

    p = sub.add_parser("sweep-noise", help="stream-level noise sweep with witnesses")
    p.add_argument("--config", default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=cmd_sweep_noise)

    p = sub.add_parser("link-budget", help="loss budget to fiber distance")
    p.add_argument("--db", type=float, nargs="+", default=None)
    p.add_argument("--km", type=float, nargs="+", default=None)
    p.add_argument("--attenuation", type=float, default=0.2, help="dB per km")
    p.set_defaults(func=cmd_link_budget)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # noqa: BLE001 - single CLI error boundary
        print(
            json.dumps({"error": type(exc).__name__, "message": str(exc)}),
            file=sys.stderr,
        )
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
