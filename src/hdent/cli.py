"""Command-line front end: simulation, certification, sweeps and exports.

Subcommands::

    simulate-tags   generate binary tag files over a background-rate grid
    certify-et      witness reports for one tag-file pair at several d
    mub-sweep       visibility sums over a noise-fraction grid (prime d)
    sweep-noise     full stream-level noise sweep with witnesses per d
    link-budget     loss budget <-> fiber distance table

``sweep-noise`` and ``certify-et`` certify HV/DA stream pairs through one
path: each stream is binned at every d, ``sweep-noise``'s in memory by
``_sift_stream`` and ``certify-et``'s tag files one block at a time by
``sift_blocks``, both through the one binning loop of ``tagstream``, and
``_certify_counts`` certifies the two lists of count sets, so ``sweep-noise``
holds one stream at a time.  ``simulate-tags`` writes each stream as it is
generated, block by block, so neither file command ever holds a whole stream.
``certify-et`` reports the first error in this order: its flags, the HV then
the DA header, a clock mismatch, ``--dims``, HV's then DA's records; so no
record is read before a header or ``--dims`` error.  The INI config drives
``simulate-tags`` and ``sweep-noise``.  Its keys are declared in one table,
``_CONFIG_KEYS``, whose rows give each key's section, default and parser; the
loader rejects every section or key that the table lacks.  ``mub-sweep`` is
configured by its flags.

Every table is rendered by ``_csv`` with a schema comment above its header,
and every output file, tag files included, is written by ``_publish``;
identical configs and seeds reproduce them bit for bit, independent of the
worker count.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import functools
import json
import math
import os
import sys
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
MANIFEST_COLUMNS = ("point", "background_rate", "basis", "file", "seed", "sha256")

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
    # (HV, DA) source models of each background rate, built from the fields
    point_models: tuple = dataclasses.field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.state_dim < 1 or self.clock.frame_ticks % self.state_dim:
            raise ValueError("[source] state_dim must divide [clock] frame_ticks, got "
                             f"{self.state_dim} and {self.clock.frame_ticks}")
        for d in self.dims:
            _named("[binning] dims:", tagstream.BinningConfig.for_dimension, self.clock, d)
        base = _named("[source]", tagstream.SourceModel,
                      states.make_max_entangled(self.state_dim), self.pair_rate, 0.0,
                      self.jitter_fwhm_seconds, self.p_mix, tagstream.BASIS_HV,
                      self.franson_phase)
        # every stream must be simulable before the first one is generated:
        # the pair rate and the state's bin layout at zero background, then
        # the background rate of each point
        _named("[source] pair_rate:", tagstream.check_source, base, self.clock)
        da = replace(base, basis=tagstream.BASIS_DA)
        _named("[source] state_dim:", tagstream.check_source, da, self.clock)
        models = []
        for rate in self.background_rates:
            point = _named("[source] background_rates:", replace, base,
                           background_rate_per_detector=rate)
            _named("[source] background_rates:", tagstream.check_source, point, self.clock)
            models.append((point, replace(point, basis=tagstream.BASIS_DA)))
        object.__setattr__(self, "point_models", tuple(models))


def _named(name, func, *args, **kwargs):
    """``func(*args, **kwargs)``, with a ValueError it raises prefixed by ``name``."""
    try:
        return func(*args, **kwargs)
    except ValueError as exc:
        raise ValueError(f"{name} {exc}") from None


def _number(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"must be a number, got {text!r}") from None


def _integer(text, minimum=-math.inf) -> int:
    """``text`` as an integer of at least ``minimum``."""
    try:
        value = int(text)
    except ValueError:
        raise ValueError(f"must be an integer, got {text!r}") from None
    if value < minimum:
        raise ValueError(f"must be at least {minimum}, got {value}")
    return value


def _parse_list(text: str, kind, noun: str) -> tuple:
    """Values of type ``kind`` from a comma- or space-separated list."""
    values = []
    for item in text.replace(",", " ").split():
        try:
            values.append(kind(item))
        except ValueError:
            raise ValueError(f"entry {item!r} is not {noun}") from None
    if not values:
        raise ValueError("needs at least one value")
    return tuple(values)


def _parse_ints(text: str) -> tuple:
    """Distinct integers from a comma- or space-separated list."""
    values = _parse_list(text, int, "an integer")
    if len(set(values)) < len(values):
        raise ValueError(f"repeats a value: {text.strip()}")
    return values


_SHARED_KEYS = ("--grid has points that round to the same millionth, so their "
                "error bars would share one seed; space the points wider")


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
    # the resampling keys round(nf * 1e6) of the points take at most this many values
    if count > round(stop * 1e6) - round(start * 1e6) + 1:
        raise ValueError(_SHARED_KEYS)
    return tuple(float(v) for v in np.linspace(start, stop, count))


# Every config key, once: (section, key, built-in default, parse).  A key names
# a ``ClockConfig`` field in [clock] and a ``RunConfig`` field elsewhere.  ``parse``
# turns the key's text into its value and checks that value alone; the loader
# puts ``[section] key`` in front of its error.
_CONFIG_KEYS = (
    ("run", "output", "out", str),
    ("clock", "tick_seconds", "82.3e-12", _number),
    ("clock", "frame_ticks", "320", _integer),
    ("clock", "imbalance_ticks", "32", _integer),
    ("source", "pair_rate", "1.5e6", _number),
    # grid spans noise fractions ~0..0.99 so every d crosses its threshold
    ("source", "background_rates", "0, 2e6, 5e6, 1e7, 1.6e7, 2.4e7, 3.2e7, 4e7",
     lambda text: _parse_list(text, float, "a number")),
    ("source", "jitter_fwhm_seconds", "800e-12", _number),
    ("source", "p_mix", "1.0", _number),
    ("source", "franson_phase", "pi",
     lambda text: math.pi if text.lower() == "pi" else _number(text)),
    ("source", "state_dim", "80", lambda text: _integer(text, 2)),
    ("binning", "dims", "10, 20, 40, 80", _parse_ints),
    ("sweep", "n_frames", "100000", lambda text: _integer(text, 1)),
    ("sweep", "seed", "1", _integer),
    ("sweep", "resamples", "150", lambda text: _integer(text, 2)),
)


def load_run_config(path=None) -> RunConfig:
    """Built-in defaults overlaid with ``path``; unknown sections or keys are errors."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    if path is not None:
        with open(path) as fh:
            parser.read_file(fh)
    known = {(section, key) for section, key, _, _ in _CONFIG_KEYS}
    for key in parser.defaults():
        raise ValueError(f"unknown config key [{parser.default_section}] {key} in {path}")
    for section in parser.sections():
        if section not in {s for s, _ in known}:
            raise ValueError(f"unknown config section [{section}] in {path}")
        for key in parser.options(section):
            if (section, key) not in known:
                raise ValueError(f"unknown config key [{section}] {key} in {path}")
    try:
        values = {
            key: _named(f"[{section}] {key}", parse, parser.get(section, key, fallback=default))
            for section, key, default, parse in _CONFIG_KEYS
        }
        clock = _named("[clock]", tagstream.ClockConfig, **{
            key: values.pop(key) for section, key, _, _ in _CONFIG_KEYS if section == "clock"
        })
        return RunConfig(clock=clock, **values)
    except ValueError as exc:
        raise ValueError(f"{exc} in {path}") from None


def _publish(path, write):
    """``write(tmp)``, with ``tmp = <path>.tmp`` then renamed to ``path``; any exception,
    Ctrl-C included, unlinks ``tmp``, so a failed write leaves no file behind."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        result = write(tmp)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return result


def _write_atomic(path, text: str) -> None:
    _publish(path, lambda tmp: tmp.write_text(text, newline=""))


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _csv(schema: str, columns, rows) -> str:
    """``schema``, a header of ``columns`` and one line of ``_fmt``-ed values per row."""
    lines = [schema, ",".join(columns), *(",".join(map(_fmt, row)) for row in rows)]
    return "\n".join(lines) + "\n"


def sweep_rows_to_csv(rows) -> str:
    return _csv(SWEEP_SCHEMA, SWEEP_COLUMNS, ([row[c] for c in SWEEP_COLUMNS] for row in rows))


def _stream_seed(seed: int, point: int, da: bool) -> int:
    return (int(seed) << 32) | (int(point) << 1) | int(da)


def _derived_seed(*parts) -> int:
    acc = 0
    for part in parts:
        acc = acc * 1_000_003 + int(part)
    return acc


def _sift_stream(stream, dims, basis) -> list:
    """``stream``'s count matrices at each d of ``dims``."""
    binnings = (tagstream.BinningConfig.for_dimension(stream.clock, d) for d in dims)
    return [tagstream.sift_and_bin(stream, binning, basis) for binning in binnings]


def _certify_counts(hv_sets, da_sets, eta_hwp, resamples, seed):
    """Per d: evaluate and resample the witness of one HV and one DA count set, estimate NF.

    The resampling generator of each d is keyed by ``_derived_seed(seed, d)``.
    Yields ``(report, summary, row)``; ``row`` is a sweep row plus its scan
    ``margin``, with ``noise_setting`` left to the caller.  Empty observed
    counts raise the witness's own error; a resampled replicate that draws an
    empty basis raises one that names d and the observed totals.
    """
    for hv, da in zip(hv_sets, da_sets):
        d = hv.binning.d
        report = witness.witness_from_counts(hv, da, eta_hwp)
        try:
            summary = witness.resample_witness(hv, da, resamples, _derived_seed(seed, d), eta_hwp)
        except ValueError as exc:
            # the pair and its observed counts passed ``witness_from_counts``
            raise ValueError(f"d={d}: {exc} in a Poisson-resampled replicate, not in the "
                             f"observed counts (HV {hv.total_counts()}, DA "
                             f"{da.total_counts()})") from None
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
    # each stream is generated, sifted and dropped before the next one
    hv_sets, da_sets = (
        _sift_stream(tagstream.generate_stream(model, cfg.clock, cfg.n_frames,
                                               _stream_seed(cfg.seed, point, da_flag)),
                     cfg.dims, model.basis)
        for model, da_flag in zip(cfg.point_models[point], (False, True))
    )
    results = _certify_counts(hv_sets, da_sets, 1.0, cfg.resamples, _derived_seed(cfg.seed, point))
    try:
        return [dict(row, noise_setting=rate) for _, _, row in results]
    except ValueError as exc:  # every certification error here comes of too few counts
        raise ValueError(f"sweep point {point} (background rate {rate:g} /s per detector), "
                         f"{exc}; raise [sweep] n_frames") from None


def run_timebin_sweep(cfg: RunConfig, workers: int = 1):
    """All sweep rows for the time-bin route, bit-identical for any worker count."""
    tasks = [(cfg, point, rate) for point, rate in enumerate(cfg.background_rates)]
    workers = min(workers, len(tasks))  # a pool starts all its workers at once
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # not loaded by importing the CLI
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


def _visibility_excess(reps, bound: float) -> np.ndarray:
    """Visibility sum minus ``bound`` of each replicate, from diagonal read cells and totals."""
    if any((part.totals == 0).any() for part in reps):
        raise ValueError("a resampled basis drew no counts; raise --counts")
    return sum(part.cells.sum(1) / part.totals for part in reps) - bound


def run_mub_sweep(dim, k_list, nf_grid, counts_per_basis, resamples, seed):
    """Sweep rows, per-k thresholds and correlation matrices for the MUB route.

    Each grid point builds its k_max matched-basis matrices as one ``(k_max, d, d)``
    stack (returned in grid order), and each k reads the first k of it: the
    per-basis resampling means, the visibility sum and the noise fraction.  The
    exact thresholds read one stack at p = 0 and one at p = 1.  Resampling is
    keyed by nf in millionths: points that round alike are refused.
    """
    mubs = mub.build_mubs(dim)
    pure = states.make_max_entangled(dim)
    k_max = max(k_list)
    if min(k_list) < 2 or k_max > dim + 1:
        raise ValueError(f"k values must lie in 2..{dim + 1}")
    keys = [round(nf * 1e6) for nf in nf_grid]
    if len(set(keys)) < len(keys):
        raise ValueError(_SHARED_KEYS)

    def matched(p):
        bases = range(k_max)
        return mub.correlation_matrix(states.NoisyState(pure, p), mubs, bases, bases)

    # ``take`` keeps each basis's off-diagonal cells contiguous, so each row sums as
    # ``m[~np.eye(dim, dtype=bool)].sum()`` does, bit for bit
    off_diagonal = np.flatnonzero(~np.eye(dim, dtype=bool))
    rows, per_nf = [], []
    for nf, key in zip(nf_grid, keys):
        matrices = matched(1.0 - nf)
        per_nf.append(matrices)
        # per basis, all the statistic reads: diagonal and off-diagonal sums (1 - trace may be < 0)
        expected = counts_per_basis * np.stack([
            np.trace(matrices, axis1=1, axis2=2),
            matrices.reshape(k_max, dim * dim).take(off_diagonal, axis=1).sum(1),
        ], axis=1)
        for k in k_list:
            report = mub.visibility_sum(matrices[:k])
            statistic = functools.partial(_visibility_excess, bound=report.separable_bound)
            summary = analysis.poisson_resample(
                tuple(expected[:k]), statistic, resamples,
                _derived_seed(seed, key, k), (np.array([True, False]),) * k,
            )
            rows.append(
                {
                    "d_or_k": k,
                    "noise_setting": nf,
                    "nf_true": nf,
                    "nf_estimated": analysis.noise_fraction(matrices[:k]),
                    "witness_or_visibility_sum": report.visibility_sum,
                    "margin": report.visibility_sum - report.separable_bound,
                    "sigma": summary.std,
                    "certified": report.certified,
                }
            )
    at_0, at_1 = matched(0.0), matched(1.0)
    thresholds = {}
    for k in k_list:
        exact = mub.mub_noise_threshold(*(mub.visibility_sum(at[:k]) for at in (at_0, at_1)))
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
    manifest = []
    for point, (rate, models) in enumerate(zip(cfg.background_rates, cfg.point_models)):
        for model, da_flag in zip(models, (False, True)):
            stream_seed = _stream_seed(cfg.seed, point, da_flag)
            name = f"tags_p{point:03d}_{model.basis.lower()}.hdtt"
            # generated and written block by block, so no whole stream is held
            blocks = tagstream.generate_blocks(model, cfg.clock, cfg.n_frames, stream_seed)
            digest = _publish(out / name, functools.partial(tagstream.write_tags, blocks))
            manifest.append((point, rate, model.basis, name, stream_seed, digest))
    _write_atomic(out / "manifest.csv", _csv(MANIFEST_SCHEMA, MANIFEST_COLUMNS, manifest))
    print(json.dumps({"written": len(cfg.background_rates) * 2, "out": str(out)}))
    return 0


def cmd_certify_et(args) -> int:
    dims = _named("--dims", _parse_ints, args.dims)
    _named("--resamples", _integer, args.resamples, 2)
    if not 0.0 < args.eta_hwp <= 1.0:
        raise ValueError(f"--eta-hwp must be in (0, 1], got {args.eta_hwp}")
    if Path(args.hv).resolve() == Path(args.da).resolve():
        raise ValueError(f"--hv and --da name one file, {args.hv}; the witness needs "
                         "the HV and the DA stream of one run")
    # both headers, their clocks and --dims are judged before any record is read;
    # then HV is sifted, then DA, each one block at a time
    hv, da = tagstream.read_blocks(args.hv), tagstream.read_blocks(args.da)
    if hv.clock != da.clock:
        raise ValueError("HV and DA tag files use different clock configs")
    binnings = [_named("--dims:", tagstream.BinningConfig.for_dimension, hv.clock, d)
                for d in dims]
    hv_sets = tagstream.sift_blocks(hv, binnings, tagstream.BASIS_HV)
    da_sets = tagstream.sift_blocks(da, binnings, tagstream.BASIS_DA)
    out = Path(args.out) if args.out else None
    rows = []
    reports = {}
    for report, summary, row in _certify_counts(
        hv_sets, da_sets, args.eta_hwp, args.resamples, args.seed
    ):
        d = row["d_or_k"]
        payload = {
            **dataclasses.asdict(report),
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
    k_list = _named("--k", _parse_ints, args.k)
    nf_grid = _parse_grid(args.grid)
    if not 0.0 < args.counts < math.inf:
        raise ValueError(f"--counts must be finite and positive, got {args.counts}")
    _named("--resamples", _integer, args.resamples, 2)
    names = [f"corr_nf{nf:.4f}" for nf in nf_grid]  # export names: nf to 4 decimals
    if args.export_matrices and len(set(names)) < len(names):
        raise ValueError("--grid has points that round to the same 4 decimals, so "
                         "--export-matrices would write one point's files over another's")
    rows, thresholds, per_nf = run_mub_sweep(
        args.dim, k_list, nf_grid, args.counts, args.resamples, args.seed
    )
    out = Path(args.out)
    _write_atomic(out / "mub_sweep.csv", sweep_rows_to_csv(rows))
    _write_atomic(out / "mub_thresholds.json", json.dumps(thresholds, sort_keys=True, indent=2))
    if args.export_matrices:
        columns = ["alice_m", *(f"bob_{n}" for n in range(args.dim))]
        for nf, name, matrices in zip(nf_grid, names, per_nf):
            for alpha, matrix in enumerate(matrices):
                schema = (f"# hdent-correlation-csv v1 d={args.dim} alpha={alpha} "
                          f"beta={alpha} nf={nf:.6g}")
                _write_atomic(out / f"{name}_b{alpha}.csv",
                              _csv(schema, columns, ([m, *row] for m, row in enumerate(matrix))))
    print(json.dumps(thresholds, sort_keys=True))
    return 0


def cmd_sweep_noise(args) -> int:
    _named("--workers", _integer, args.workers, 1)
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
    rows = [(db, analysis.fiber_distance(db, args.attenuation)) for db in args.db or ()]
    rows += [(analysis.fiber_loss(km, args.attenuation), km) for km in args.km or ()]
    print(_csv("# hdent-linkbudget-csv v1", ("loss_db", "distance_km"), rows), end="")
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
