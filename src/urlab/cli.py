"""Config ingestion, experiment dispatch, and artifact emission.

Experiments are described by an INI file with sections [filter],
[innovations], [model], [experiment] and an optional [targets] section
holding pass/fail thresholds.  Each section's keys are the fields of one
dataclass (_FORMAT), typed and defaulted by them.  Thresholds default to
the canonical two-digit constants' own rounding plus a 4x MC-SE band, so
a bare config is already an acceptance run.  [experiment] statistics is
read only by monte_carlo.run (and sample_statistics without want_ape);
the subcommands ignore it, since dispatch draws APE exactly when
ape-curve runs.

Each finite-n check's needs are declared once, in monte_carlo.NEEDS:
stationary needs |varsigma| < 1 and the others varsigma = 1 (the limits
they compare against), limit-check reps >= 1000 (the KS distance's floor
on each side), cross-moment reps >= 4 (the correlation's standard error)
and ape-curve >= 3 n_grid points.  Run alone, such a check refuses the
config; "all" reports it as skipped.  Targets come from
monte_carlo.limit_target; excess_ape has no finite mean, so ape-curve
judges only its slope over log n.

The [targets] values are checked when the config is parsed: 3 <= m_log2
<= 20, bm_reps >= 2, limit_reps >= 1000, se_mult and every floor, band
and bound (fpe_floor, mse_floor, k1_floor, k2_floor, slope_rel_band,
stationary_floor, ks_max) >= 0, and every float must be finite.

--workers K (default: the usable cores) sizes the run's one pool,
``streams.run_pool``, and every stage maps its work units over it.  Each
stage reassembles its results in index order, so every artifact is
byte-identical to a run with --workers 1; the manifest records K.

Exit codes: 0 success (pass/fail lines are reporting only), 1 a failed
comparison under --strict, 2 a bad config (including a negative seed, a
run whose filter's leading zero taps make every path unscoreable, a filter
key its family does not read, a target out of its range, a check its NEEDS
entry refuses, or an output directory that cannot be created) or usage
(--workers < 1),
3 a path that cannot be scored (DegeneratePathError, raised by the first
finite-n path whose first regressor past the unscored lead is 0, or
Brownian path under its floor; none is redrawn), 4 a worker process
of the --workers pool died (BrokenProcessPool).
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import importlib.util
import json
import sys
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass, fields, replace
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__, brownian, monte_carlo, reporting
from .errors import ConfigError, DegeneratePathError, Validated
from .innovations import InnovationSpec
from .linear_process import FilterSpec, materialize_filter
from .monte_carlo import ExperimentConfig
from .streams import run_pool, usable_cores

@dataclass(frozen=True)
class Targets(Validated):
    """Pass/fail policy: absolute floors, SE multiplier, and the sizes of
    the limit-law batches the brownian checks draw (grid m = 2^m_log2)."""

    se_mult: float = 4.0
    fpe_floor: float = 0.1
    mse_floor: float = 0.7
    k1_floor: float = 0.5
    k2_floor: float = 0.2
    slope_rel_band: float = 0.15
    stationary_floor: float = 0.05
    ks_max: float = 0.03
    m_log2: int = 12
    bm_reps: int = 200_000
    limit_reps: int = 10_000

    def problems(self) -> list[str]:
        """Every violated constraint, empty when the targets are valid."""
        out = []
        # estimate_constants' grid floor; past 2^20 the grid's bias in K2,
        # about 5.6 / m, is below any standard error a run can reach
        m_log2_min = brownian._MIN_GRID.bit_length() - 1
        m_log2_max = 20
        if not m_log2_min <= self.m_log2 <= m_log2_max:
            out.append(f"m_log2 must be >= {m_log2_min} and <= {m_log2_max}, got {self.m_log2}")
        # the KS distance needs KS_MIN_SAMPLES draws per side, and a negative
        # multiplier, floor or bound would make a pass band negative
        floors = {"bm_reps": 2, "limit_reps": monte_carlo.KS_MIN_SAMPLES}
        bands = ("se_mult", "fpe_floor", "mse_floor", "k1_floor", "k2_floor",
                 "slope_rel_band", "stationary_floor", "ks_max")
        floors |= dict.fromkeys(bands, 0)
        return out + [
            f"{key} must be >= {floor}, got {getattr(self, key)}"
            for key, floor in floors.items()
            if getattr(self, key) < floor
        ]


@dataclass(frozen=True)
class RunManifest:
    """What ran and what it wrote; checksums make reruns comparable.

    ``versions`` names what the bits depend on besides the config: urlab,
    Python, numpy, scipy and numpy's BLAS, whose kernels sum the finite-n
    filter's products.  ``config_sha256`` hashes the parsed config and
    targets as run, a --seed override included.
    """

    config_path: str
    config_sha256: str
    subcommand: str
    out_dir: str
    base_seed: int
    workers: int
    versions: dict[str, str | None]
    artifacts: dict[str, str]


def _installed_version(package: str) -> str | None:
    """``package``'s version from the Version field of the METADATA file in
    its dist-info directory, which sits beside the package; None when there
    is none.  Neither the package nor ``importlib.metadata`` is imported:
    the latter's email parser alone took 1 MiB and 25 ms of a run."""
    site = Path(importlib.util.find_spec(package).origin).parents[1]
    for metadata in sorted(site.glob(f"{package}-*.dist-info/METADATA")):
        with metadata.open(encoding="utf-8") as lines:
            for line in lines:
                if line.startswith("Version:"):
                    return line.split(":", 1)[1].strip()
    return None


def _versions() -> dict[str, str | None]:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "urlab": __version__,
        "python": ".".join(map(str, sys.version_info[:3])),
        "numpy": np.__version__,
        "scipy": _installed_version("scipy"),
        "blas": f"{blas['name']} {blas['version']}",
    }


def _list_of(kind):
    """Parser for a comma- or space-separated list of ``kind`` values."""

    def parse(text: str) -> tuple:
        return tuple(kind(p) for p in text.replace(",", " ").split())

    parse.__name__ = f"list of {kind.__name__}"
    return parse


# Parser of a key's INI text by its field's annotation, "| None" stripped.
_PARSERS = {
    "float": float,
    "int": int,
    "str": str,
    "tuple[float, ...]": _list_of(float),
    "tuple[int, ...]": _list_of(int),
    "tuple[str, ...]": _list_of(str),
}

# The INI format: each section's dataclass and its keys (None: every
# field).  A key is parsed by its field's annotation and defaults to the
# field's default.
_FORMAT = {
    "filter": (FilterSpec, None),
    "innovations": (InnovationSpec, None),
    "model": (ExperimentConfig, ("beta", "varsigma")),
    "experiment": (ExperimentConfig, ("n_grid", "reps", "base_seed", "statistics", "out_dir")),
    "targets": (Targets, None),
}


def _keys(section: str) -> list:
    cls, names = _FORMAT[section]
    return [f for f in fields(cls) if names is None or f.name in names]


def _read(section: str, raw: dict, problems: list) -> dict:
    """One section's values by key; unknown keys and unparseable values
    are added to ``problems``, and an unparseable value takes the default."""
    raw = dict(raw)
    values = {}
    for f in _keys(section):
        values[f.name] = f.default
        if f.name not in raw:
            continue
        text = raw.pop(f.name).strip()
        parse = _PARSERS[f.type.removesuffix(" | None")]
        try:
            values[f.name] = parse(text)
        except (TypeError, ValueError):
            problems.append(f"[{section}] {f.name}: cannot parse {text!r} as {parse.__name__}")
    problems.extend(f"[{section}] unknown key {key!r}" for key in raw)
    return values


def _build(cls, problems: list, **kwargs):
    try:
        return cls(**kwargs)
    except ConfigError as exc:
        problems.extend(exc.problems)
        return None


def load_run(text: str) -> tuple[ExperimentConfig, Targets]:
    """Parse an INI config into (ExperimentConfig, Targets).

    Collects every problem before raising: unknown sections and keys,
    unparseable values, and each violated invariant from the domain
    types, all in one ConfigError.
    """
    parser = configparser.ConfigParser(
        interpolation=None, inline_comment_prefixes=("#", ";")
    )
    parser.optionxform = str
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError([f"config syntax: {exc}"]) from exc

    problems: list[str] = []
    for name in parser.sections():
        if name not in _FORMAT:
            problems.append(f"unknown section [{name}]; sections are {tuple(_FORMAT)}")
    values = {
        name: _read(name, parser[name] if parser.has_section(name) else {}, problems)
        for name in _FORMAT
    }
    filter_spec = _build(FilterSpec, problems, **values["filter"])
    innovations = _build(InnovationSpec, problems, **values["innovations"])
    # probe stand-ins keep experiment-level validation running even when an
    # earlier section failed, so one parse reports everything at once
    config = _build(
        ExperimentConfig,
        problems,
        filter_spec=filter_spec or FilterSpec(family="finite", coeffs=(1.0,)),
        innovations=innovations or InnovationSpec(),
        **values["model"],
        **values["experiment"],
    )
    targets = _build(Targets, problems, **values["targets"])
    if problems:
        raise ConfigError(problems)
    return config, targets


def serialize_config(config: ExperimentConfig, targets: Targets | None = None) -> str:
    """INI text that parses back to an equal config (round-trip)."""

    def fmt(value) -> str:
        if isinstance(value, tuple):
            return ", ".join(fmt(v) for v in value)
        if isinstance(value, float):
            return repr(value)
        return str(value)

    objects = {
        "filter": config.filter_spec,
        "innovations": config.innovations,
        "model": config,
        "experiment": config,
        "targets": targets,
    }
    parts = [
        [f"[{name}]"]
        + [f"{f.name} = {fmt(v)}" for f in _keys(name) if (v := getattr(obj, f.name)) is not None]
        for name, obj in objects.items()
        if obj is not None
    ]
    return "\n\n".join("\n".join(lines) for lines in parts) + "\n"


def _row(
    name: str, estimate: float, target: float, band: float, passed: bool | None = None
) -> dict:
    """One table row; ``passed`` defaults to |estimate - target| <= band."""
    return {
        "check": name,
        "estimate": estimate,
        "target": target,
        "band": band,
        "passed": bool(abs(estimate - target) <= band if passed is None else passed),
    }


def _band(floor: float, se: float | None, mult: float) -> float:
    return max(floor, mult * se) if se else floor


def _grid_summaries(config, statistic, columns):
    return [
        monte_carlo.summarize(config, statistic, n, columns[n][statistic])
        for n in config.n_grid
    ]


def _grid_rows(summaries, target, floor, se_mult):
    return [
        _row(f"{s.statistic} @ n={s.n}", s.mean, target, _band(floor, s.mc_se, se_mult))
        for s in summaries
    ]


def _run_fpe(config, targets, columns, workers):
    summaries = _grid_summaries(config, "fpe_stat", columns)
    target = monte_carlo.limit_target(config, "fpe_stat")
    rows = _grid_rows(summaries, target, targets.fpe_floor, targets.se_mult)
    files = {
        "fpe_summary.csv": summaries,
        "fpe_summary.json": [asdict(s) for s in summaries],
    }
    # asymptotic claim: judged at the largest n, earlier rows are context
    return rows, rows[-1]["passed"], files


def _run_ape(config, targets, columns, workers):
    summaries = _grid_summaries(config, "excess_ape", columns)
    slope = monte_carlo.ape_slope(summaries)
    # the paper's claim: APE grows per log n by the FPE constant; excess_ape
    # has no finite mean at any n, so only its slope is judged
    target = monte_carlo.limit_target(config, "fpe_stat")
    rows = [_row("excess_ape slope", slope, target, targets.slope_rel_band * target)]
    grid = [asdict(s) for s in summaries]
    files = {
        "ape_curve.csv": summaries,
        "ape_curve.json": {"slope": slope, "target": target, "grid": grid},
    }
    return rows, rows[0]["passed"], files


def _run_mse(config, targets, columns, workers):
    summaries = _grid_summaries(config, "norm_est_sq", columns)
    target = monte_carlo.limit_target(config, "norm_est_sq")
    rows = _grid_rows(summaries, target, targets.mse_floor, targets.se_mult)
    files = {
        "mse_summary.csv": summaries,
        "mse_summary.json": {"target": target, "grid": [asdict(s) for s in summaries]},
    }
    return rows, rows[-1]["passed"], files


def _run_constants(config, targets, columns, workers):
    report = brownian.estimate_constants(
        m=1 << targets.m_log2, reps=targets.bm_reps, base_seed=config.base_seed, workers=workers
    )
    rows = [
        _row(f"{est.name} ({what})", est.value, canon.value, _band(floor, est.se, targets.se_mult))
        for est, canon, floor, what in (
            (report.k1, brownian.CANONICAL_K1, targets.k1_floor, "squared-ratio moment"),
            (report.k2, brownian.CANONICAL_K2, targets.k2_floor, "inverse-energy moment"),
        )
    ]
    return rows, all(r["passed"] for r in rows), {"constants.json": report.as_dict()}


def _contrast_rows(out, joint, product, se_mult):
    """Rows of a moment contrast's joint moment and product of marginals,
    each judged against its (target, floor)."""
    return [
        _row(label, out[key], target, _band(floor, out[f"{key}_se"], se_mult))
        for label, key, (target, floor) in (
            ("joint moment", "joint", joint), ("product of marginals", "product", product)
        )
    ]


def _run_cross(config, targets, columns, workers):
    n = config.n_grid[-1]
    out = monte_carlo.cross_moment_from(columns[n], n)
    target = partial(monte_carlo.limit_target, config)
    # lambda^2 times the MSE limit is K2 sigma^2 + (K1 - K2) rho^2 sigma_omega^2
    product = (target("x_n_sq_over_n") * target("norm_est_sq"), targets.mse_floor)
    rows = _contrast_rows(out, (target("fpe_stat"), targets.fpe_floor), product, targets.se_mult)
    # sign test, not a band test: pass means the estimate is negative and
    # further than band from 0
    band = targets.se_mult * out["corr_se"]
    below = out["corr"] < 0.0 and abs(out["corr"]) > band
    rows.append(_row("correlation (pass: below -band)", out["corr"], 0.0, band, below))
    return rows, all(r["passed"] for r in rows), {"cross_moment.json": out}


def _run_stationary(config, targets, columns, workers):
    n = config.n_grid[-1]
    out = monte_carlo.stationary_comparison_from(columns[n], n)
    # both moments tend to the stationary FPE constant
    limit = (monte_carlo.limit_target(config, "fpe_stat"), targets.stationary_floor)
    rows = _contrast_rows(out, limit, limit, targets.se_mult)
    rows.append(_row("joint - product", out["diff"], 0.0, targets.se_mult * out["diff_se"]))
    return rows, all(r["passed"] for r in rows), {"stationary.json": out}


def _run_limit_check(config, targets, columns, workers):
    n = config.n_grid[-1]
    filt = materialize_filter(config.filter_spec)
    params = brownian.LimitParams.from_model(filt, config.innovations)
    draws = brownian.limit_sample_batch(
        params, 1 << targets.m_log2, targets.limit_reps, config.base_seed, workers=workers
    )
    ks = monte_carlo.limit_distribution_check(columns[n]["fpe_stat"], draws["fpe_limit_draw"])
    rows = [_row(f"KS(finite n={n}, limit law)", ks, 0.0, targets.ks_max)]
    files = {
        "limit_check.json": {
            "n": n,
            "reps_finite": int(config.reps),
            "reps_limit": int(targets.limit_reps),
            "m": 1 << targets.m_log2,
            "ks_distance": ks,
            "ks_max": targets.ks_max,
        }
    }
    return rows, rows[0]["passed"], files


# Each handler maps (config, targets, {n: columns}, the run's workers) to
# (rows, passed, {file name: payload}) and writes nothing; dispatch
# writes every file.
_HANDLERS = {
    "fpe": _run_fpe,
    "ape-curve": _run_ape,
    "mse": _run_mse,
    "constants": _run_constants,
    "cross-moment": _run_cross,
    "stationary": _run_stationary,
    "limit-check": _run_limit_check,
}

SUBCOMMANDS = (*_HANDLERS, "all")


def _print_rows(rows, stream) -> None:
    width = max(28, max(len(r["check"]) for r in rows) + 2)
    print(f"{'check':<{width}}{'estimate':>14}{'target':>12}{'band':>12}  flag", file=stream)
    for r in rows:
        flag = "pass" if r["passed"] else "FAIL"
        print(
            f"{r['check']:<{width}}{r['estimate']:>14.6g}{r['target']:>12.6g}"
            f"{r['band']:>12.4g}  {flag}",
            file=stream,
        )


def dispatch(
    subcommand: str,
    config: ExperimentConfig,
    targets: Targets | None = None,
    out_dir: str | Path = "urlab-out",
    workers: int | None = None,
    config_path: str = "<memory>",
    stream=None,
) -> tuple[int, RunManifest]:
    """Run one subcommand (or all), write its artifacts under out_dir,
    print the table.

    Returns (number of failed comparisons, manifest).  Artifacts and the
    manifest are byte-deterministic for a fixed config and seed.

    Each finite-n check is gated by ``monte_carlo.require``: a check run
    alone raises its ConfigError, and "all" reports it as skipped.  The
    checks that pass share one simulation before the checks, one
    ``sample_statistics`` call: the whole grid when fpe, ape-curve or mse
    runs, else n_max alone, with APE exactly when ape-curve runs.  The
    columns at n never depend on these choices.

    ``out_dir`` is created after the gates, before any simulation; an
    OSError there is a ConfigError.  ``streams.run_pool(workers)`` gives
    the run's one pool, or 1, and every stage runs over it; the manifest
    records ``workers``, None meaning the usable cores.
    """
    if subcommand not in SUBCOMMANDS:
        raise ConfigError([f"subcommand must be one of {SUBCOMMANDS}, got {subcommand!r}"])
    stream = stream if stream is not None else sys.stdout
    targets = targets or Targets()
    names = list(_HANDLERS) if subcommand == "all" else [subcommand]
    checks = [name for name in names if name in monte_carlo.NEEDS]  # the finite-n ones
    skipped = {}
    for name in checks:
        try:
            monte_carlo.require(config, name)
        except ConfigError as exc:
            if subcommand != "all":
                raise
            skipped[name] = exc.problems[0]
    runs = {name for name in checks if name not in skipped}
    try:
        Path(out_dir).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        problem = f"cannot create output directory {out_dir}: {exc.strerror or exc}"
        raise ConfigError([problem]) from exc
    with run_pool(workers) as pool:
        columns = {}
        if runs:
            grid = config.n_grid if {"fpe", "ape-curve", "mse"} & runs else config.n_grid[-1:]
            columns = monte_carlo.sample_statistics(
                config, grid, want_ape="ape-curve" in runs, workers=pool
            )
        failures = 0
        artifacts: dict[str, str] = {}
        for name in names:
            if name in skipped:
                print(f"== {name} ==", file=stream)
                print(f"{name}: skipped ({skipped[name]})", file=stream)
                continue
            rows, passed, files = _HANDLERS[name](config, targets, columns, pool)
            for file_name, payload in files.items():
                csv = file_name.endswith(".csv")
                write = reporting.write_summary_csv if csv else reporting.write_json
                artifacts[file_name] = reporting.checksum(write(Path(out_dir) / file_name, payload))
            print(f"== {name} ==", file=stream)
            _print_rows(rows, stream)
            print(f"{name}: {'pass' if passed else 'FAIL'}", file=stream)
            failures += 0 if passed else 1
    as_run = json.dumps([asdict(config), asdict(targets)], sort_keys=True)
    manifest = RunManifest(
        config_path=str(config_path),
        config_sha256=hashlib.sha256(as_run.encode()).hexdigest(),
        subcommand=subcommand,
        out_dir=str(out_dir),
        base_seed=config.base_seed,
        workers=usable_cores() if workers is None else workers,
        versions=_versions(),
        artifacts=artifacts,
    )
    reporting.write_json(Path(out_dir) / "manifest.json", asdict(manifest))
    return failures, manifest


def _count(text: str) -> int:
    """argparse type of a count that must be at least 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="urlab",
        description="Finite-sample and limit-law checks for least squares "
        "prediction with an integrated regressor.",
    )
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    parser.add_argument("config", help="path to an INI experiment config")
    parser.add_argument("--seed", type=int, default=None, help="override base_seed")
    parser.add_argument(
        "--workers", type=_count, default=None, help="processes, >= 1 (default: the usable cores)"
    )
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument(
        "--strict", action="store_true", help="exit 1 when any comparison fails"
    )
    args = parser.parse_args(argv)

    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        config, targets = load_run(text)
        if args.seed is not None:
            config = replace(config, base_seed=args.seed)
        out_dir = args.out or config.out_dir or "urlab-out"
        failures, _ = dispatch(
            args.subcommand,
            config,
            targets,
            out_dir=out_dir,
            workers=args.workers,
            config_path=args.config,
        )
    except ConfigError as exc:
        for problem in exc.problems:
            print(f"config error: {problem}", file=sys.stderr)
        return 2
    except (DegeneratePathError, BrokenProcessPool) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4 if isinstance(exc, BrokenProcessPool) else 3
    if failures and args.strict:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
