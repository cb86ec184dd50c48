"""Config ingestion, experiment dispatch, and artifact emission.

Experiments are described by an INI file with sections [filter],
[innovations], [model], [experiment] and an optional [targets] section
holding pass/fail thresholds.  Thresholds default to the canonical
two-digit constants' own rounding plus a 4x MC-SE band, so a bare config
is already an acceptance run.

Most checks compare against integrated-regressor limits and require
varsigma = 1; the stationary contrast requires |varsigma| < 1.  The "all"
subcommand runs whichever checks the config's mode supports and reports
the others as skipped.

The [targets] sizes are checked when the config is parsed: 1 <= m_log2 <= 20,
bm_reps >= 2 and limit_reps >= 1000.  limit-check also needs reps >= 1000
finite-n draws (the KS distance's floor on each side) and cross-moment
reps >= 4 (the correlation's standard error); with fewer, "all" skips
them.

Exit codes: 0 success (pass/fail lines are reporting only), 1 a failed
comparison under --strict, 2 a bad config (including a negative seed, a
run whose filter's leading zero taps make every path unscoreable, a target
out of its range, or a check the mode or the reps cannot run) or usage
(--workers < 1),
3 paths that cannot be scored (DegenerateRateError, or ResamplePathError
once the resample cap is hit), 4 a worker process of the --workers pool
died (BrokenProcessPool).
"""

from __future__ import annotations

import argparse
import configparser
import math
import sys
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass, fields, replace
from functools import cache, partial
from pathlib import Path

from . import brownian, monte_carlo, reporting
from .errors import ConfigError, DegenerateRateError, ResamplePathError, Validated
from .innovations import InnovationSpec
from .linear_process import FilterSpec, materialize_filter
from .monte_carlo import ExperimentConfig

SUBCOMMANDS = (
    "fpe",
    "ape-curve",
    "mse",
    "constants",
    "cross-moment",
    "stationary",
    "limit-check",
    "all",
)

_SECTIONS = ("filter", "innovations", "model", "experiment", "targets")


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
        # m = 1 leaves every Brownian path degenerate, and a path drawn at
        # the refined grid 2m must fit one batch of brownian._BATCH_VALUES
        m_log2_max = brownian._BATCH_VALUES.bit_length() - 2
        if not 1 <= self.m_log2 <= m_log2_max:
            out.append(f"m_log2 must be >= 1 and <= {m_log2_max}, got {self.m_log2}")
        # the KS distance needs KS_MIN_SAMPLES draws per side
        floors = {"bm_reps": 2, "limit_reps": monte_carlo.KS_MIN_SAMPLES}
        return out + [
            f"{key} must be >= {floor}, got {getattr(self, key)}"
            for key, floor in floors.items()
            if getattr(self, key) < floor
        ]


@dataclass(frozen=True)
class RunManifest:
    """What ran and what it wrote; checksums make reruns comparable."""

    config_path: str
    subcommand: str
    out_dir: str
    base_seed: int
    workers: int
    artifacts: dict[str, str]


class _Section:
    """One config section with typed, error-collecting key access."""

    def __init__(self, name: str, raw: dict, problems: list):
        self.name = name
        self.raw = dict(raw)
        self.problems = problems

    def take(self, key: str, kind, default=None):
        if key not in self.raw:
            return default
        text = self.raw.pop(key).strip()
        try:
            return kind(text)
        except (TypeError, ValueError):
            self.problems.append(
                f"[{self.name}] {key}: cannot parse {text!r} as {kind.__name__}"
            )
            return default

    def finish(self):
        for key in self.raw:
            self.problems.append(f"[{self.name}] unknown key {key!r}")


def _list_of(kind):
    """Parser for a comma- or space-separated list of ``kind`` values."""

    def parse(text: str) -> tuple:
        return tuple(kind(p) for p in text.replace(",", " ").split())

    parse.__name__ = f"list of {kind.__name__}"
    return parse


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
        if name not in _SECTIONS:
            problems.append(f"unknown section [{name}]; sections are {_SECTIONS}")

    def section(name: str) -> _Section:
        raw = dict(parser[name]) if parser.has_section(name) else {}
        return _Section(name, raw, problems)

    filt = section("filter")
    fkwargs = dict(
        family=filt.take("family", str, "finite"),
        coeffs=filt.take("coeffs", _list_of(float)),
        a=filt.take("a", float),
        r=filt.take("r", float),
        p=filt.take("p", float),
        truncation_lag=filt.take("truncation_lag", int, 0),
        tail_tol=filt.take("tail_tol", float, 1e-8),
    )
    filt.finish()

    innov = section("innovations")
    ikwargs = dict(
        sigma_omega_sq=innov.take("sigma_omega_sq", float, 1.0),
        sigma_sq=innov.take("sigma_sq", float, 1.0),
        pi=innov.take("pi", float, 0.0),
        family=innov.take("family", str, "gaussian"),
    )
    innov.finish()

    model = section("model")
    beta = model.take("beta", float, 1.0)
    varsigma = model.take("varsigma", float, 1.0)
    model.finish()

    exp = section("experiment")
    ekwargs = dict(
        n_grid=exp.take("n_grid", _list_of(int), (500,)),
        reps=exp.take("reps", int, 1000),
        base_seed=exp.take("base_seed", int, 0),
        statistics=exp.take("statistics", _list_of(str), ("fpe_stat",)),
        out_dir=exp.take("out_dir", str),
    )
    exp.finish()

    tgt = section("targets")
    tkwargs = {}
    for f in fields(Targets):
        kind = int if f.type == "int" else float
        tkwargs[f.name] = tgt.take(f.name, kind, f.default)
    tgt.finish()

    filter_spec = _build(FilterSpec, problems, **fkwargs)
    innovations = _build(InnovationSpec, problems, **ikwargs)
    # probe stand-ins keep experiment-level validation running even when an
    # earlier section failed, so one parse reports everything at once
    config = _build(
        ExperimentConfig,
        problems,
        filter_spec=filter_spec or FilterSpec(family="finite", coeffs=(1.0,)),
        innovations=innovations or InnovationSpec(),
        beta=beta,
        varsigma=varsigma,
        **ekwargs,
    )
    targets = _build(Targets, problems, **tkwargs)
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

    def section(name, obj, keys=None):
        values = ((key, getattr(obj, key)) for key in keys or [f.name for f in fields(obj)])
        return [f"[{name}]"] + [f"{k} = {fmt(v)}" for k, v in values if v is not None]

    parts = [
        section("filter", config.filter_spec),
        section("innovations", config.innovations),
        section("model", config, ("beta", "varsigma")),
        section("experiment", config, ("n_grid", "reps", "base_seed", "statistics", "out_dir")),
    ]
    if targets is not None:
        parts.append(section("targets", targets))
    return "\n\n".join("\n".join(lines) for lines in parts) + "\n"


def _row(name: str, estimate: float, target: float, band: float) -> dict:
    return {
        "check": name,
        "estimate": estimate,
        "target": target,
        "band": band,
        "passed": bool(abs(estimate - target) <= band),
    }


def _band(floor: float, se: float | None, mult: float) -> float:
    return max(floor, mult * se) if se else floor


def _require_unit_root(config, name):
    if config.varsigma != 1.0:
        raise ConfigError(
            [f"{name} compares against integrated-regressor limits; set varsigma = 1"]
        )


def _require_reps(config, name, floor, what):
    if config.reps < floor:
        raise ConfigError([f"{name} needs reps >= {floor} {what}, got {config.reps}"])


def _require_ape_grid(config):
    _require_unit_root(config, "ape-curve")
    if len(config.n_grid) < 3:
        raise ConfigError(
            [f"ape-curve needs n_grid with >= 3 points to fit a slope, got {len(config.n_grid)}"]
        )


def _grid_summaries(config, statistic, columns):
    return [
        monte_carlo.summarize(config, statistic, n, columns(n)[statistic])
        for n in config.n_grid
    ]


def _grid_rows(summaries, target, floor, se_mult):
    return [
        _row(f"{s.statistic} @ n={s.n}", s.mean, target, _band(floor, s.mc_se, se_mult))
        for s in summaries
    ]


def _run_fpe(config, targets, columns):
    _require_unit_root(config, "fpe")
    summaries = _grid_summaries(config, "fpe_stat", columns)
    target = monte_carlo.limit_target(config, "fpe_stat", config.n_grid[-1])
    rows = _grid_rows(summaries, target, targets.fpe_floor, targets.se_mult)
    files = {
        "fpe_summary.csv": summaries,
        "fpe_summary.json": [asdict(s) for s in summaries],
    }
    # asymptotic claim: judged at the largest n, earlier rows are context
    return rows, rows[-1]["passed"], files


def _run_ape(config, targets, columns):
    _require_ape_grid(config)
    summaries = _grid_summaries(config, "excess_ape", columns)
    slope = monte_carlo.ape_slope(summaries)
    # the paper's claim: APE grows per log n by the FPE constant
    target = monte_carlo.limit_target(config, "fpe_stat", config.n_grid[-1])
    rows = [
        _row(f"excess_ape/log n @ n={s.n}", s.mean / math.log(s.n), target, math.inf)
        for s in summaries
    ]
    slope_row = _row("excess_ape slope", slope, target, targets.slope_rel_band * target)
    rows.append(slope_row)
    grid = [asdict(s) for s in summaries]
    files = {
        "ape_curve.csv": summaries,
        "ape_curve.json": {"slope": slope, "target": target, "grid": grid},
    }
    return rows, slope_row["passed"], files


def _run_mse(config, targets, columns):
    _require_unit_root(config, "mse")
    summaries = _grid_summaries(config, "norm_est_sq", columns)
    target = monte_carlo.limit_target(config, "norm_est_sq", config.n_grid[-1])
    rows = _grid_rows(summaries, target, targets.mse_floor, targets.se_mult)
    files = {
        "mse_summary.csv": summaries,
        "mse_summary.json": {"target": target, "grid": [asdict(s) for s in summaries]},
    }
    return rows, rows[-1]["passed"], files


def _run_constants(config, targets, columns):
    report = brownian.estimate_constants(
        m=1 << targets.m_log2, reps=targets.bm_reps, base_seed=config.base_seed
    )
    rows = [
        _row(f"{est.name} ({what})", est.value, canon.value, _band(floor, est.se, targets.se_mult))
        for est, canon, floor, what in (
            (report.k1, brownian.CANONICAL_K1, targets.k1_floor, "squared-ratio moment"),
            (report.k2, brownian.CANONICAL_K2, targets.k2_floor, "inverse-energy moment"),
        )
    ]
    return rows, all(r["passed"] for r in rows), {"constants.json": report.as_dict()}


def _run_cross(config, targets, columns):
    _require_unit_root(config, "cross-moment")
    _require_reps(config, "cross-moment", monte_carlo.CORR_MIN_REPS, "for the correlation's se")
    n = config.n_grid[-1]
    out = monte_carlo.cross_moment_from(columns(n), n)
    target = partial(monte_carlo.limit_target, config, n=n)
    joint_target = target("fpe_stat")
    # lambda^2 times the MSE limit is K2 sigma^2 + (K1 - K2) rho^2 sigma_omega^2
    prod_target = target("x_n_sq_over_n") * target("norm_est_sq")
    rows = [
        _row(
            "joint moment",
            out["joint"],
            joint_target,
            _band(targets.fpe_floor, out["joint_se"], targets.se_mult),
        ),
        _row(
            "product of marginals",
            out["product"],
            prod_target,
            _band(targets.mse_floor, out["product_se"], targets.se_mult),
        ),
        # sign test, not a band test: pass means the estimate sits below
        # -band, so the usual |estimate - target| <= band rule is overridden
        _row(
            "correlation (pass: below -band)",
            out["corr"],
            0.0,
            targets.se_mult * out["corr_se"],
        ),
    ]
    rows[-1]["passed"] = bool(
        out["corr"] < 0.0 and abs(out["corr"]) > targets.se_mult * out["corr_se"]
    )
    return rows, all(r["passed"] for r in rows), {"cross_moment.json": out}


def _run_stationary(config, targets, columns):
    if not abs(config.varsigma) < 1.0:
        raise ConfigError(["stationary compares against stationary limits; set |varsigma| < 1"])
    n = config.n_grid[-1]
    out = monte_carlo.stationary_comparison_from(columns(n), n)
    sigma_sq, floor, mult = config.innovations.sigma_sq, targets.stationary_floor, targets.se_mult
    rows = [
        _row(label, out[key], sigma_sq, _band(floor, out[f"{key}_se"], mult))
        for label, key in (("joint moment", "joint"), ("product of marginals", "product"))
    ]
    rows.append(_row("joint - product", out["diff"], 0.0, mult * out["diff_se"]))
    return rows, all(r["passed"] for r in rows), {"stationary.json": out}


def _run_limit_check(config, targets, columns):
    _require_unit_root(config, "limit-check")
    _require_reps(config, "limit-check", monte_carlo.KS_MIN_SAMPLES, "finite-n draws")
    n = config.n_grid[-1]
    filt = materialize_filter(config.filter_spec)
    params = brownian.LimitParams.from_model(filt, config.innovations)
    draws = brownian.limit_sample_batch(
        params, 1 << targets.m_log2, targets.limit_reps, config.base_seed
    )
    ks = monte_carlo.limit_distribution_check(columns(n)["fpe_stat"], draws["fpe_limit_draw"])
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


# Each handler maps (config, targets, columns) to (rows, passed, {file name:
# payload}) and writes nothing; dispatch writes every file.
_HANDLERS = {
    "fpe": _run_fpe,
    "ape-curve": _run_ape,
    "mse": _run_mse,
    "constants": _run_constants,
    "cross-moment": _run_cross,
    "stationary": _run_stationary,
    "limit-check": _run_limit_check,
}


def _print_rows(rows, stream) -> None:
    width = max(28, max(len(r["check"]) for r in rows) + 2)
    print(f"{'check':<{width}}{'estimate':>14}{'target':>12}{'band':>12}  flag", file=stream)
    for r in rows:
        band = "-" if math.isinf(r["band"]) else f"{r['band']:.4g}"
        flag = "pass" if r["passed"] else "FAIL"
        print(
            f"{r['check']:<{width}}{r['estimate']:>14.6g}{r['target']:>12.6g}"
            f"{band:>12}  {flag}",
            file=stream,
        )


def dispatch(
    subcommand: str,
    config: ExperimentConfig,
    targets: Targets | None = None,
    out_dir: str | Path = "urlab-out",
    workers: int = 1,
    config_path: str = "<memory>",
    stream=None,
) -> tuple[int, RunManifest]:
    """Run one subcommand (or all), write its artifacts under out_dir,
    print the table.

    Returns (number of failed comparisons, manifest).  Artifacts and the
    manifest are byte-deterministic for a fixed config and seed.

    The finite-n checks read the columns of one ``sample_statistics`` call
    per run (one process pool), made at the first read: the whole grid
    when fpe, ape-curve or mse can run, else n_max alone, with APE exactly
    when ape-curve runs.  The columns at n never depend on these choices.
    """
    if subcommand not in SUBCOMMANDS:
        raise ConfigError([f"subcommand must be one of {SUBCOMMANDS}, got {subcommand!r}"])
    stream = stream if stream is not None else sys.stdout
    names = list(_HANDLERS) if subcommand == "all" else [subcommand]
    want_ape = "ape-curve" in names
    if want_ape:
        try:
            _require_ape_grid(config)
        except ConfigError:
            want_ape = False

    walks = config.varsigma == 1.0 and {"fpe", "ape-curve", "mse"} & set(names)
    grid = config.n_grid if walks else config.n_grid[-1:]

    @cache
    def simulated():
        return monte_carlo.sample_statistics(config, grid, want_ape=want_ape, workers=workers)

    def columns(n):
        return simulated()[n]

    failures = 0
    artifacts: dict[str, str] = {}
    for name in names:
        try:
            rows, passed, files = _HANDLERS[name](config, targets or Targets(), columns)
        except ConfigError as exc:
            if subcommand != "all":
                raise
            # mode-gated check: report it as skipped rather than aborting
            print(f"== {name} ==", file=stream)
            print(f"{name}: skipped ({exc.problems[0]})", file=stream)
            continue
        for file_name, payload in files.items():
            csv = file_name.endswith(".csv")
            write = reporting.write_summary_csv if csv else reporting.write_json
            artifacts[file_name] = reporting.checksum(write(Path(out_dir) / file_name, payload))
        print(f"== {name} ==", file=stream)
        _print_rows(rows, stream)
        print(f"{name}: {'pass' if passed else 'FAIL'}", file=stream)
        failures += 0 if passed else 1
    manifest = RunManifest(
        config_path=str(config_path),
        subcommand=subcommand,
        out_dir=str(out_dir),
        base_seed=config.base_seed,
        workers=workers,
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
    parser.add_argument("--workers", type=_count, default=1, help="processes, >= 1")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument(
        "--strict", action="store_true", help="exit 1 when any comparison fails"
    )
    args = parser.parse_args(argv)

    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except OSError as exc:
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
    except (DegenerateRateError, ResamplePathError, BrokenProcessPool) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4 if isinstance(exc, BrokenProcessPool) else 3
    if failures and args.strict:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
